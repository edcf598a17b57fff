package main

// goldenDigests are the reference digests (refDigest over every job's
// output fingerprint, in job order) of each workload at defaultSeed. A
// change that alters any scheduling decision, fault draw or generated input
// changes them; update them only together with the change that explains
// why.
var goldenDigests = map[string]string{
	"ensemble": "edec13cdbef31daa",
	"dense":    "6eb4572116e180d2",
	"service":  "f757a3a95d2462a0",
	"stream":   "9ab519a85b9b91d2",
}

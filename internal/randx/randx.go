// Package randx provides seeded random distributions used to calibrate the
// simulated substrates. Every stream is math/rand's seeded sequence — a
// *rand.Rand over an in-package source that reproduces rand.NewSource draw
// for draw but seeds itself lazily (source.go) — so runs are reproducible
// from a single seed; no crypto randomness is needed or wanted.
package randx

import (
	"math"
	"math/rand"
	"sort"
)

// Source wraps a seeded *rand.Rand with the distributions the simulators use.
type Source struct {
	rng *rand.Rand
	src lazySource // rng's source, embedded to save an allocation per New
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.src.Seed(seed)
	s.rng = rand.New(&s.src)
	return s
}

// Fork derives an independent child source; the child's stream is a pure
// function of the parent's state at the call, so call order matters (and is
// deterministic under the sim kernel).
func (s *Source) Fork() *Source {
	return New(s.rng.Int63())
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0,n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + s.rng.Float64()*(hi-lo)
}

// Normal returns a normal sample with the given mean and standard deviation.
func (s *Source) Normal(mean, sd float64) float64 {
	return mean + sd*s.rng.NormFloat64()
}

// TruncNormal returns a normal sample truncated (by resampling, falling back
// to clamping) to [lo,hi].
func (s *Source) TruncNormal(mean, sd, lo, hi float64) float64 {
	for i := 0; i < 16; i++ {
		v := s.Normal(mean, sd)
		if v >= lo && v <= hi {
			return v
		}
	}
	return math.Min(hi, math.Max(lo, mean))
}

// LogNormal returns exp(N(mu, sigma)). Note mu/sigma parameterize the
// underlying normal, not the resulting distribution's mean.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMeanCV returns a lognormal sample parameterized by the desired
// mean and coefficient of variation (sd/mean) of the *resulting*
// distribution, which is the natural way to calibrate task runtimes.
func (s *Source) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		return 0
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return s.LogNormal(mu, math.Sqrt(sigma2))
}

// Exp returns an exponential sample with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.rng.Float64() < p }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle shuffles n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Pick returns a uniformly chosen index weighted by weights (all >= 0). It
// panics if weights is empty or sums to zero.
func (s *Source) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("randx: Pick with non-positive total weight")
	}
	x := s.rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf returns samples in [1,n] with a zipfian distribution of exponent
// alpha > 1 is not required; alpha=0 is uniform. Implemented by inverse CDF
// over precomputed weights for small n.
type Zipf struct {
	cum []float64
}

// NewZipf builds a zipf sampler over [1,n] with exponent alpha >= 0.
// n <= 0 (an empty support would NaN-normalize the CDF) and alpha < 0
// (which would silently invert the skew) panic, matching Pick's contract
// of rejecting degenerate weight inputs loudly.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with non-positive n")
	}
	if alpha < 0 || math.IsNaN(alpha) {
		panic("randx: NewZipf with negative or NaN alpha")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 1; i <= n; i++ {
		total += 1 / math.Pow(float64(i), alpha)
		cum[i-1] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum}
}

// Sample draws a value in [1,n].
func (z *Zipf) Sample(s *Source) int {
	x := s.Float64()
	return sort.SearchFloat64s(z.cum, x) + 1
}

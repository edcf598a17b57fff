package statediff

import (
	"math"
	"strings"
	"testing"
)

type inner struct {
	n    int
	vals []float64
}

type outer struct {
	name  string
	score float64
	in    *inner
	m     map[string]int
	cb    func()
	next  *outer
}

func TestIdenticalValuesAreClean(t *testing.T) {
	a := &outer{name: "x", score: 1.5, in: &inner{n: 3, vals: []float64{1, 2}}, m: map[string]int{"k": 1}}
	b := &outer{name: "x", score: 1.5, in: &inner{n: 3, vals: []float64{1, 2}}, m: map[string]int{"k": 1}}
	if d := Diff(a, b, Config{}); len(d) != 0 {
		t.Fatalf("identical values diff: %v", d)
	}
}

func TestNilEqualsEmptyForMapsAndSlices(t *testing.T) {
	// Truncated in place (non-nil, len 0, retained capacity) vs never used
	// (nil) — the core warm-reset equivalence.
	a := &outer{in: &inner{vals: make([]float64, 0, 128)}, m: map[string]int{}}
	b := &outer{in: &inner{vals: nil}, m: nil}
	if d := Diff(a, b, Config{}); len(d) != 0 {
		t.Fatalf("truncated-vs-fresh diff: %v", d)
	}
}

func TestDiffNamesTheExactPath(t *testing.T) {
	a := &outer{in: &inner{n: 7}}
	b := &outer{in: &inner{n: 0}}
	d := Diff(a, b, Config{})
	if len(d) != 1 {
		t.Fatalf("want 1 diff, got %v", d)
	}
	if want := "*statediff.outer.in.n: 7 != 0"; d[0] != want {
		t.Errorf("diff line = %q, want %q", d[0], want)
	}
}

func TestFuncCompareByNilness(t *testing.T) {
	// A callback that should have been disarmed: non-nil vs nil is a leak...
	a := &outer{cb: func() {}}
	b := &outer{}
	d := Diff(a, b, Config{})
	if len(d) != 1 || !strings.Contains(d[0], ".cb") {
		t.Fatalf("leaked callback not named: %v", d)
	}
	// ...while two live callbacks are assumed equivalent.
	c := &outer{cb: func() {}}
	if d := Diff(a, c, Config{}); len(d) != 0 {
		t.Fatalf("two live callbacks diff: %v", d)
	}
}

// pooled declares a retained capacity pool the way subsystems do: the tag
// exempts the field, and only that field.
type pooled struct {
	n    int
	free []float64 `statediff:"keep"`
}

func TestSkipExemptsDeclaredFields(t *testing.T) {
	a := &pooled{free: []float64{9}}
	b := &pooled{}
	if d := Diff(a, b, Config{}); len(d) != 0 {
		t.Fatalf("kept field still reported: %v", d)
	}
	a.n = 1
	if d := Diff(a, b, Config{}); len(d) != 1 || d[0] != "*statediff.pooled.n: 1 != 0" {
		t.Fatalf("untagged field not reported by its path: %v", d)
	}
}

func TestFloatBitPatternEquality(t *testing.T) {
	nan := math.NaN()
	a := &outer{score: nan}
	b := &outer{score: nan}
	if d := Diff(a, b, Config{}); len(d) != 0 {
		t.Fatalf("NaN != NaN under bit equality: %v", d)
	}
	c := &outer{score: math.Copysign(0, -1)}
	z := &outer{score: 0}
	if d := Diff(c, z, Config{}); len(d) != 1 {
		t.Fatalf("-0 vs +0 must differ bitwise: %v", d)
	}
}

func TestPointerCyclesTerminate(t *testing.T) {
	a := &outer{name: "a"}
	a.next = a
	b := &outer{name: "a"}
	b.next = b
	if d := Diff(a, b, Config{}); len(d) != 0 {
		t.Fatalf("equal cyclic values diff: %v", d)
	}
	c := &outer{name: "c"}
	c.next = c
	d := Diff(a, c, Config{})
	if len(d) == 0 {
		t.Fatal("differing cyclic values reported clean")
	}
}

func TestMapLenAndMissingKey(t *testing.T) {
	a := &outer{m: map[string]int{"k": 1}}
	b := &outer{m: map[string]int{"j": 1}}
	d := Diff(a, b, Config{})
	if len(d) == 0 || !strings.Contains(d[0], "key missing") {
		t.Fatalf("missing key not reported: %v", d)
	}
	c := &outer{m: map[string]int{"k": 1, "j": 2}}
	d = Diff(a, c, Config{})
	if len(d) != 1 || !strings.Contains(d[0], "map len") {
		t.Fatalf("length mismatch not reported: %v", d)
	}
}

func TestMaxDiffsBoundsReport(t *testing.T) {
	a := &inner{vals: []float64{1, 2, 3, 4, 5}}
	b := &inner{vals: []float64{9, 9, 9, 9, 9}}
	d := Diff(a, b, Config{MaxDiffs: 2})
	if len(d) != 2 {
		t.Fatalf("MaxDiffs=2 returned %d lines", len(d))
	}
}

func TestTypeMismatchReported(t *testing.T) {
	d := Diff(&inner{}, &outer{}, Config{})
	if len(d) != 1 || !strings.Contains(d[0], "type") {
		t.Fatalf("type mismatch not reported: %v", d)
	}
}

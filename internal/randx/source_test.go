package randx

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// rawDraws crosses both lazy-seeding boundaries (draws 273 and 334) and a
// full wrap of the 607-word register several times over.
const rawDraws = 3*rngLen + 100

// exactSeeds returns the edge seeds of math/rand's seed normalisation plus
// 400 pseudo-random ones spread over the whole int64 range.
func exactSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -2 * int32max,
		int32max - 1, int32max + 1, 89482311, -89482311,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	g := rand.New(rand.NewSource(20231112))
	for i := 0; i < 400; i++ {
		v := int64(g.Uint64())
		switch i % 4 {
		case 1:
			v %= 1 << 31 // small seeds hit the int32 range directly
		case 2:
			v = v%int32max + int32max*int64(g.Intn(5)-2) // near multiples
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// checkRaw compares n raw draws of the lazy source against math/rand's own
// source, alternating Uint64 and Int63 so both entry points are covered.
func checkRaw(t testing.TB, seed int64, n int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	var got lazySource
	got.Seed(seed)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 = %d, math/rand %d", seed, i+1, g, w)
			}
		} else if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d draw %d: Int63 = %d, math/rand %d", seed, i+1, g, w)
		}
	}
}

func TestSourceMatchesMathRandRaw(t *testing.T) {
	for _, seed := range exactSeeds() {
		checkRaw(t, seed, rawDraws)
	}
}

// TestSourceReseed covers rand.Rand.Seed on a source whose register is
// already allocated and partly consumed: every slot must be re-seeded
// before it is read again.
func TestSourceReseed(t *testing.T) {
	for _, n := range []int{1, 100, 273, 334, 607, rawDraws} {
		s := New(42)
		for i := 0; i < n; i++ {
			s.Int63()
		}
		s.rng.Seed(-7)
		want := rand.New(rand.NewSource(-7))
		for i := 0; i < rawDraws; i++ {
			if w, g := want.Int63(), s.Int63(); w != g {
				t.Fatalf("reseed after %d draws: draw %d = %d, math/rand %d", n, i+1, g, w)
			}
		}
	}
}

// TestSourceMatchesMathRandDistributions drives the rand.Rand methods the
// simulators use, interleaved, through New and through math/rand.
func TestSourceMatchesMathRandDistributions(t *testing.T) {
	for _, seed := range exactSeeds() {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for round := 0; round < 40; round++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d round %d: Float64 = %v, math/rand %v", seed, round, g, w)
			}
			n := 1 + round*round*97
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d round %d: Intn(%d) = %d, math/rand %d", seed, round, n, g, w)
			}
			m := int64(1)<<(round+20) + 3
			if w, g := want.Int63n(m), got.rng.Int63n(m); w != g {
				t.Fatalf("seed %d round %d: Int63n = %d, math/rand %d", seed, round, g, w)
			}
			wp, gp := want.Perm(round), got.Perm(round)
			for i := range wp {
				if wp[i] != gp[i] {
					t.Fatalf("seed %d round %d: Perm = %v, math/rand %v", seed, round, gp, wp)
				}
			}
			ws, gs := make([]int, round+2), make([]int, round+2)
			for i := range ws {
				ws[i], gs[i] = i, i
			}
			want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
			got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
			for i := range ws {
				if ws[i] != gs[i] {
					t.Fatalf("seed %d round %d: Shuffle = %v, math/rand %v", seed, round, gs, ws)
				}
			}
			if w, g := want.NormFloat64(), got.Normal(0, 1); w != g {
				t.Fatalf("seed %d round %d: NormFloat64 = %v, math/rand %v", seed, round, g, w)
			}
			if w, g := want.ExpFloat64(), got.Exp(1); w != g {
				t.Fatalf("seed %d round %d: ExpFloat64 = %v, math/rand %v", seed, round, g, w)
			}
		}
	}
}

// TestForkChainMatchesMathRand pins Fork: each child is seeded from its
// parent's next Int63, five generations deep, and every generation draws
// across the lazy boundaries.
func TestForkChainMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 3, -11, math.MaxInt64} {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		for depth := 0; depth < 5; depth++ {
			for i := 0; i < depth*200; i++ {
				if w, g := want.Int63(), got.Int63(); w != g {
					t.Fatalf("seed %d depth %d draw %d: %d, math/rand %d", seed, depth, i+1, g, w)
				}
			}
			got, want = got.Fork(), rand.New(rand.NewSource(want.Int63()))
		}
		for i := 0; i < rawDraws; i++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d leaf draw %d: %v, math/rand %v", seed, i+1, g, w)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, -1, int32max, 2 * int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(rawDraws))
	}
	f.Add(int64(89482311), uint16(273))
	f.Add(int64(7), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkRaw(t, seed, int(draws))
	})
}

var sinkSource *Source

// TestNewAllocs pins the cost of a source that is never drawn from: the
// Source with its embedded lazy source, and the rand.Rand over it. The
// 607-word register is not allocated until the first draw.
func TestNewAllocs(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		seed++
		sinkSource = New(seed)
	})
	if allocs > 2 {
		t.Fatalf("New with zero draws made %v allocations, want <= 2", allocs)
	}
}

// BenchmarkSourceNew measures creating a source and drawing from it, the
// per-fork cost an ensemble run pays.
func BenchmarkSourceNew(b *testing.B) {
	for _, draws := range []int{0, 1, 64, 1024} {
		b.Run("draws="+strconv.Itoa(draws), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New(int64(i))
				for j := 0; j < draws; j++ {
					s.Int63()
				}
				sinkSource = s
			}
		})
	}
}

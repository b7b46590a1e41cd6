package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refFork is Fork over a stdlib generator: the seed derivation RNG.Fork has
// always used, applied to rand.New(rand.NewSource(seed)).
func refFork(parent *rand.Rand, stream int64) *rand.Rand {
	z := uint64(parent.Int63()) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z & math.MaxInt64)))
}

// materialized returns a stream that has built its register.
func materialized(seed int64) *RNG {
	g := NewRNG(seed)
	for i := 0; i < alfgLen; i++ {
		g.Float64()
	}
	return g
}

// matchDraws makes count calls cycling through every RNG draw method and
// fails on the first that disagrees with the same call made on ref.
func matchDraws(t *testing.T, g *RNG, ref *rand.Rand, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		var got, want float64
		switch i % 9 {
		case 0:
			got, want = g.Float64(), ref.Float64()
		case 1:
			got, want = g.Exp(2.5), ref.ExpFloat64()*2.5
		case 2:
			d := Duration(ref.ExpFloat64() * float64(time.Microsecond))
			got, want = float64(g.ExpDuration(time.Microsecond)), float64(max(d, 1))
		case 3:
			u := ref.Float64()
			for u == 0 {
				u = ref.Float64()
			}
			got, want = g.Pareto(1.5, 4), 4/math.Pow(u, 1/1.5)
		case 4:
			got, want = g.Normal(5, 2), 5+2*ref.NormFloat64()
		case 5:
			n := 1 + i*7919%1000
			got, want = float64(g.Intn(n)), float64(ref.Intn(n))
		case 6:
			// Above 2³¹−1 Intn takes the Int63n path.
			got, want = float64(g.Intn(1<<40+i)), float64(ref.Intn(1<<40+i))
		case 7:
			got, want = g.Uniform(3, 7), 3+4*ref.Float64()
		case 8:
			if p, q := g.Perm(6), ref.Perm(6); !slices.Equal(p, q) {
				t.Fatalf("call %d: Perm = %v, math/rand = %v", i, p, q)
			}
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d (method %d): got %v, math/rand %v", i, i%9, got, want)
		}
	}
}

// FuzzRNGMatchesMathRand checks that RNG reproduces math/rand's stream for
// any seed: after draws raw source draws (which put the lazy register at
// any point of its life), every draw method, and a Fork child's stream,
// must agree with rand.New(rand.NewSource(seed)).
func FuzzRNGMatchesMathRand(f *testing.F) {
	seeds := []int64{0, 1, 89482311, lcgMod, -lcgMod, 2 * lcgMod, math.MinInt64, math.MaxInt64}
	draws := []uint16{0, 63, 64, 65, 272, 273, 274, 606, 607, 608, 1500}
	for i, s := range seeds {
		for j, d := range draws {
			f.Add(s, d, int64(i*len(draws)+j))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, stream int64) {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < int(draws); i++ {
			var got, want uint64
			if i%2 == 0 {
				got, want = g.r.Uint64(), ref.Uint64()
			} else {
				got, want = uint64(g.r.Int63()), uint64(ref.Int63())
			}
			if got != want {
				t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, i, got, want)
			}
		}
		matchDraws(t, g, ref, 64)
		// A child past materialization, then its parent again.
		matchDraws(t, g.Fork(stream), refFork(ref, stream), 400)
		matchDraws(t, g, ref, 9)
	})
}

// TestRNGSeedResets checks that reseeding through rand.Rand restarts the
// stream lazily, from a materialized register too.
func TestRNGSeedResets(t *testing.T) {
	g := materialized(3)
	g.r.Seed(-9)
	if g.src.vec != nil {
		t.Fatal("Seed kept the old register")
	}
	matchDraws(t, g, rand.New(rand.NewSource(-9)), 400)
}

// TestRNGAllocBudgets pins the allocation cost of streams: draws never
// allocate, lazy or materialized, and a new stream is at most two objects.
func TestRNGAllocBudgets(t *testing.T) {
	draws := map[string]func(g *RNG){
		"Float64":     func(g *RNG) { g.Float64() },
		"Intn":        func(g *RNG) { g.Intn(1000) },
		"Uniform":     func(g *RNG) { g.Uniform(1, 2) },
		"Exp":         func(g *RNG) { g.Exp(1) },
		"ExpDuration": func(g *RNG) { g.ExpDuration(time.Millisecond) },
		"Pareto":      func(g *RNG) { g.Pareto(1.5, 1) },
		"Normal":      func(g *RNG) { g.Normal(0, 1) },
	}
	for name, draw := range draws {
		// AllocsPerRun's warm-up call plus 20 runs stay well inside the
		// closed form, which answers up to alfgLazy draws.
		lazy := NewRNG(1)
		if a := testing.AllocsPerRun(20, func() { draw(lazy) }); a != 0 {
			t.Errorf("%s on a lazy stream: %v allocs/op, want 0", name, a)
		}
		if lazy.src.vec != nil {
			t.Fatalf("%s: stream materialized inside the closed form", name)
		}
		built := materialized(1)
		if a := testing.AllocsPerRun(1000, func() { draw(built) }); a != 0 {
			t.Errorf("%s on a materialized stream: %v allocs/op, want 0", name, a)
		}
	}
	root := NewRNG(1)
	if a := testing.AllocsPerRun(100, func() { NewRNG(7) }); a > 2 {
		t.Errorf("NewRNG: %v allocs/op, want <= 2", a)
	}
	if a := testing.AllocsPerRun(100, func() { root.Fork(7) }); a > 2 {
		t.Errorf("Fork: %v allocs/op, want <= 2", a)
	}
}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	sinkRNG  *RNG
	sinkDraw float64
)

// BenchmarkKernelRNGFork measures deriving one child stream, as topology
// building does per flow.
func BenchmarkKernelRNGFork(b *testing.B) {
	root := materialized(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRNG = root.Fork(int64(i))
	}
}

// BenchmarkKernelRNGDraw measures one exponential variate, the per-arrival
// draw of a Poisson source, on a lazy stream and on a materialized one.
func BenchmarkKernelRNGDraw(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		g := NewRNG(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Reseeding well before the closed form runs out keeps the
			// stream lazy; ExpFloat64 sometimes takes more than one draw.
			if g.src.pos >= alfgLazy/2 {
				g.src.Seed(int64(i))
			}
			sinkDraw = g.Exp(1)
		}
	})
	b.Run("materialized", func(b *testing.B) {
		g := materialized(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkDraw = g.Exp(1)
		}
	})
}

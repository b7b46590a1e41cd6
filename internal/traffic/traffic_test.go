package traffic

import (
	"math"
	"testing"
	"time"

	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
)

// countingSource records Submit call instants.
type countingSource struct {
	sched *sim.Scheduler
	times []sim.Time
}

func (s *countingSource) Submit() { s.times = append(s.times, s.sched.Now()) }

func TestPoissonValidation(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &countingSource{sched: sched}
	rng := sim.NewRNG(1)
	cases := []struct {
		name string
		cfg  PoissonConfig
	}{
		{"zero interval", PoissonConfig{Dst: dst, Sched: sched, RNG: rng}},
		{"nil dst", PoissonConfig{MeanInterval: time.Second, Sched: sched, RNG: rng}},
		{"nil sched", PoissonConfig{MeanInterval: time.Second, Dst: dst, RNG: rng}},
		{"nil rng", PoissonConfig{MeanInterval: time.Second, Dst: dst, Sched: sched}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewPoisson(tc.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestPoissonRateConverges(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &countingSource{sched: sched}
	g, err := NewPoisson(PoissonConfig{
		MeanInterval: 10 * time.Millisecond,
		Dst:          dst, Sched: sched, RNG: sim.NewRNG(5),
	})
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	g.Start()
	if err := sched.Run(sim.TimeZero.Add(100 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Expect ~10000 packets; Poisson sd ≈ 100.
	n := float64(g.Generated())
	if math.Abs(n-10000) > 400 {
		t.Errorf("generated %v packets in 100s at 100/s, want ~10000", n)
	}
	if int(g.Generated()) != len(dst.times) {
		t.Errorf("Generated()=%d but %d submits", g.Generated(), len(dst.times))
	}
}

func TestPoissonInterarrivalsAreExponential(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &countingSource{sched: sched}
	g, err := NewPoisson(PoissonConfig{
		MeanInterval: 10 * time.Millisecond,
		Dst:          dst, Sched: sched, RNG: sim.NewRNG(9),
	})
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	g.Start()
	if err := sched.Run(sim.TimeZero.Add(200 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var w stats.Welford
	for i := 1; i < len(dst.times); i++ {
		w.Add(dst.times[i].Sub(dst.times[i-1]).Seconds())
	}
	// Exponential: mean == stddev → c.o.v. == 1.
	if cov := w.COV(); math.Abs(cov-1) > 0.05 {
		t.Errorf("interarrival c.o.v. = %v, want ~1 (exponential)", cov)
	}
	if math.Abs(w.Mean()-0.01) > 0.001 {
		t.Errorf("interarrival mean = %v, want ~0.01", w.Mean())
	}
}

func TestPoissonStopHalts(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &countingSource{sched: sched}
	g, err := NewPoisson(PoissonConfig{
		MeanInterval: time.Millisecond,
		Dst:          dst, Sched: sched, RNG: sim.NewRNG(2),
	})
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	g.Start()
	sched.After(time.Second, g.Stop)
	if err := sched.Run(sim.TimeZero.Add(10 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	n := g.Generated()
	// ~1000 expected in the first second, none after.
	if n < 800 || n > 1200 {
		t.Errorf("generated %d, want ~1000 (stopped after 1s)", n)
	}
}

func TestPoissonStartIdempotent(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &countingSource{sched: sched}
	g, err := NewPoisson(PoissonConfig{
		MeanInterval: 100 * time.Millisecond,
		Dst:          dst, Sched: sched, RNG: sim.NewRNG(3),
	})
	if err != nil {
		t.Fatalf("NewPoisson: %v", err)
	}
	g.Start()
	g.Start() // second Start must not double the rate
	if err := sched.Run(sim.TimeZero.Add(60 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	n := float64(g.Generated())
	if n > 800 {
		t.Errorf("generated %v in 60s at 10/s: double-started", n)
	}
}

func TestPoissonDeterministicAcrossRuns(t *testing.T) {
	gen := func() []sim.Time {
		sched := sim.NewScheduler()
		dst := &countingSource{sched: sched}
		g, err := NewPoisson(PoissonConfig{
			MeanInterval: 5 * time.Millisecond,
			Dst:          dst, Sched: sched, RNG: sim.NewRNG(42),
		})
		if err != nil {
			t.Fatalf("NewPoisson: %v", err)
		}
		g.Start()
		if err := sched.Run(sim.TimeZero.Add(time.Second)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return dst.times
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("runs generated %d vs %d packets", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d at %v vs %v", i, a[i], b[i])
		}
	}
}

// tally counts submissions without allocating.
type tally struct{ n int }

func (t *tally) Submit() { t.n++ }

// emitAllocs returns the allocations per emission of a started source.
// The warm-up steps run the source's RNG stream past its closed-form
// prefix, so the measured draws come from the built register.
func emitAllocs(sched *sim.Scheduler) float64 {
	for i := 0; i < 256; i++ {
		sched.Step()
	}
	return testing.AllocsPerRun(1000, func() { sched.Step() })
}

// TestPoissonEmitAllocFree covers the dispatch of an emission: the
// (poissonEmit, source) event submits and files the next one without
// allocating.
func TestPoissonEmitAllocFree(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &tally{}
	var g Poisson
	if err := InitPoisson(&g, PoissonConfig{MeanInterval: time.Millisecond, Dst: dst, Sched: sched, RNG: sim.NewRNG(1)}); err != nil {
		t.Fatal(err)
	}
	g.Start()
	if allocs := emitAllocs(sched); allocs != 0 {
		t.Errorf("Poisson emission allocates %.1f objects/op, want 0", allocs)
	}
	if dst.n == 0 || uint64(dst.n) != g.Generated() {
		t.Errorf("submitted %d, generated %d", dst.n, g.Generated())
	}
}

// TestParetoEmitAllocFree is the same for the on/off source, whose steps
// alternate (paretoEmit, source) and (paretoBeginBurst, source) events.
func TestParetoEmitAllocFree(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &tally{}
	var g ParetoOnOff
	cfg := ParetoOnOffConfig{
		PacketInterval: time.Millisecond, MeanOn: 5 * time.Millisecond, MeanOff: 5 * time.Millisecond,
		Shape: 1.5, Dst: dst, Sched: sched, RNG: sim.NewRNG(1),
	}
	if err := InitParetoOnOff(&g, cfg); err != nil {
		t.Fatal(err)
	}
	g.Start()
	if allocs := emitAllocs(sched); allocs != 0 {
		t.Errorf("Pareto emission allocates %.1f objects/op, want 0", allocs)
	}
	if g.Bursts() < 2 || uint64(dst.n) != g.Generated() {
		t.Errorf("%d bursts, submitted %d, generated %d", g.Bursts(), dst.n, g.Generated())
	}
}

package meanfield

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// paperParams is the paper's bottleneck (31 Mb/s ÷ 1000-byte packets =
// 3875 pkts/s, 44 ms propagation RTT, 50-packet buffer, 20-packet windows)
// with n Reno flows at lambda packets/second each.
func paperParams(n int, lambda float64) Params {
	return Params{
		Classes:     []Class{{Flows: n, Variant: Reno, Lambda: lambda}},
		CapacityPPS: 3875,
		BaseRTT:     0.044,
		Buffer:      50,
		MaxWindow:   20,
		MinRTO:      0.2,
		Queue:       FIFO,
		Duration:    2,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"no classes", func(p *Params) { p.Classes = nil }},
		{"zero flows", func(p *Params) { p.Classes[0].Flows = 0 }},
		{"bad variant", func(p *Params) { p.Classes[0].Variant = 0 }},
		{"bad lambda", func(p *Params) { p.Classes[0].Lambda = 0 }},
		{"bad capacity", func(p *Params) { p.CapacityPPS = 0 }},
		{"bad rtt", func(p *Params) { p.BaseRTT = 0 }},
		{"bad buffer", func(p *Params) { p.Buffer = 0 }},
		{"bad window", func(p *Params) { p.MaxWindow = 0.5 }},
		{"bad queue", func(p *Params) { p.Queue = 0 }},
		{"bad duration", func(p *Params) { p.Duration = 0 }},
		{"bad red thresholds", func(p *Params) {
			p.Queue = RED
			p.RED = REDParams{MinThreshold: 10, MaxThreshold: 5, Weight: 0.002, MaxProb: 0.1}
		}},
		{"bad red weight", func(p *Params) {
			p.Queue = RED
			p.RED = REDParams{MinThreshold: 5, MaxThreshold: 15, Weight: 1, MaxProb: 0.1}
		}},
	}
	for _, tc := range cases {
		p := paperParams(10, 1)
		tc.mutate(&p)
		if err := p.withDefaults().Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid params", tc.name)
		}
	}
	if err := paperParams(10, 1).withDefaults().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestQueueChain(t *testing.T) {
	// Light load: negligible loss, near-empty queue, proper distribution.
	qs := new(workspace).solveQueueChain(0.5, 50)
	var sum float64
	for _, m := range qs.dist {
		if m < 0 {
			t.Fatalf("negative stationary mass %v", m)
		}
		sum += m
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %v, want 1", sum)
	}
	if qs.lossFrac > 1e-6 {
		t.Errorf("loss %v at intensity 0.5, want ~0", qs.lossFrac)
	}
	if qs.meanQ > 2 {
		t.Errorf("mean queue %v at intensity 0.5, want small", qs.meanQ)
	}

	// Loss and occupancy grow with intensity; throughput never exceeds one
	// packet per slot.
	prevLoss, prevMean := -1.0, -1.0
	for _, a := range []float64{0.5, 0.8, 0.95, 1.0, 1.2, 2.0} {
		qs := new(workspace).solveQueueChain(a, 50)
		if qs.lossFrac < prevLoss-1e-12 {
			t.Errorf("loss not monotone at a=%v: %v < %v", a, qs.lossFrac, prevLoss)
		}
		if qs.meanQ < prevMean-1e-9 {
			t.Errorf("mean queue not monotone at a=%v: %v < %v", a, qs.meanQ, prevMean)
		}
		if thr := a * (1 - qs.lossFrac); thr > 1+1e-9 {
			t.Errorf("throughput %v > 1 pkt/slot at a=%v", thr, a)
		}
		prevLoss, prevMean = qs.lossFrac, qs.meanQ
	}

	// Deep overload: the queue pins at B and the accepted rate is the
	// service rate.
	qs = new(workspace).solveQueueChain(2.0, 50)
	if qs.meanQ < 45 {
		t.Errorf("mean queue %v at 2x overload, want near 50", qs.meanQ)
	}
	if got, want := 2.0*(1-qs.lossFrac), 1.0; math.Abs(got-want) > 0.01 {
		t.Errorf("accepted rate %v at 2x overload, want ~%v", got, want)
	}

	// The saturated shortcut stays consistent with the exact chain.
	qs = new(workspace).solveQueueChain(saturationIntensity+1, 50)
	if qs.meanQ < 49.9 || qs.lossFrac < 0.9 {
		t.Errorf("saturated closure: meanQ=%v loss=%v", qs.meanQ, qs.lossFrac)
	}
}

func TestStationaryDensityNoLoss(t *testing.T) {
	// No loss signal and ample application demand: every flow grows to the
	// advertised window and stays there.
	g := newGrid(64, 20)
	env := classEnv{
		class:     Class{Flows: 1, Variant: Reno, Lambda: 1000},
		lambdaEff: 1000,
		rtt:       0.05,
		baseRTT:   0.044,
		minRTO:    0.2,
	}
	f := env.stationaryDensity(g, new(linSystem))
	if f[g.n-1] < 0.999 {
		t.Fatalf("no-loss density has %v mass at the cap, want ~1", f[g.n-1])
	}
}

func TestStationaryDensityShrinksWithLoss(t *testing.T) {
	g := newGrid(64, 20)
	mean := func(pSignal float64) float64 {
		env := classEnv{
			class:        Class{Flows: 1, Variant: Reno, Lambda: 1000},
			lambdaEff:    1000,
			rtt:          0.05,
			baseRTT:      0.044,
			pSignal:      pSignal,
			pTimeoutLoss: pSignal,
			minRTO:       0.2,
		}
		f := env.stationaryDensity(g, new(linSystem))
		return env.moments(g, f).meanW
	}
	prev := math.Inf(1)
	for _, p := range []float64{0.001, 0.01, 0.05, 0.2} {
		m := mean(p)
		if m >= prev {
			t.Errorf("mean window %v at p=%v not below %v", m, p, prev)
		}
		if m < 1 || m > 20 {
			t.Errorf("mean window %v at p=%v outside grid", m, p)
		}
		prev = m
	}
}

func TestRedRampMean(t *testing.T) {
	red := REDParams{MinThreshold: 5, MaxThreshold: 15, Weight: 0.002, MaxProb: 0.1}
	// Vanishing spread reproduces the deterministic ramp.
	for _, m := range []float64{0, 4, 7, 10, 14, 16, 40} {
		got := redRampMean(m, 1e-12, red)
		want := redRamp(m, red)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("redRampMean(%v, ~0) = %v, want ramp %v", m, got, want)
		}
	}
	// Monotone in the mean, bounded in [0, 1].
	prev := -1.0
	for m := 0.0; m <= 30; m += 0.5 {
		p := redRampMean(m, 2, red)
		if p < prev-1e-12 {
			t.Errorf("redRampMean not monotone at m=%v: %v < %v", m, p, prev)
		}
		if p < 0 || p > 1 {
			t.Errorf("redRampMean(%v) = %v outside [0,1]", m, p)
		}
		prev = p
	}
	// Gentle mode is continuous and dominated by forced drop at 2·max.
	red.Gentle = true
	if p := redRampMean(31, 0.5, red); p < 0.99 {
		t.Errorf("gentle ramp at 2*max+ = %v, want ~1", p)
	}
}

func TestSolveLightLoad(t *testing.T) {
	// 1000 flows at 1 pkt/s: 26% load, app-limited. The equilibrium should
	// show near-zero loss, full goodput, and the Poisson c.o.v.
	st, err := Solve(paperParams(1000, 1))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if st.DropProb > 1e-3 {
		t.Errorf("drop prob %v at 26%% load, want ~0", st.DropProb)
	}
	if math.Abs(st.GoodputPPS-1000) > 20 {
		t.Errorf("goodput %v, want ~1000", st.GoodputPPS)
	}
	// Poisson arrivals at rate A counted in tau windows: cov = 1/sqrt(A·tau).
	want := 1 / math.Sqrt(1000*0.044)
	if math.Abs(st.COV-want) > 0.2*want {
		t.Errorf("cov %v, want ~%v", st.COV, want)
	}
	if st.Iterations <= 0 || st.Iterations > 500 {
		t.Errorf("iterations %d out of range", st.Iterations)
	}
}

func TestSolveOverload(t *testing.T) {
	// The paper's N=500 cell: offered load is 12.9x capacity, so the link
	// saturates and flows are window- and loss-limited.
	st, err := Solve(paperParams(500, 100))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if st.Utilization < 0.95 {
		t.Errorf("utilization %v under heavy overload, want ~1", st.Utilization)
	}
	if st.DropProb < 0.01 {
		t.Errorf("drop prob %v under heavy overload, want substantial", st.DropProb)
	}
	if st.GoodputPPS > 3875 {
		t.Errorf("goodput %v exceeds capacity", st.GoodputPPS)
	}
	if st.MeanWindow < 1 || st.MeanWindow > 20 {
		t.Errorf("mean window %v outside [1, 20]", st.MeanWindow)
	}
	if st.TimeoutPPS <= 0 {
		t.Errorf("timeout rate %v under heavy overload, want > 0", st.TimeoutPPS)
	}
}

func TestSolveRED(t *testing.T) {
	p := paperParams(1200, 3)
	p.Queue = RED
	p.RED = REDParams{MinThreshold: 5, MaxThreshold: 15, Weight: 0.002, MaxProb: 0.1}
	st, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve RED: %v", err)
	}
	if st.REDAvgMean <= 0 {
		t.Errorf("RED average %v, want > 0", st.REDAvgMean)
	}
	// The screen and the cache must spare most of the 62 dense chain
	// solves an unscreened bisection spends per iteration.
	if c := st.Counts; c.Screened == 0 || c.CacheHits == 0 || c.DenseSolves >= 31*st.Iterations {
		t.Errorf("RED solve counts %+v over %d iterations: the screen or the cache is idle", c, st.Iterations)
	}
	// ECN marks instead of dropping: signal rate at least the drop rate of
	// the drop-mode run, drop rate lower.
	p.RED.ECN = true
	ecn, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve RED+ECN: %v", err)
	}
	if ecn.DropProb > st.DropProb+1e-12 {
		t.Errorf("ECN drop prob %v exceeds drop-mode %v", ecn.DropProb, st.DropProb)
	}
	if ecn.MarkPPS <= 0 && ecn.SignalProb <= ecn.DropProb {
		t.Errorf("ECN run shows no marking: marks=%v signal=%v drop=%v",
			ecn.MarkPPS, ecn.SignalProb, ecn.DropProb)
	}
}

func TestSolveVariants(t *testing.T) {
	for _, v := range []Variant{Tahoe, Vegas, UDP} {
		p := paperParams(800, 4)
		p.Classes[0].Variant = v
		p.Vegas = VegasParams{Alpha: 1, Beta: 3}
		st, err := Solve(p)
		if err != nil {
			t.Fatalf("Solve %v: %v", v, err)
		}
		if st.GoodputPPS <= 0 || st.GoodputPPS > 3875+1 {
			t.Errorf("%v goodput %v out of range", v, st.GoodputPPS)
		}
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := paperParams(500, 100)
	a, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	b, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical solves differ:\n%+v\n%+v", a, b)
	}
}

func TestConvergenceError(t *testing.T) {
	p := paperParams(500, 100)
	p.MaxIterations = 2
	p.Tolerance = 1e-14
	_, err := Solve(p)
	if err == nil {
		t.Fatal("Solve converged in 2 iterations at 12.9x overload")
	}
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not *ConvergenceError: %v", err, err)
	}
	if ce.Iterations != 2 {
		t.Errorf("Iterations = %d, want 2", ce.Iterations)
	}
	if ce.Residual <= ce.Tolerance {
		t.Errorf("Residual %v not above tolerance %v", ce.Residual, ce.Tolerance)
	}
	if ce.LastRTT <= 0 {
		t.Errorf("LastRTT %v, want > 0", ce.LastRTT)
	}
	if !strings.Contains(err.Error(), "did not converge") {
		t.Errorf("error text %q lacks diagnosis", err.Error())
	}
}

func TestIntegrator(t *testing.T) {
	p := paperParams(500, 100)
	p.Duration = 1
	in, err := NewIntegrator(p)
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	final := in.Run()
	if final.Time < 1-1e-9 {
		t.Errorf("final time %v, want >= 1", final.Time)
	}
	if final.Queue < 0 || final.Queue > 50 {
		t.Errorf("queue %v outside [0, 50]", final.Queue)
	}
	if final.Arrivals <= 0 || final.Departures <= 0 {
		t.Errorf("no flow: arrivals=%v departures=%v", final.Arrivals, final.Departures)
	}
	if final.Departures > final.Arrivals+1e-6 {
		t.Errorf("departures %v exceed arrivals %v", final.Departures, final.Arrivals)
	}
	bins, density, ok := in.Density(0)
	if !ok || len(bins) != len(density) {
		t.Fatalf("Density: ok=%v lens %d/%d", ok, len(bins), len(density))
	}
	var sum float64
	for _, f := range density {
		if f < 0 {
			t.Fatalf("negative density %v", f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("density sums to %v, want 1", sum)
	}

	// Determinism: a second integrator walks the same trajectory.
	in2, err := NewIntegrator(p)
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	if again := in2.Run(); !reflect.DeepEqual(final, again) {
		t.Fatalf("identical integrations differ:\n%+v\n%+v", final, again)
	}
}

func TestIntegratorApproachesFixedPoint(t *testing.T) {
	// Overload: loss events cycle the windows every few RTTs, so the ODE
	// relaxes to the stationary density within seconds, and the fluid
	// overflow law and the chain's saturated loss agree. (At light load
	// the comparison would need hundreds of virtual seconds: app-limited
	// growth is 1/w per second, while the stationary density is the
	// t → ∞ limit at the cap.)
	p := paperParams(500, 100)
	p.Duration = 6
	in, err := NewIntegrator(p)
	if err != nil {
		t.Fatalf("NewIntegrator: %v", err)
	}
	// Warm up for 4 virtual seconds, then time-average over the last two:
	// the fluid equilibrium can carry a small limit cycle around the
	// buffer boundary, so instantaneous and average differ.
	for in.Time() < 4 {
		in.Step()
	}
	mid := in.Snapshot()
	var winSum float64
	var winN int
	total := totalSteps(p.withDefaults())
	for in.Steps() < total {
		in.Step()
		if in.Steps()%50 == 0 {
			winSum += in.Snapshot().MeanWindow
			winN++
		}
	}
	final := in.Snapshot()
	avgArrival := (final.Arrivals - mid.Arrivals) / (final.Time - mid.Time)
	avgWindow := winSum / float64(winN)

	st, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(avgArrival-st.ArrivalPPS) > 0.25*st.ArrivalPPS {
		t.Errorf("ODE mean arrival rate %v vs fixed point %v", avgArrival, st.ArrivalPPS)
	}
	if math.Abs(avgWindow-st.MeanWindow) > 0.25*st.MeanWindow {
		t.Errorf("ODE mean window %v vs fixed point %v", avgWindow, st.MeanWindow)
	}
}

func TestTrajectoryCSV(t *testing.T) {
	p := paperParams(500, 100)
	p.Duration = 0.2
	tr, err := SampleTrajectory(p, 0.05)
	if err != nil {
		t.Fatalf("SampleTrajectory: %v", err)
	}
	if tr.Len() < 3 {
		t.Fatalf("trajectory has %d samples, want >= 3", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != strings.Join(trajectoryHeader, ",") {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) != tr.Len()+1 {
		t.Errorf("%d CSV lines for %d samples", len(lines), tr.Len())
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != len(trajectoryHeader)-1 {
			t.Errorf("row %q has %d commas, want %d", line, got, len(trajectoryHeader)-1)
		}
	}

	// Byte-stability of the dump.
	tr2, err := SampleTrajectory(p, 0.05)
	if err != nil {
		t.Fatalf("SampleTrajectory: %v", err)
	}
	var buf2 bytes.Buffer
	if err := tr2.WriteCSV(&buf2); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("identical trajectories produced different CSV bytes")
	}
}

// solveSink keeps BenchmarkSolve's result live.
var solveSink *SteadyState

// BenchmarkSolve times one steady-state solve at a fluid-sweep cell: the
// paper's bottleneck with its 50-packet buffer and 16,000 Reno flows at
// 100 pkts/s each, under drop-tail and under RED with the paper's
// parameters (thresholds 10/40, weight 0.002, max-p 0.1).
func BenchmarkSolve(b *testing.B) {
	for _, q := range []struct {
		name string
		kind QueueKind
	}{{"fifo", FIFO}, {"red", RED}} {
		b.Run(q.name, func(b *testing.B) {
			p := paperParams(16000, 100)
			p.Duration = 60
			p.Queue = q.kind
			p.RED = REDParams{MinThreshold: 10, MaxThreshold: 40, Weight: 0.002, MaxProb: 0.1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := Solve(p)
				if err != nil {
					b.Fatal(err)
				}
				solveSink = st
			}
		})
	}
}

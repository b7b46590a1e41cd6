package telemetry

import (
	"errors"
	"testing"
	"time"

	"tcpburst/internal/sim"
)

func TestSamplerPeriodicRecords(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	c := reg.Counter("events")
	reg.Probe("now", func() float64 { return sched.Now().Seconds() })

	// A busy simulation stand-in: bump the counter every 30 ms.
	var work func()
	work = func() {
		c.Inc()
		sched.After(30*time.Millisecond, work)
	}
	sched.After(30*time.Millisecond, work)

	ring := NewRing(64)
	s, err := NewSampler(sched, reg, 100*time.Millisecond, ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(sim.TimeZero.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	s.Sample() // final snapshot at the horizon — duplicate here, so skipped
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// t=0 plus ticks at 0.1..1.0.
	if want := uint64(11); s.Records() != want {
		t.Fatalf("records = %d, want %d", s.Records(), want)
	}
	if ring.Count() != int(s.Records()) {
		t.Fatalf("ring count %d != sampler records %d", ring.Count(), s.Records())
	}
	prev := -1.0
	for i := 0; i < ring.Len(); i++ {
		ts, _ := ring.At(i)
		if ts <= prev {
			t.Fatalf("timestamps not strictly increasing at %d: %g after %g", i, ts, prev)
		}
		prev = ts
		// The probe column must be polled at snapshot time.
		if got := ring.Value(i, "now"); got != ts {
			t.Fatalf("probe 'now' = %g at t=%g", got, ts)
		}
	}
	// Counter is monotone and ends at the full count (33 work events by 1s,
	// 30 of them at sampling time 0.9..; final row at t=1.0 sees 33).
	last := ring.Value(ring.Len()-1, "events")
	if last != 33 {
		t.Fatalf("final counter = %g, want 33", last)
	}
}

func TestSamplerFinalSampleOffGrid(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	reg.Counter("x")
	ring := NewRing(16)
	s, err := NewSampler(sched, reg, 100*time.Millisecond, ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Horizon between ticks: the explicit final sample adds one record.
	if err := sched.Run(sim.TimeZero.Add(250 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s.Sample()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(4); s.Records() != want { // 0, 0.1, 0.2, 0.25
		t.Fatalf("records = %d, want %d", s.Records(), want)
	}
	if ts, _ := ring.At(ring.Len() - 1); ts != 0.25 {
		t.Fatalf("final timestamp = %g, want 0.25", ts)
	}
}

type failingSink struct{ fail bool }

func (f *failingSink) Begin([]string) error { return nil }
func (f *failingSink) Record(float64, []float64) error {
	if f.fail {
		return errors.New("disk full")
	}
	return nil
}
func (f *failingSink) Flush() error { return nil }

func TestSamplerLatchesSinkError(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	reg.Counter("x")
	sink := &failingSink{}
	s, err := NewSampler(sched, reg, 10*time.Millisecond, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	sink.fail = true
	if err := sched.Run(sim.TimeZero.Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil || err.Error() != "disk full" {
		t.Fatalf("close = %v, want disk full", err)
	}
	if s.Records() != 1 { // only the pre-failure t=0 record counted
		t.Fatalf("records = %d, want 1", s.Records())
	}
}

// TestSamplerTickAllocs is the ISSUE's snapshot-path alloc budget: a
// steady-state sampling tick into the ring sink — scheduler pop, registry
// poll, ring copy, reschedule — must not allocate.
func TestSamplerTickAllocs(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	for _, n := range []string{"a", "b", "c", "d"} {
		reg.Counter(n)
	}
	reg.Probe("p", func() float64 { return 1 })
	reg.Histogram("h", 4, 8)
	ring := NewRing(32)
	s, err := NewSampler(sched, reg, time.Millisecond, ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Warm the scheduler's slot arena, then measure steady-state ticks.
	for i := 0; i < 8; i++ {
		sched.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		sched.Step()
	}); avg != 0 {
		t.Fatalf("sampling tick allocates %.1f/op, want 0", avg)
	}
}

func TestSamplerValidation(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	ring := NewRing(4)
	for _, tc := range []struct {
		name     string
		sched    *sim.Scheduler
		reg      *Registry
		interval sim.Duration
		sink     Sink
	}{
		{"nil scheduler", nil, reg, time.Second, ring},
		{"nil registry", sched, nil, time.Second, ring},
		{"zero interval", sched, reg, 0, ring},
		{"negative interval", sched, reg, -time.Second, ring},
		{"nil sink", sched, reg, time.Second, nil},
	} {
		if _, err := NewSampler(tc.sched, tc.reg, tc.interval, tc.sink); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestSamplerRecordsAtInterval: samples land on the interval grid and pick
// up a probed value's change at the first tick after it.
func TestSamplerRecordsAtInterval(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	v := 0.0
	reg.Probe("v", func() float64 { return v })
	ring := NewRing(16)
	s, err := NewSampler(sched, reg, 100*time.Millisecond, ring)
	if err != nil {
		t.Fatal(err)
	}
	sched.After(250*time.Millisecond, func() { v = 7 })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(sim.TimeZero.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	// Samples at 0, 100, ..., 1000 ms = 11 samples.
	if ring.Len() != 11 {
		t.Fatalf("got %d samples, want 11", ring.Len())
	}
	for i := 0; i < ring.Len(); i++ {
		if ts, _ := ring.At(i); ts != sim.TimeZero.Add(sim.Duration(i)*100*time.Millisecond).Seconds() {
			t.Errorf("sample %d at %gs, off the 100 ms grid", i, ts)
		}
	}
	if ring.Value(2, "v") != 0 || ring.Value(3, "v") != 7 {
		t.Errorf("values around the change: %g, %g", ring.Value(2, "v"), ring.Value(3, "v"))
	}
	if last := ring.Value(ring.Len()-1, "v"); last != 7 {
		t.Errorf("last value = %g, want 7", last)
	}
}

// TestSamplerMultipleSeriesShareClock: every probe is polled on the same
// tick, so each record carries all series at one timestamp.
func TestSamplerMultipleSeriesShareClock(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	reg.Probe("a", func() float64 { return 1 })
	reg.Probe("b", func() float64 { return 2 })
	ring := NewRing(32)
	s, err := NewSampler(sched, reg, 50*time.Millisecond, ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(sim.TimeZero.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if got := ring.Fields(); len(got) != 2 {
		t.Fatalf("fields = %v, want [a b]", got)
	}
	if ring.Len() != 21 {
		t.Fatalf("got %d records, want 21", ring.Len())
	}
	for i := 0; i < ring.Len(); i++ {
		if _, row := ring.At(i); row[0] != 1 || row[1] != 2 {
			t.Fatalf("record %d = %v, want both series", i, row)
		}
	}
}

func TestSamplerStopHalts(t *testing.T) {
	sched := sim.NewScheduler()
	reg := NewRegistry()
	reg.Probe("v", func() float64 { return 1 })
	ring := NewRing(128)
	s, err := NewSampler(sched, reg, 10*time.Millisecond, ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	sched.After(100*time.Millisecond, s.Stop)
	if err := sched.Run(sim.TimeZero.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if ring.Count() > 12 {
		t.Errorf("sampler kept running after Stop: %d samples", ring.Count())
	}
}

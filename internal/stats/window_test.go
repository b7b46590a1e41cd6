package stats

import (
	"testing"
	"time"

	"tcpburst/internal/sim"
)

func at(ms int64) sim.Time { return sim.TimeZero.Add(time.Duration(ms) * time.Millisecond) }

func TestWindowCounterValidation(t *testing.T) {
	if _, err := NewWindowCounter(0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewWindowCounter(-time.Second); err == nil {
		t.Error("negative window accepted")
	}
}

func TestWindowCounterBinsEvents(t *testing.T) {
	wc, err := NewWindowCounter(10 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWindowCounter: %v", err)
	}
	wc.Open(at(0))
	// Window [0,10): 2 events; [10,20): 1; [20,30): 0; [30,40): 3.
	wc.Observe(at(1))
	wc.Observe(at(9))
	wc.Observe(at(10))
	wc.Observe(at(30))
	wc.Observe(at(31))
	wc.Observe(at(39))
	counts := wc.Close(at(40))
	want := []float64{2, 1, 0, 3}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestWindowCounterEmptyWindowsAreZeros(t *testing.T) {
	wc, err := NewWindowCounter(10 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWindowCounter: %v", err)
	}
	wc.Open(at(0))
	wc.Observe(at(5))
	wc.Observe(at(95))
	counts := wc.Close(at(100))
	if len(counts) != 10 {
		t.Fatalf("len(counts) = %d, want 10", len(counts))
	}
	var sum float64
	for _, c := range counts {
		sum += c
	}
	if sum != 2 {
		t.Errorf("total events = %v, want 2", sum)
	}
	if counts[0] != 1 || counts[9] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestWindowCounterDiscardsPartialFinalWindow(t *testing.T) {
	wc, err := NewWindowCounter(10 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWindowCounter: %v", err)
	}
	wc.Open(at(0))
	wc.Observe(at(5))
	wc.Observe(at(12)) // lands in the partial window [10,15)
	counts := wc.Close(at(15))
	if len(counts) != 1 {
		t.Fatalf("counts = %v, want just the one full window", counts)
	}
	if counts[0] != 1 {
		t.Errorf("counts[0] = %v, want 1", counts[0])
	}
}

func TestWindowCounterObserveNAndLateOpen(t *testing.T) {
	wc, err := NewWindowCounter(10 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWindowCounter: %v", err)
	}
	// The first Observe anchors the window start at 100ms.
	wc.ObserveN(at(100), 5)
	wc.Observe(at(109))
	counts := wc.Close(at(110))
	if len(counts) != 1 || counts[0] != 6 {
		t.Fatalf("counts = %v, want [6]", counts)
	}
}

func TestWindowCounterCountsSnapshot(t *testing.T) {
	wc, err := NewWindowCounter(10 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWindowCounter: %v", err)
	}
	wc.Open(at(0))
	wc.Observe(at(5))
	wc.Observe(at(15))
	got := wc.Counts()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Counts() = %v, want [1]", got)
	}
	// Mutating the snapshot must not affect the counter.
	got[0] = 99
	if wc.Counts()[0] != 1 {
		t.Error("Counts() exposed internal state")
	}
}

func TestAggregate(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := Aggregate(xs, 2)
	want := []float64{1.5, 3.5, 5.5} // trailing 7 dropped
	if len(got) != len(want) {
		t.Fatalf("Aggregate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Aggregate = %v, want %v", got, want)
		}
	}
	if Aggregate(xs, 0) != nil {
		t.Error("m=0 must return nil")
	}
	if Aggregate(xs, 8) != nil {
		t.Error("m>len must return nil")
	}
	if got := Aggregate(xs, 1); len(got) != 7 {
		t.Errorf("m=1 = %v", got)
	}
}

func TestAggregatePreservesMean(t *testing.T) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i % 7)
	}
	w := Summarize(xs)
	base := w.Mean()
	for _, m := range []int{2, 4, 8} {
		aw := Summarize(Aggregate(xs, m))
		if agg := aw.Mean(); !almostEqual(agg, base, 1e-9) {
			t.Errorf("m=%d: aggregated mean %v != %v", m, agg, base)
		}
	}
}

// TestWindowCounterCompletedBy: rolling to an instant closes the windows
// that end by then (empty ones as zeros) without disturbing later
// observations, so the counts match Close's.
func TestWindowCounterCompletedBy(t *testing.T) {
	wc, err := NewWindowCounter(10 * time.Millisecond)
	if err != nil {
		t.Fatalf("NewWindowCounter: %v", err)
	}
	if got := wc.CompletedBy(at(50)); len(got) != 0 {
		t.Fatalf("unopened counter completed %v", got)
	}
	wc.Open(at(0))
	wc.Observe(at(1))
	if got := wc.CompletedBy(at(9)); len(got) != 0 {
		t.Fatalf("CompletedBy(9ms) = %v, want no windows", got)
	}
	if got := wc.CompletedBy(at(25)); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("CompletedBy(25ms) = %v, want [1 0]", got)
	}
	wc.Observe(at(25))
	wc.Observe(at(30))
	counts := wc.Close(at(40))
	want := []float64{1, 0, 1, 1}
	if len(counts) != len(want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

// TestWindowCounterReserveAndClose: a counter reserved for its horizon
// never regrows on the way there, and Close hands over the counter's own
// counts, the same ones again when it closes twice at the same end, as
// collect does for the first bottleneck of a multi-bottleneck run.
func TestWindowCounterReserveAndClose(t *testing.T) {
	wc, err := NewWindowCounter(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	wc.Open(at(5))
	wc.Reserve(at(1000))
	reserved := wc.counts[:1]
	for ms := int64(5); ms < 1000; ms += 7 {
		wc.Observe(at(ms))
	}
	first := wc.Close(at(1000))
	if &first[0] != &reserved[0] {
		t.Error("the counter regrew its reserved storage before the reserved end")
	}
	if len(first) != 99 {
		t.Fatalf("%d windows closed by 1000 ms from 5 ms, want 99", len(first))
	}
	total := 0.0
	for _, c := range first {
		total += c
	}
	if again := wc.Close(at(1000)); &again[0] != &first[0] || len(again) != len(first) || total != 142 {
		t.Errorf("second Close: %d counts (shared %v), total %v; want the same %d, total 142",
			len(again), &again[0] == &first[0], total, len(first))
	}
}

package core

import (
	"runtime"
	"testing"
	"time"
)

// runAllocBudget bounds the heap bytes of one N=60 Reno/RED 20 s run, the
// largest paper-sweep cell. Such a run allocated 1.34 MB before the delay
// samples were stored in chunks and merged once, the RNG registers were
// recycled between runs, and the queue percentile sorted in place; it
// allocates about 0.68 MB with registers from an earlier run and 0.98 MB
// without.
const runAllocBudget = 1 << 20

// TestRunAllocBudget keeps run-scoped garbage from creeping back: parallel
// sweeps stall on every GC cycle, and the cycles come from these bytes. It
// takes the least of three runs after a warm-up, so a GC that empties the
// register pool in between does not decide the outcome.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts on purpose; byte budgets do not hold under it")
	}
	cfg := DefaultConfig(60, Reno, RED)
	cfg.Duration = 20 * time.Second
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > runAllocBudget {
		t.Errorf("one N=60 Reno/RED 20 s run allocated %d bytes, budget %d", least, runAllocBudget)
	}
}

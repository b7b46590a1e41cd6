package core

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// leastAlloc returns the fewest heap bytes run allocates over three calls
// after a warm-up, so a collection that empties the idle arenas or the
// register pool in between does not decide the outcome.
func leastAlloc(t *testing.T, run func() error) uint64 {
	t.Helper()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// runAllocBudget bounds the heap bytes of one N=60 Reno/RED 20 s run, the
// largest paper-sweep cell, on an arena an earlier run left. Such a run
// allocated 1.34 MB before the delay samples were stored in chunks and
// merged once, the RNG registers were recycled between runs, and the queue
// percentile sorted in place, and about 0.68 MB before run arenas; it
// allocates about 41 KB with one.
const runAllocBudget = 128 << 10

// TestRunAllocBudget keeps run-scoped garbage from creeping back: parallel
// sweeps stall on every GC cycle, and the cycles come from these bytes.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts on purpose; byte budgets do not hold under it")
	}
	cfg := DefaultConfig(60, Reno, RED)
	cfg.Duration = 20 * time.Second
	least := leastAlloc(t, func() error {
		_, err := Run(cfg)
		return err
	})
	if least > runAllocBudget {
		t.Errorf("one N=60 Reno/RED 20 s run allocated %d bytes, budget %d", least, runAllocBudget)
	}
}

// sweepAllocBudget bounds the heap bytes of the paper's 17×6 grid at a
// 2 s horizon, run serially without a cache. At that horizon set-up
// dominates a run's garbage: the grid allocated about 26.2 MB before run
// arenas, with every run building its blocks and growing its rings from
// nothing, and about 3.2 MB with them. It allocates about 1.34 MB since
// the UDP endpoints, the server's dispatch table and the gateway's routes
// moved into the arena too and release returns the packets in flight at
// the horizon to the pools.
const sweepAllocBudget = 2 << 20

// TestSweepAllocBudget holds the run arenas to their purpose: a sweep's
// runs reuse the blocks, rings and chunks of the runs before them.
func TestSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts on purpose; byte budgets do not hold under it")
	}
	opts := SweepOptions{
		Base:    BaseConfig(WithDuration(2 * time.Second)),
		Clients: DefaultSweepClients(),
		Cells:   PaperCells(),
		Exec:    ExecOptions{Jobs: 1},
	}
	least := leastAlloc(t, func() error {
		_, err := RunSweepContext(context.Background(), opts)
		return err
	})
	if least > sweepAllocBudget {
		t.Errorf("a serial 17×6 paper grid at 2 s allocated %d bytes, budget %d", least, sweepAllocBudget)
	}
}

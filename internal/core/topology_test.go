package core

import (
	"runtime"
	"testing"
)

// TestBuildAllocsPerClient pins the client block: compiling a dumbbell
// allocates a bounded number of objects per client, whatever N is. The
// difference between N=2000 and N=1000 cancels the per-run set-up (the
// schedulers, pools, telemetry and fixed links) and leaves the per-client
// cost: the client block, the sink and source slabs and the route and
// dispatch tables, sized up front, are one allocation each per run, so
// what remains per client is its link names, its sender's segment ring
// and its sink's reorder bitmap.
func TestBuildAllocsPerClient(t *testing.T) {
	build := func(n int) float64 {
		top := dumbbell(DefaultConfig(n, Reno, FIFO).WithDefaults())
		return testing.AllocsPerRun(3, func() {
			if _, err := buildTopology(top, new(arena)); err != nil {
				t.Fatalf("buildTopology(N=%d): %v", n, err)
			}
		})
	}
	small, large := build(1000), build(2000)
	perClient := (large - small) / 1000
	t.Logf("build allocations: N=1000 %.0f, N=2000 %.0f, %.1f per client", small, large, perClient)
	if perClient > 10 {
		t.Errorf("building a dumbbell client allocates %.1f objects, want <= 10", perClient)
	}
}

// buildBytesPerClient bounds the heap bytes compiling a dumbbell client
// costs on a fresh arena. It read 3,064 B while every TCP endpoint and
// link carried its own copy of the run's parameters and a segment slot
// took 16 B; with shared parameter blocks and 8-byte slots a client costs
// 2,033 B: its 1,368-byte block (host, two links with their FIFOs and
// lanes, sender, RNG and flow record), its 264-byte sink, its 80-byte
// source, its 256-byte segment ring and its link names and table entries.
const buildBytesPerClient = 2200

// TestBuildBytesPerClient pins the per-client heap of a compiled dumbbell:
// the difference between N=20,000 and N=10,000 cancels the per-run
// set-up and leaves what each client adds.
func TestBuildBytesPerClient(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes; byte budgets do not hold under it")
	}
	build := func(n int) uint64 {
		top := dumbbell(DefaultConfig(n, Reno, FIFO).WithDefaults())
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := buildTopology(top, new(arena)); err != nil {
				t.Fatalf("buildTopology(N=%d): %v", n, err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := build(10_000), build(20_000)
	perClient := float64(large-small) / 10_000
	t.Logf("build bytes: N=10000 %d, N=20000 %d, %.0f per client", small, large, perClient)
	if perClient > buildBytesPerClient {
		t.Errorf("building a dumbbell client allocates %.0f bytes, want <= %d", perClient, buildBytesPerClient)
	}
}

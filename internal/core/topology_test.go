package core

import "testing"

// TestBuildAllocsPerClient pins the client block: compiling a dumbbell
// allocates a bounded number of objects per client, whatever N is. The
// difference between N=2000 and N=1000 cancels the per-run set-up (the
// schedulers, pools, telemetry and fixed links) and leaves the per-client
// cost: the client block, the sink and source slabs and the route tables
// are one allocation each per run, so what remains per client is its link
// names, its sender's segment ring, its sink's reorder bitmap and the
// amortized growth of the gateway's and server's dispatch slices.
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

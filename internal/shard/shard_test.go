package shard

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tcpburst/internal/sim"
)

const ms = sim.Duration(1_000_000)

func newGroup(t *testing.T, k int, lookahead sim.Duration) *Group {
	t.Helper()
	scheds := make([]*sim.Scheduler, k)
	for i := range scheds {
		scheds[i] = sim.NewScheduler()
	}
	return NewGroup(scheds, lookahead)
}

// A ping-pong chain across two shards: each delivery schedules the next
// crossing one lookahead later, so every window carries exactly one
// crossing in each direction and the barrier machinery gets no slack.
func TestGroupPingPong(t *testing.T) {
	g := newGroup(t, 2, 10*ms)
	lanes := sim.NewLanes()
	lane0, lane1 := lanes.Next(), lanes.Next()

	var hops atomic.Int64
	var bounce0, bounce1 func(any)
	bounce0 = func(any) { // runs on shard 0, sends to shard 1
		hops.Add(1)
		at := g.Scheduler(0).Now().Add(10 * ms)
		g.Cross(0, 1, at, lane0.Take(), bounce1, nil)
	}
	bounce1 = func(any) { // runs on shard 1, sends back to shard 0
		hops.Add(1)
		at := g.Scheduler(1).Now().Add(10 * ms)
		g.Cross(1, 0, at, lane1.Take(), bounce0, nil)
	}
	g.Scheduler(0).AtCall(0, bounce0, nil)

	horizon := sim.Time(100 * ms)
	if err := g.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Hops at t = 0, 10ms, ..., 100ms inclusive.
	if got := hops.Load(); got != 11 {
		t.Errorf("hops = %d, want 11", got)
	}
	for i := 0; i < g.Shards(); i++ {
		if now := g.Scheduler(i).Now(); now != horizon {
			t.Errorf("shard %d clock %v, want horizon %v", i, now, horizon)
		}
	}
	if g.Fired() < 11 {
		t.Errorf("Fired() = %d, want >= 11", g.Fired())
	}
}

// Crossings must execute on the destination shard in (time, ordinal)
// order, interleaved correctly with the destination's own events.
func TestGroupCrossingOrder(t *testing.T) {
	g := newGroup(t, 2, 5*ms)
	lanes := sim.NewLanes()
	lane := lanes.Next()

	var order []int
	note := func(arg any) { order = append(order, arg.(int)) }

	// Shard 1 schedules local events at 7ms and 8ms on its default lane.
	g.Scheduler(1).AtCall(sim.Time(7*ms), note, 1)
	g.Scheduler(1).AtCall(sim.Time(8*ms), note, 3)
	// Shard 0 sends two crossings from t=2ms landing at 7ms and 8ms.
	// Link lanes sort before the default lane at equal times, so the
	// crossing at 7ms must run before shard 1's own 7ms event.
	g.Scheduler(0).At(sim.Time(2*ms), func() {
		g.Cross(0, 1, sim.Time(7*ms), lane.Take(), note, 0)
		g.Cross(0, 1, sim.Time(8*ms), lane.Take(), note, 2)
	})

	if err := g.Run(sim.Time(20 * ms)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v, want [0 1 2 3]", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("executed %d events, want 4", len(order))
	}
}

// A Stop on a worker shard must abort the whole group with ErrStopped.
func TestGroupStopPropagates(t *testing.T) {
	g := newGroup(t, 3, 10*ms)
	fired := 0
	g.Scheduler(2).At(sim.Time(15*ms), func() { g.Scheduler(2).Stop() })
	g.Scheduler(0).At(sim.Time(200*ms), func() { fired++ })
	err := g.Run(sim.Time(300 * ms))
	if !errors.Is(err, sim.ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if fired != 0 {
		t.Error("event after the stop barrier still fired")
	}
}

// Windows jump over idle stretches: a sparse schedule must cost a bounded
// number of barriers, not horizon/lookahead.
func TestGroupWindowsJump(t *testing.T) {
	g := newGroup(t, 2, 1*ms)
	ran := 0
	for i := 0; i < 5; i++ {
		at := sim.Time(i) * sim.Time(1_000*ms) // every second
		g.Scheduler(i%2).At(at, func() { ran++ })
	}
	if err := g.Run(sim.Time(10_000 * ms)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 5 {
		t.Errorf("ran %d events, want 5", ran)
	}
	// Each sparse event costs one window; the jump logic means the 1ms
	// lookahead never quantizes the 10s horizon into 10k barriers. Fired
	// counts prove the events ran; the jump itself is observable as this
	// test completing instantly rather than after 10k channel round-trips.
}

func TestGroupValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty group", func() { NewGroup(nil, 1*ms) })
	mustPanic("zero lookahead", func() {
		NewGroup([]*sim.Scheduler{sim.NewScheduler()}, 0)
	})
}

// A crossing stamped inside the destination's past — the symptom of a
// lookahead larger than the true minimum link delay — must panic loudly
// at injection instead of silently reordering the schedule.
func TestGroupLookaheadViolationPanics(t *testing.T) {
	g := newGroup(t, 2, 50*ms) // lookahead overstates the 1ms "link delay"
	lanes := sim.NewLanes()
	lane := lanes.Next()
	g.Scheduler(0).At(sim.Time(10*ms), func() {
		// Lands at 11ms, but shard 1 has run to ~49ms by the barrier.
		g.Cross(0, 1, sim.Time(11*ms), lane.Take(), func(any) {}, nil)
	})
	g.Scheduler(1).At(sim.Time(60*ms), func() {})
	defer func() {
		if recover() == nil {
			t.Error("injecting a crossing behind the destination clock did not panic")
		}
	}()
	_ = g.Run(sim.Time(100 * ms))
}

// ring builds a K-shard ping-pong: a token hops from shard i to shard
// i+1 mod K one lookahead later, so every window carries one crossing and
// every shard waits at every barrier. It returns the hop counter.
func ring(g *Group, lookahead sim.Duration) *atomic.Int64 {
	k := g.Shards()
	lanes := sim.NewLanes()
	out := make([]*sim.Lane, k)
	for i := range out {
		out[i] = lanes.Next()
	}
	var hops atomic.Int64
	bounce := make([]func(any), k)
	for i := range bounce {
		bounce[i] = func(any) {
			hops.Add(1)
			next := (i + 1) % k
			at := g.Scheduler(i).Now().Add(lookahead)
			g.Cross(i, next, at, out[i].Take(), bounce[next], nil)
		}
	}
	g.Scheduler(0).AtCall(0, bounce[0], nil)
	return &hops
}

// withProcs runs fn under GOMAXPROCS = n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// Thousands of windows through the polling and parking handoffs: a lost
// wake-up deadlocks, a window run twice or skipped miscounts the hops, and
// a missing happens-before edge fails under -race.
func TestGroupManyWindows(t *testing.T) {
	for _, k := range []int{2, 3} {
		g := newGroup(t, k, 1*ms)
		hops := ring(g, 1*ms)
		if err := g.Run(sim.Time(5_000 * ms)); err != nil {
			t.Fatalf("K=%d: Run: %v", k, err)
		}
		if got := hops.Load(); got != 5_001 {
			t.Errorf("K=%d: hops = %d, want 5001", k, got)
		}
		if got := g.Windows(); got != 5_001 {
			t.Errorf("K=%d: windows = %d, want 5001", k, got)
		}
		if g.Parks() > uint64(k)*g.Windows() {
			t.Errorf("K=%d: %d parks over %d windows, more than K per window", k, g.Parks(), g.Windows())
		}
	}
}

// With more shards than GOMAXPROCS, polling would hold a core the awaited
// shard needs, so waits park. In each window the first goroutine to
// finish has to wait for the others; allowing for a goroutine descheduled
// between reporting a window and waiting for the next, at least every
// other window must park.
func TestGroupOversubscribedParks(t *testing.T) {
	withProcs(2, func() {
		g := newGroup(t, 3, 1*ms)
		hops := ring(g, 1*ms)
		if err := g.Run(sim.Time(1_000 * ms)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := hops.Load(); got != 1_001 {
			t.Errorf("hops = %d, want 1001", got)
		}
		t.Logf("K=3 on 2 procs: %d parks over %d windows", g.Parks(), g.Windows())
		if 2*g.Parks() < g.Windows() {
			t.Errorf("K=3 on 2 procs: %d parks over %d windows, want the park path", g.Parks(), g.Windows())
		}
	})
	if n := inFlight.Load(); n != 0 {
		t.Errorf("inFlight = %d after Run, want 0", n)
	}
}

// Two K=2 groups fit GOMAXPROCS=2 alone but not together. A rendezvous in
// the first window makes their runs overlap; until the first of them
// finishes, both must take the park path rather than poll past the cores.
func TestGroupConcurrentGroupsPark(t *testing.T) {
	withProcs(2, func() {
		var meet sync.WaitGroup
		meet.Add(2)
		groups := [2]*Group{}
		var mu sync.Mutex
		var finished []int
		var wg sync.WaitGroup
		for i := range groups {
			g := newGroup(t, 2, 1*ms)
			ring(g, 1*ms)
			g.Scheduler(0).At(0, func() {
				meet.Done()
				meet.Wait()
				// Both groups are inside Run: all four goroutines count.
				if n := inFlight.Load(); n != 4 {
					t.Errorf("inFlight = %d while two K=2 groups run, want 4", n)
				}
			})
			groups[i] = g
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := g.Run(sim.Time(2_000 * ms)); err != nil {
					t.Errorf("group %d: Run: %v", i, err)
				}
				mu.Lock()
				finished = append(finished, i)
				mu.Unlock()
			}()
		}
		wg.Wait()
		first := groups[finished[0]]
		t.Logf("first group to finish: %d parks over %d windows", first.Parks(), first.Windows())
		if 2*first.Parks() < first.Windows() {
			t.Errorf("first group to finish parked %d times over %d windows while another group held the cores",
				first.Parks(), first.Windows())
		}
	})
	if n := inFlight.Load(); n != 0 {
		t.Errorf("inFlight = %d after both runs, want 0", n)
	}
}

// awaitParked runs gt.await on a counter one step ahead of c, advancing c
// once the goroutine has parked, and returns await's result.
func awaitParked(gt *gate, c *atomic.Uint64, procs int64) bool {
	target := c.Load() + 1
	go func() {
		for !gt.sleeping.Load() {
			runtime.Gosched()
		}
		c.Add(1)
		gt.release()
	}()
	return gt.await(c, target, procs)
}

// A wait that polls in vain halves its gate's budget, down to guardPolls,
// and a wait that succeeds doubles it back.
func TestGateBudgetAdapts(t *testing.T) {
	gt := &gate{wake: make(chan struct{}, 1), budget: spinPolls}
	var c atomic.Uint64
	if !awaitParked(gt, &c, 1) {
		t.Fatal("a wait on an unreached counter did not park")
	}
	if gt.budget != spinPolls/2 {
		t.Errorf("budget after a failed wait = %d, want %d", gt.budget, spinPolls/2)
	}
	if gt.await(&c, c.Load(), 1) {
		t.Fatal("a wait on a reached counter parked")
	}
	if gt.budget != spinPolls {
		t.Errorf("budget after a successful wait = %d, want %d", gt.budget, spinPolls)
	}
	for i := 0; i < 12; i++ {
		awaitParked(gt, &c, 1)
	}
	if gt.budget != guardPolls {
		t.Errorf("budget after repeated failures = %d, want the floor %d", gt.budget, guardPolls)
	}
}

// With more shard goroutines in flight than procs, a wait parks without
// polling, so it leaves the budget alone.
func TestGateParksAtOnceWhenOversubscribed(t *testing.T) {
	inFlight.Add(3)
	defer inFlight.Add(-3)
	gt := &gate{wake: make(chan struct{}, 1), budget: spinPolls}
	var c atomic.Uint64
	if !awaitParked(gt, &c, 2) {
		t.Fatal("an oversubscribed wait on an unreached counter did not park")
	}
	if gt.budget != spinPolls {
		t.Errorf("budget = %d after an oversubscribed wait, want %d: it polled", gt.budget, spinPolls)
	}
}

// A release meant for an earlier wait can land while the goroutine is
// parked in a later one. Its token must only cause a re-check: the
// goroutine stays parked until its own counter is reached.
func TestGateIgnoresStaleRelease(t *testing.T) {
	gt := &gate{wake: make(chan struct{}, 1)}
	var c atomic.Uint64
	var returned atomic.Bool
	done := make(chan struct{})
	go func() {
		gt.park(&c, 1)
		returned.Store(true)
		close(done)
	}()
	for !gt.sleeping.Load() {
		runtime.Gosched()
	}
	gt.release() // c has not advanced
	// The release cleared sleeping: the goroutine either parks again,
	// setting it, or wrongly returns.
	for !gt.sleeping.Load() && !returned.Load() {
		runtime.Gosched()
	}
	if returned.Load() {
		t.Fatal("a stale release let the goroutine leave before its counter was reached")
	}
	c.Store(1)
	gt.release()
	<-done
}

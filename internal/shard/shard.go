// Package shard executes one simulation partitioned across K schedulers
// on K goroutines, synchronized by conservative lookahead windows.
//
// The protocol is Chandy–Misra conservative synchronization specialized
// to a static topology with a known minimum cross-shard propagation
// delay L (the lookahead): inside a window [W, W+L) every shard runs
// independently, because no event another shard executes in that window
// can affect it before W+L — all cross-shard causality travels over
// links whose propagation delay is at least L. Cross-shard deliveries
// generated inside the window are buffered in per-(src,dst) outboxes and
// injected into the destination schedulers at the barrier, before the
// next window opens. No null messages are needed: the barrier itself is
// the global synchronization.
//
// Windows jump: the next window starts at the earliest pending event
// across all shards, so idle stretches (e.g. before traffic ramps up, or
// between sparse timer pops) cost one barrier, not ⌈gap/L⌉.
//
// Determinism: every event carries a canonical (time, ordinal) key
// (see internal/sim lane.go). Crossings are stamped by the source link's
// lane before they leave the shard and injected under that ordinal, so
// each destination scheduler pops the exact event sequence the serial
// scheduler would — sharded results are bit-identical to serial ones,
// for every shard count. This package is the one sanctioned concurrency
// site inside the simulation tier; burstlint's nondeterminism analyzer
// allowlists exactly this package for goroutine launches.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tcpburst/internal/sim"
)

// crossing is one buffered cross-shard event: a callback to run on the
// destination shard at instant at, ordered by the ordinal its source lane
// assigned when the packet left the source shard.
type crossing struct {
	at  sim.Time
	ord uint64
	fn  func(any)
	arg any
}

// Group couples K schedulers into one logically serial simulation.
// Build the topology single-threaded, then call Run once; Cross may only
// be called from event callbacks executing under Run (each source shard
// writes only its own outbox row, so no locking is needed).
type Group struct {
	scheds    []*sim.Scheduler
	lookahead sim.Duration
	out       [][]crossing // outbox rows indexed src*K+dst

	// windows counts the windows Run released; parks counts the barrier
	// waits that gave up polling and parked their goroutine.
	windows uint64
	parks   atomic.Uint64
}

// NewGroup returns a group over the given per-shard schedulers. The
// lookahead must be positive and no larger than the minimum propagation
// delay of any cross-shard link; a violation surfaces as an InjectAt
// panic ("lookahead violated") rather than silent reordering.
func NewGroup(scheds []*sim.Scheduler, lookahead sim.Duration) *Group {
	if len(scheds) == 0 {
		panic("shard: empty scheduler set")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("shard: non-positive lookahead %v", lookahead))
	}
	k := len(scheds)
	return &Group{
		scheds:    scheds,
		lookahead: lookahead,
		out:       make([][]crossing, k*k),
	}
}

// Scheduler returns shard i's scheduler.
func (g *Group) Scheduler(i int) *sim.Scheduler { return g.scheds[i] }

// Shards returns the number of shards.
func (g *Group) Shards() int { return len(g.scheds) }

// Fired returns the total number of events executed across all shards.
func (g *Group) Fired() uint64 {
	var n uint64
	for _, s := range g.scheds {
		n += s.Fired()
	}
	return n
}

// Windows returns the number of synchronization windows Run executed.
func (g *Group) Windows() uint64 { return g.windows }

// Parks returns how many barrier waits fell back to parking. Each window
// has K waits: the K-1 workers wait for it to open and shard 0 waits for
// the workers to finish it.
func (g *Group) Parks() uint64 { return g.parks.Load() }

// Cross buffers a cross-shard delivery: fn(arg) will run on shard dst at
// instant at, under the source-lane ordinal ord. It must be called from
// an event executing on shard src during a window; the event is injected
// at the next barrier. The conservative window guarantees at lies beyond
// the window end, so the destination never sees it arrive in its past.
func (g *Group) Cross(src, dst int, at sim.Time, ord uint64, fn func(any), arg any) {
	row := src*len(g.scheds) + dst
	g.out[row] = append(g.out[row], crossing{at: at, ord: ord, fn: fn, arg: arg})
}

// Drain hands the arg of every crossing still buffered in an outbox to
// visit and empties the outboxes. A Run that stops early leaves the
// crossings of its last window there, never injected; a harness drains
// them to reclaim what they carry.
func (g *Group) Drain(visit func(arg any)) {
	for row, box := range g.out {
		for i := range box {
			visit(box[i].arg)
			box[i] = crossing{}
		}
		g.out[row] = box[:0]
	}
}

// inject drains every outbox into its destination scheduler. Called only
// between windows, when no shard goroutine is running.
func (g *Group) inject() {
	k := len(g.scheds)
	for row, box := range g.out {
		if len(box) == 0 {
			continue
		}
		dst := g.scheds[row%k]
		for i := range box {
			c := &box[i]
			dst.InjectAt(c.at, c.ord, c.fn, c.arg)
			*c = crossing{}
		}
		g.out[row] = box[:0]
	}
}

// next returns the earliest pending event time across all shards.
func (g *Group) next() (sim.Time, bool) {
	var best sim.Time
	any := false
	for _, s := range g.scheds {
		if t, ok := s.NextTime(); ok && (!any || t < best) {
			best, any = t, true
		}
	}
	return best, any
}

// Run executes the simulation to the horizon (inclusive, like
// sim.Scheduler.Run). Shard 0 runs on the calling goroutine — context
// watchdogs and other Stop callers should live there — and shards 1..K-1
// on persistent workers that exist only for the duration of the call.
// A Stop on any shard aborts at the next barrier with sim.ErrStopped.
// On normal return every shard's clock rests at the horizon; crossings
// still in flight past the horizon are abandoned exactly as a serial
// run abandons its undelivered events.
//
// The barrier is two monotone counters: the coordinator (shard 0)
// publishes window w by storing w into epoch, and each worker adds one to
// done when it finishes, so window w is complete at done = w·(K-1). The
// atomics give the happens-before edges that make the window end, outbox
// writes and scheduler state visible across goroutines — the race
// detector checks this in CI. A waiter polls its counter (see await) and
// parks when polling could starve another shard of a core.
func (g *Group) Run(horizon sim.Time) error {
	k := len(g.scheds)
	b := &barrier{
		procs: int64(runtime.GOMAXPROCS(0)),
		gates: make([]gate, k),
		errs:  make([]error, k),
	}
	for i := range b.gates {
		b.gates[i].wake = make(chan struct{}, 1)
		b.gates[i].budget = spinPolls
	}
	inFlight.Add(int64(k))
	defer inFlight.Add(-int64(k))
	var wg sync.WaitGroup
	for i := 1; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.work(g, i)
		}()
	}
	defer func() {
		// Release the workers, whether Run returns or panics between
		// windows.
		b.stop.Store(true)
		b.epoch.Add(1)
		for i := 1; i < k; i++ {
			b.gates[i].release()
		}
		wg.Wait()
	}()

	for {
		g.inject()
		start, ok := g.next()
		if !ok || start > horizon {
			break
		}
		// The window is [start, end) exclusive; Run's horizon is
		// inclusive, hence end-1. Events exactly at the simulation
		// horizon fire in the final window, where end = horizon+1.
		end := start.Add(g.lookahead)
		if end > horizon+1 || end < start {
			end = horizon + 1
		}
		g.windows++
		b.end = end
		b.epoch.Store(g.windows)
		for i := 1; i < k; i++ {
			b.gates[i].release()
		}
		err := g.scheds[0].Run(end - 1)
		if b.gates[0].await(&b.done, g.windows*uint64(k-1), b.procs) {
			g.parks.Add(1)
		}
		for _, e := range b.errs[1:] {
			if err == nil {
				err = e
			}
		}
		if err != nil {
			return err
		}
	}

	// No events remain at or before the horizon; land every clock on it.
	for _, s := range g.scheds {
		if err := s.Run(horizon); err != nil {
			return err
		}
	}
	return nil
}

// inFlight counts the shard goroutines of every Group.Run in the process,
// parked or not (a sweep with -jobs J and -shards K runs J groups at
// once). While it fits GOMAXPROCS every one of them can hold a core, so a
// polling waiter takes a core from no one. Past that, waiters park at
// once: a group that polls with some of its goroutines parked keeps the
// cores from the goroutines it has just woken.
var inFlight atomic.Int64

const (
	// spinPolls bounds a barrier wait's polling, about half a
	// millisecond on a current x86-64 core. That covers the imbalance of
	// a typical 2 ms window; a shorter budget parks on most windows and
	// pays the goroutine handoff the polling exists to avoid.
	spinPolls = 1 << 19
	// guardPolls is how often a polling waiter re-checks inFlight, so
	// that a group starting elsewhere makes it park, and the smallest
	// polling budget.
	guardPolls = 1 << 10
	// probeEvery spaces the full-budget waits of a collapsed budget.
	probeEvery = 256
)

// barrier is the state one Run shares between its goroutines. The two
// counters sit on cache lines of their own: the coordinator writes epoch,
// the workers write done.
type barrier struct {
	epoch atomic.Uint64 // windows released
	_     [56]byte
	done  atomic.Uint64 // worker-windows finished
	_     [56]byte

	// end is written by the coordinator before it advances epoch, and
	// read by workers after they observe the advance. stop is atomic
	// because a panic on shard 0 sets it while workers still run.
	end   sim.Time
	stop  atomic.Bool
	procs int64   // GOMAXPROCS when Run started
	gates []gate  // one per shard goroutine; gates[0] is the coordinator's
	errs  []error // errs[i] is worker i's last window result
}

// work is worker i's loop: wait for each window, run it, report it.
func (b *barrier) work(g *Group, i int) {
	sched, k := g.scheds[i], uint64(len(g.scheds))
	var parks uint64
	for w := uint64(1); ; w++ {
		parked := b.gates[i].await(&b.epoch, w, b.procs)
		if b.stop.Load() {
			break
		}
		if parked {
			parks++
		}
		b.errs[i] = sched.Run(b.end - 1)
		if b.done.Add(1) == w*(k-1) {
			b.gates[0].release()
		}
	}
	g.parks.Add(parks)
}

// gate parks and wakes one goroutine. sleeping is set while the goroutine
// is parked or about to park, and wake holds at most one token. A release
// can land after its waiter has moved on, even into a later wait; its
// token then only causes a re-check, because a parked goroutine leaves
// only once its own counter is reached.
type gate struct {
	sleeping atomic.Bool
	wake     chan struct{}
	// budget and waits belong to the gate's goroutine alone: its polls
	// before parking, and its wait count.
	budget int
	waits  uint64
	_      [32]byte // a cache line per gate: neighbors belong to other goroutines
}

// await waits until c reaches target and reports whether it parked. It
// polls while the shard goroutines in flight fit in procs, for up to the
// gate's budget, and parks otherwise or once the budget is spent.
//
// Polling is blind to other processes: when the OS takes the awaited
// shard's core away, every wait fails, and at a full budget each would
// burn half a millisecond. So a wait that polls in vain halves the budget
// (down to guardPolls) and one that succeeds doubles it (up to
// spinPolls). Every probeEvery-th wait polls with the full budget, so
// that a budget collapsed by a passing disturbance recovers.
func (gt *gate) await(c *atomic.Uint64, target uint64, procs int64) bool {
	budget := gt.budget
	if gt.waits++; gt.waits%probeEvery == 0 {
		budget = spinPolls
	}
	for i := 0; c.Load() < target; i++ {
		if i%guardPolls != 0 {
			continue
		}
		if i >= budget {
			gt.budget = max(gt.budget/2, guardPolls)
		} else if inFlight.Load() <= procs {
			continue
		}
		gt.park(c, target)
		return true
	}
	gt.budget = min(2*budget, spinPolls)
	return false
}

func (gt *gate) park(c *atomic.Uint64, target uint64) {
	// Sequentially consistent atomics: either a load of c sees the
	// waker's advance, or the waker's release sees sleeping set and
	// leaves a token.
	gt.sleeping.Store(true)
	for c.Load() < target {
		<-gt.wake
		gt.sleeping.Store(true)
	}
	gt.sleeping.Store(false)
}

// release wakes the gate's goroutine if it is parked. Call it after
// advancing the counter the goroutine waits on.
func (gt *gate) release() {
	if gt.sleeping.Swap(false) {
		select {
		case gt.wake <- struct{}{}:
		default: // a token is already buffered; it wakes the waiter
		}
	}
}

package core

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"

	"tcpburst/internal/node"
	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/tcp"
	"tcpburst/internal/traffic"
	"tcpburst/internal/transport"
)

// arena is the run-scoped storage of the packet engine: the blocks
// buildTopology lays the network out in, the rings that grow inside them
// as traffic arrives, the schedulers and packet pools, and collect's
// scratch. A sweep runs many short networks one after another on each
// runner worker, so RunContext takes an idle arena (takeArena) and hands
// it back once the run is released (idleArena); the next run starts from
// the capacity the earlier ones reached instead of allocating it again. A
// new arena is simply empty, so a run on a fresh one and a run on a
// reused one take the same code path.
//
// Reuse is safe because every piece is initialized in place by its own
// initializer, which keeps only capacity: client j of the next run is
// built into client j's slot, and inherits its train, pipeline, queue and
// segment rings and its sink's delay chunks, emptied, but nothing they
// held; the server hosts and gateways keep their dispatch and routing
// tables, cleared. release empties the arena before it goes back: every
// packet still in flight goes back to a pool, every scheduler is reset,
// which clears every pending callback and advances every slot's
// generation, and every link slot is recycled, dropping whatever could
// still reach a packet, so an idle arena keeps no packet of the run alive
// but those its pools hold for reuse. Ring capacity never decides an
// outcome, so the arena leaves every digest unchanged
// (TestArenaReuseMatchesFreshRun).
//
// The fluid backend builds no network and takes no arena.
type arena struct {
	scheds   []*sim.Scheduler
	pools    []*packet.Pool
	hosts    []node.Host
	gateways []node.Gateway
	fixed    []linkSlot
	clients  []client
	flows    []*flow
	sinks    []tcp.Sink
	udpSends []transport.UDPSender
	udpSinks []transport.UDPSink
	poisson  []traffic.Poisson
	pareto   []traffic.ParetoOnOff
	// queueSamples holds the queue probe's samples; delays is the merged
	// delay samples' scratch.
	queueSamples []float64
	delays       []float64
	// idleAt is the count of completed garbage collections when the
	// arena last went idle.
	idleAt uint64
}

// idle holds the arenas no run is using, the most recently released last.
// A run takes the last one, whatever processor it runs on. A sync.Pool
// would not do: it keeps a released object in its processor's private
// slot, out of reach of a run on another processor, which then builds a
// second arena beside the idle one (a flows-50k run on two cores doubled
// its peak RSS that way). Like a sync.Pool, though, idle empties across
// garbage collections, so the arenas of a finished sweep do not outlive
// it for long: a collection drops the arenas that have been idle through
// idleCycles collections (ageIdle).
var idle struct {
	sync.Mutex
	arenas []*arena
}

// idleCycles is the collection, counted from the first to complete after
// an arena went idle, that drops it. Two would not do: a collection
// already under way when the arena is released completes after it, so an
// arena idle through one whole collection, such as a benchmark's forced
// runtime.GC between a warm-up run and the timed ones, would be dropped,
// and the next run would build a new one.
const idleCycles = 3

// takeArena returns the most recently released idle arena, or a new one.
func takeArena() *arena {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.arenas) - 1
	if n < 0 {
		return new(arena)
	}
	a := idle.arenas[n]
	idle.arenas[n] = nil
	idle.arenas = idle.arenas[:n]
	return a
}

// idleArena makes a, emptied by release, available to the next run.
func idleArena(a *arena) {
	a.idleAt = gcCycles()
	idle.Lock()
	idle.arenas = append(idle.arenas, a)
	idle.Unlock()
}

// gcCycles returns the number of garbage collections completed so far.
func gcCycles() uint64 {
	sample := [1]metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample[:])
	return sample[0].Value.Uint64()
}

// gcTick is a heap object whose finalizer runs after every garbage
// collection: each run re-arms it, and it is unreachable again by the
// next one. Its pointer field keeps it out of the tiny allocator, whose
// objects may never be finalized.
type gcTick struct{ _ *byte }

func init() { runtime.SetFinalizer(new(gcTick), ageIdle) }

// ageIdle runs after each garbage collection and drops the arenas that
// have been idle through idleCycles collections.
func ageIdle(t *gcTick) {
	dropAged(gcCycles())
	runtime.SetFinalizer(t, ageIdle)
}

// dropAged drops the idle arenas that went idle idleCycles or more
// collections before the count now.
func dropAged(now uint64) {
	idle.Lock()
	idle.arenas = slices.DeleteFunc(idle.arenas, func(a *arena) bool { return now-a.idleAt >= idleCycles })
	idle.Unlock()
}

// take returns the first n entries of *s, growing *s to n entries when it
// is shorter. *s keeps the longest length any run asked for, so entry j
// carries what entry j held in every earlier run that reached it.
func take[T any](s *[]T, n int) []T {
	if n > len(*s) {
		*s = slices.Grow(*s, n-len(*s))[:n]
	}
	return (*s)[:n]
}

// schedulers returns k schedulers, each as NewScheduler leaves it:
// release resets the ones it hands back.
func (a *arena) schedulers(k int) []*sim.Scheduler {
	scheds := take(&a.scheds, k)
	for s := range scheds {
		if scheds[s] == nil {
			scheds[s] = sim.NewScheduler()
		}
	}
	return scheds
}

// packetPools returns k packet pools with fresh counters, each keeping
// the free list its earlier runs left. The counters of a released run
// stay readable until the arena's next run takes its pools.
func (a *arena) packetPools(k int) []*packet.Pool {
	pools := take(&a.pools, k)
	for s := range pools {
		if pools[s] == nil {
			pools[s] = packet.NewPool()
		} else {
			pools[s].Reset()
		}
	}
	return pools
}

// sources returns a slab of n traffic sources of the model cfg runs.
func (a *arena) sources(cfg Config, n int) sourceSlab {
	if cfg.Traffic == TrafficParetoOnOff {
		return sourceSlab{pareto: take(&a.pareto, n)}
	}
	return sourceSlab{poisson: take(&a.poisson, n)}
}

package sim

import "fmt"

// Canonical event ordering.
//
// The kernel breaks same-instant ties by a 64-bit ordinal
//
//	ord = laneID<<laneSeqBits | laneSeq
//
// where a Lane is a per-component ordinal stream: each scheduling entity
// that can produce causally interacting same-time events (in this
// simulator, the links — the only components whose events cross between
// shards) owns a lane, allocated in deterministic topology-build order,
// and draws strictly increasing sequence numbers from it.
//
// This replaces the previous global schedule-order tie-break. A global
// counter's values depend on the interleaving of *every* schedule call in
// the run, which a sharded execution cannot reproduce: shard A cannot know
// how many events shard B scheduled first. Lane ordinals are computable
// locally — a lane lives on exactly one shard, its events are scheduled in
// the same relative order serially and sharded, and ties across lanes
// resolve by laneID, fixed at build time. That is what makes sharded runs
// bit-identical to serial ones (see DESIGN.md §11 for the full argument).
//
// Every scheduler also owns a default lane (the reserved top laneID) for
// At/After/AtCall/AfterCall: timers, traffic sources, samplers, probes. Those
// events never interact across shards at equal timestamps — all cross-shard
// causality flows through link propagation — so a per-scheduler stream
// preserves their relative order wherever it can be observed.
const (
	// laneSeqBits is the width of the per-lane sequence counter: 2^40
	// events per lane, far beyond any run (the previous global counter had
	// the same width for the whole simulation).
	laneSeqBits = 40
	// defaultLaneID is the reserved per-scheduler lane for unlaned events.
	// It is the maximum id, so unlaned events sort after laned ones at the
	// same instant — an arbitrary but fixed convention.
	defaultLaneID = 1<<(64-laneSeqBits) - 1
)

// Lane is one ordinal stream of the canonical event order. The zero value
// is not usable; obtain lanes from a Lanes allocator (or rely on a
// scheduler's internal default lane by passing a nil lane to a Train).
type Lane struct {
	next  uint64 // next ordinal: laneID<<laneSeqBits | seq
	limit uint64 // first ordinal of the successor lane
}

// Take returns the lane's next ordinal. Callers use it to stamp an event
// before handing it to another shard's scheduler (InjectAt); a Train
// draws from its lane implicitly.
func (l *Lane) Take() uint64 {
	if l.next == l.limit {
		panic("sim: lane sequence exhausted")
	}
	o := l.next
	l.next++
	return o
}

// ID returns the lane's identifier (its position in allocation order).
func (l *Lane) ID() uint64 { return l.next >> laneSeqBits }

// newLane returns the lane with the given id.
func newLane(id uint64) Lane {
	return Lane{next: id << laneSeqBits, limit: (id + 1) << laneSeqBits}
}

// Lanes allocates lanes with consecutive ids. Build the topology through
// one allocator in a deterministic order: the assignment of ids to
// components is part of the simulation's canonical order, so serial and
// sharded builds must perform identical allocation sequences.
type Lanes struct {
	n uint64
}

// NewLanes returns an empty allocator.
func NewLanes() *Lanes { return &Lanes{} }

// Next allocates the next lane.
func (ls *Lanes) Next() *Lane {
	l := new(Lane)
	ls.NextInto(l)
	return l
}

// NextInto allocates the next lane into caller-owned storage; it draws
// the same id Next would.
func (ls *Lanes) NextInto(l *Lane) {
	if ls.n >= defaultLaneID {
		panic(fmt.Sprintf("sim: lane ids exhausted (%d lanes)", ls.n))
	}
	*l = newLane(ls.n)
	ls.n++
}

// Allocated returns the number of lanes handed out.
func (ls *Lanes) Allocated() int { return int(ls.n) }

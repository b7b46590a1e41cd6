package sim

import (
	"errors"
	"fmt"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the horizon or event exhaustion was reached.
var ErrStopped = errors.New("simulation stopped")

// Handle identifies a scheduled event. It is a value type: copying it is
// free and the zero Handle refers to no event. A Handle stays valid until
// the event fires or is canceled; after that it goes stale and every
// operation on it is a harmless no-op (the generation counter inside the
// handle detects reuse of the underlying slot).
type Handle struct {
	slot uint32 // slot index + 1; 0 means "no event"
	gen  uint32
}

// IsZero reports whether the handle refers to no event at all (as opposed
// to one that fired or was canceled — see Scheduler.Active for that).
func (h Handle) IsZero() bool { return h.slot == 0 }

// The event queue is split in two by deadline. Events inside the wheel
// window — a span of wheelBuckets equal-width time buckets starting at
// wheelBase — go into the timing wheel: insertion is a bucket index
// computation plus a sorted splice into a (nearly always empty or
// one-element) chain, and popping is an array scan to the next nonempty
// bucket. Events beyond the window — retransmission-style timers, mostly —
// go into a 4-ary min-heap and either get canceled there or migrate into
// the wheel when the window advances past them. Both structures order
// events by (time, ord); ord is unique (see lane.go), so the pop order is
// a total order and identical to a single global priority queue: the split
// is invisible to simulation results.
//
// The bucket width adapts between advances: when a window saw more pops
// than buckets the width halves, when it saw almost none it doubles. The
// wheel is always empty at that moment, so retuning is free.

const (
	wheelBuckets = 1024
	// initShift starts buckets at 16.4µs (window ≈ 16.8ms).
	initShift = 14
	// minShift/maxShift bound adaptation: 64ns to 4.2ms buckets.
	minShift = 6
	maxShift = 22
)

// keyBefore reports whether event key (t1, o1) precedes (t2, o2): the
// kernel's one event order, used by the wheel chains, the far heap, the
// wheel-or-heap pop and a train's inline chaining alike. It is written as
// straight boolean arithmetic — no short-circuiting — so the compiler
// lowers it to flag materialization instead of branches; the outcome is
// data-dependent and unpredictable, and sift loops run one comparison per
// child, so avoiding mispredicts here is worth more than skipping an ALU
// op.
func keyBefore(t1 Time, o1 uint64, t2 Time, o2 uint64) bool {
	lt := t1 < t2
	tie := t1 == t2 && o1 < o2
	return lt || tie
}

// heapNode is one entry of the far-future event min-heap, ordered by
// (time, ord). Nodes are plain values — no pointers, no interface
// boxing — so sift operations are plain memory moves and the heap slice
// never needs per-element clearing. The ordinal occupies a full word (its
// high bits are the lane id, which must survive intact for cross-lane
// ties), so the slot index rides in its own field rather than packing.
type heapNode struct {
	time Time
	ord  uint64
	slot int32
}

// eventSlot holds one scheduled event, fn(arg), in the scheduler's slot
// arena (56 bytes). pos encodes where the event lives: >= 0 is its index
// in the far heap (maintained by every sift so Cancel can delete in
// place), <= -2 means wheel bucket -2-pos (chained through next, sorted by
// (time, ord)). Freed slots are chained through next and recycled by
// later schedules; gen increments on every free so stale handles miss.
type eventSlot struct {
	fn   func(any)
	arg  any
	time Time
	ord  uint64
	gen  uint32
	pos  int32
	next int32
}

// Scheduler is the discrete-event simulation kernel. It is not safe for
// concurrent use: simulations are single-threaded by design so that results
// are bit-for-bit reproducible. Sharded runs use one Scheduler per shard,
// synchronized externally at window barriers (internal/shard), with
// cross-shard events entering through InjectAt.
//
// The kernel is allocation-free in steady state: events live in a slot
// arena recycled through a free list, near events in a timing wheel, far
// events in an inline position-indexed min-heap of plain values. Every
// event is one form, fn(arg). Callers that schedule the same callback
// repeatedly file it as (fn, receiver) through AtCall/AfterCall, with fn a
// package-level trampoline such as func(a any) { a.(*T).fire() }: a
// method value or fresh closure would be heap-allocated per call, and a
// prebound one per object. At/After file a func() as (callFunc, fn).
type Scheduler struct {
	now      Time
	defLane  Lane
	slots    []eventSlot
	freeHead int32 // first free slot index, -1 when none
	stopped  bool

	// Timing wheel for events inside [wheelBase, wheelBase+span).
	wheel      []int32 // head slot index per bucket, -1 empty
	wheelBase  Time
	shift      uint  // bucket width = 1<<shift nanoseconds
	wheelCount int   // events currently in the wheel
	windowPops int   // wheel pops since the last window advance
	minBucket  int32 // lower bound on the first nonempty bucket

	// Far-future overflow heap.
	heap []heapNode

	// Fired counts events that have executed; useful for progress metrics.
	fired uint64
	// scheduled counts slot filings (wheel inserts + heap pushes at
	// schedule time). It is pure run telemetry — the burst-batching
	// benchmarks report scheduled/packet to show the amortization — and
	// never feeds back into simulation behavior.
	scheduled uint64
	// horizon is the bound of the Run in progress (TimeMax under RunAll,
	// zero before the first Run). Trains consult it so inline burst
	// chaining never executes an event a per-event Run would have left
	// beyond the horizon.
	horizon Time
}

// NewScheduler returns a kernel with the clock at TimeZero.
func NewScheduler() *Scheduler {
	s := &Scheduler{wheel: make([]int32, wheelBuckets)}
	s.Reset()
	return s
}

// Reset returns s to the state NewScheduler leaves it in, dropping every
// pending event, but keeps its slot arena and far heap: a run harness that
// reuses one scheduler for many runs grows them once, to the largest run's
// high-water mark, instead of once per run. Reuse is safe because nothing
// of the earlier run survives in them. Every slot goes back on the free
// list with its callback and argument cleared, so the scheduler keeps no
// packet or receiver of that run alive, and with its generation advanced,
// so a Handle from before the reset never reads as Active, even once its
// slot is filled again. The free list hands slots out in index order, as
// a new arena would; slot indices never decide the event order anyway.
func (s *Scheduler) Reset() {
	free := int32(-1)
	for i := len(s.slots) - 1; i >= 0; i-- {
		s.slots[i] = eventSlot{gen: s.slots[i].gen + 1, next: free}
		free = int32(i)
	}
	for i := range s.wheel {
		s.wheel[i] = -1
	}
	*s = Scheduler{
		defLane:  newLane(defaultLaneID),
		slots:    s.slots,
		freeHead: free,
		wheel:    s.wheel,
		shift:    initShift,
		heap:     s.heap[:0],
	}
}

// EachPending calls visit with the argument of every pending event, in
// no particular order. A run harness calls it once a run is over, to
// reclaim what the events would have carried; visit must not schedule or
// cancel events.
func (s *Scheduler) EachPending(visit func(arg any)) {
	for _, head := range s.wheel {
		for i := head; i >= 0; i = s.slots[i].next {
			visit(s.slots[i].arg)
		}
	}
	for _, h := range s.heap {
		visit(s.slots[h.slot].arg)
	}
}

// span returns the width of the wheel window.
func (s *Scheduler) span() Time { return Time(wheelBuckets) << s.shift }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of scheduled, uncanceled events in O(1).
func (s *Scheduler) Pending() int { return s.wheelCount + len(s.heap) }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// ScheduledOps returns the number of event filings performed so far —
// the kernel-op measure the batching benchmarks amortize.
func (s *Scheduler) ScheduledOps() uint64 { return s.scheduled }

// CreditFired accounts one elided event. An optimization that can prove a
// would-be event's entire effect and absorb it into another event — the
// link layer's serialization pipelining absorbs each serialize-done event
// into the packet's delivery — calls this once per elision so Fired(), and
// the digest-visible SimEvents built from it, counts exactly the events
// the per-event execution would have fired. See DESIGN.md §12 for the
// equivalence argument.
func (s *Scheduler) CreditFired() { s.fired++ }

// callFunc is the trampoline a plain func() event is filed under. A func
// value is pointer-shaped, so boxing it in the slot's arg allocates
// nothing.
func callFunc(a any) { a.(func())() }

// At schedules fn to run at instant t on the scheduler's default lane.
// Scheduling in the past is a programming error and returns the zero
// Handle without scheduling.
func (s *Scheduler) At(t Time, fn func()) Handle {
	if fn == nil {
		return Handle{}
	}
	return s.AtCall(t, callFunc, fn)
}

// After schedules fn to run d after the current instant. Negative delays
// clamp to zero (fire "now", after already-queued same-time events).
func (s *Scheduler) After(d Duration, fn func()) Handle { return s.At(s.now.Add(max(d, 0)), fn) }

// AtCall schedules fn(arg) at instant t on the scheduler's default lane.
// It is the hot paths' one scheduling idiom: fn is a package-level
// function and arg the receiver or per-event state it acts on, so no
// closure is allocated (storing a pointer in arg does not allocate).
// Components whose same-instant events must order identically in serial
// and sharded runs — the links — file through a Train on their own lane
// instead.
func (s *Scheduler) AtCall(t Time, fn func(any), arg any) Handle {
	if t < s.now || fn == nil {
		return Handle{}
	}
	return s.scheduleOrd(t, s.defLane.Take(), fn, arg)
}

// AfterCall schedules fn(arg) to run d after the current instant.
func (s *Scheduler) AfterCall(d Duration, fn func(any), arg any) Handle {
	return s.AtCall(s.now.Add(max(d, 0)), fn, arg)
}

// InjectAt schedules fn(arg) at instant t under a caller-supplied ordinal.
// It is the cross-shard entry point: the source shard stamps the event
// from its own lane (Lane.Take) inside a synchronization window, and the
// barrier delivers it here after the window closes. The ordinal places the
// event exactly where the serial schedule would have: bit-identity across
// shard counts follows. Injecting into the past panics — it would mean the
// lookahead window was wider than the true minimum cross-shard delay.
func (s *Scheduler) InjectAt(t Time, ord uint64, fn func(any), arg any) Handle {
	if fn == nil {
		return Handle{}
	}
	if t < s.now {
		//burst:alloc-ok panic message formatting on a violated-invariant path that never returns
		panic(fmt.Sprintf("sim: InjectAt(%v) behind clock %v: lookahead violated", t, s.now))
	}
	return s.scheduleOrd(t, ord, fn, arg)
}

// scheduleOrd places fn(arg) in a recycled (or new) slot under key
// (t, ord) and files it. It is the one way an event enters the kernel.
func (s *Scheduler) scheduleOrd(t Time, ord uint64, fn func(any), arg any) Handle {
	var idx int32
	if s.freeHead >= 0 {
		idx = s.freeHead
		s.freeHead = s.slots[idx].next
	} else {
		//burst:alloc-ok slot-arena growth is amortized doubling to the most events ever pending at once; the free list recycles slots within a run and Reset across runs
		s.slots = append(s.slots, eventSlot{})
		idx = int32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.fn = fn
	sl.arg = arg
	sl.time = t
	sl.ord = ord
	s.scheduled++
	s.file(idx)
	return Handle{slot: uint32(idx) + 1, gen: sl.gen}
}

// file puts allocated slot idx into the wheel or the far heap by its
// deadline. Run also uses it to undo popEvent for the one event it finds
// beyond its horizon: the (time, ord) key is unchanged, so the event pops
// in exactly the position it always had.
func (s *Scheduler) file(idx int32) {
	sl := &s.slots[idx]
	if d := sl.time - s.wheelBase; 0 <= d && d < s.span() {
		s.wheelInsert(idx)
	} else {
		s.push(heapNode{time: sl.time, ord: sl.ord, slot: idx})
	}
}

// wheelInsert splices slot idx into its bucket's (time, ord)-sorted chain.
// The caller guarantees the slot's time lies inside the wheel window.
func (s *Scheduler) wheelInsert(idx int32) {
	sl := &s.slots[idx]
	b := int32((sl.time - s.wheelBase) >> s.shift)
	head := s.wheel[b]
	if head < 0 || keyBefore(sl.time, sl.ord, s.slots[head].time, s.slots[head].ord) {
		sl.next = head
		s.wheel[b] = idx
	} else {
		p := head
		for {
			n := s.slots[p].next
			if n < 0 || keyBefore(sl.time, sl.ord, s.slots[n].time, s.slots[n].ord) {
				sl.next = n
				s.slots[p].next = idx
				break
			}
			p = n
		}
	}
	sl.pos = -2 - b
	s.wheelCount++
	if b < s.minBucket {
		s.minBucket = b
	}
}

// Cancel ensures the event behind h will not fire, deleting it in place
// and recycling its slot immediately. Canceling the zero Handle or an
// already fired/canceled event is a no-op. Wheel events unlink from a
// short bucket chain; heap events sift from their recorded position —
// retransmission-style timers (deadline far beyond the wheel window) live
// near the leaves, so their Reset/Stop churn is near O(1). Removal never
// reorders the surviving events: pop order is fully determined by
// (time, ord).
func (s *Scheduler) Cancel(h Handle) {
	if !s.Active(h) {
		return
	}
	idx := int32(h.slot - 1)
	pos := s.slots[idx].pos
	if pos <= -2 {
		s.wheelRemove(idx, -2-pos)
	} else {
		s.removeAt(int(pos))
	}
	s.freeSlot(idx)
}

// wheelRemove unlinks slot idx from bucket b's chain.
func (s *Scheduler) wheelRemove(idx, b int32) {
	next := s.slots[idx].next
	p := s.wheel[b]
	if p == idx {
		s.wheel[b] = next
	} else {
		for s.slots[p].next != idx {
			p = s.slots[p].next
		}
		s.slots[p].next = next
	}
	s.wheelCount--
}

// Active reports whether h refers to an event that is still scheduled:
// a live slot of the handle's generation.
func (s *Scheduler) Active(h Handle) bool {
	return h.slot != 0 && h.slot <= uint32(len(s.slots)) && s.slots[h.slot-1].gen == h.gen
}

// freeSlot recycles a slot: bump the generation so stale handles miss and
// chain it onto the free list. Callback references are deliberately left
// in place — clearing them costs two GC write barriers per event, and
// hot paths schedule package-level trampolines on receivers that outlive
// the scheduler anyway. A freed slot therefore keeps its last fn/arg
// alive until the slot is reused; that is a bounded overhang (one
// callback per arena slot), not a leak.
func (s *Scheduler) freeSlot(idx int32) {
	sl := &s.slots[idx]
	sl.gen++
	sl.next = s.freeHead
	s.freeHead = idx
}

// scanFrom returns the first nonempty bucket at or after the bucket
// holding instant t. The caller guarantees the wheel is nonempty; since
// every pending wheel event is at or after the current time, the scan
// never needs to look behind t. minBucket memoizes the scan: it always
// lower-bounds the first nonempty bucket (inserts below it pull it down,
// window advances reset it), so back-to-back scans — a pop followed by a
// train's peek at the same instant — skip the empty prefix instead of
// rewalking it.
func (s *Scheduler) scanFrom(t Time) int32 {
	b := int32(0)
	if t > s.wheelBase {
		b = int32((t - s.wheelBase) >> s.shift)
	}
	if b < s.minBucket {
		b = s.minBucket
	}
	for s.wheel[b] < 0 {
		b++
	}
	s.minBucket = b
	return b
}

// advance moves the wheel window forward to the earliest far event and
// migrates every heap event inside the new window into the wheel. Called
// only with an empty wheel and a nonempty heap, which is also the free
// moment to retune the bucket width from the finished window's density.
func (s *Scheduler) advance() {
	if s.windowPops > wheelBuckets {
		if s.shift > minShift {
			s.shift--
		}
	} else if s.windowPops < wheelBuckets/8 {
		if s.shift < maxShift {
			s.shift++
		}
	}
	s.windowPops = 0
	s.wheelBase = s.heap[0].time
	s.minBucket = 0
	span := s.span()
	for len(s.heap) > 0 && s.heap[0].time-s.wheelBase < span {
		n := s.pop()
		s.wheelInsert(n.slot)
	}
}

// popEvent removes and returns the globally earliest event's slot index
// and deadline. The wheel minimum is the head of the first nonempty
// bucket; one comparison against the heap root covers the windows where
// a far event slipped under the wheel's earliest (possible when the
// window advanced past the current clock while peeking).
func (s *Scheduler) popEvent() (int32, Time, bool) {
	if s.wheelCount == 0 {
		if len(s.heap) == 0 {
			return 0, 0, false
		}
		s.advance()
	}
	b := s.scanFrom(s.now)
	head := s.wheel[b]
	sl := &s.slots[head]
	if len(s.heap) > 0 {
		top := s.heap[0]
		if keyBefore(top.time, top.ord, sl.time, sl.ord) {
			n := s.pop()
			return n.slot, n.time, true
		}
	}
	s.wheel[b] = sl.next
	s.wheelCount--
	s.windowPops++
	return head, sl.time, true
}

// NextTime returns the deadline of the earliest pending event without
// popping it, and whether any event is pending. The window-barrier
// coordinator uses it to pick the next synchronization window start.
func (s *Scheduler) NextTime() (Time, bool) {
	t, _, ok := s.peekKey()
	return t, ok
}

// peekKey returns the full (time, ord) key of the earliest pending event
// without popping it (and without advancing the wheel window). Trains
// compare it against their buffered head to decide whether the next burst
// element can run inline — i.e. whether any scheduled event would have
// popped first under per-event execution.
func (s *Scheduler) peekKey() (Time, uint64, bool) {
	if s.wheelCount == 0 {
		if len(s.heap) == 0 {
			return 0, 0, false
		}
		return s.heap[0].time, s.heap[0].ord, true
	}
	sl := &s.slots[s.wheel[s.scanFrom(s.now)]]
	t, ord := sl.time, sl.ord
	if len(s.heap) > 0 {
		if top := s.heap[0]; keyBefore(top.time, top.ord, t, ord) {
			t, ord = top.time, top.ord
		}
	}
	return t, ord, true
}

// fire executes the event popped from slot idx: the clock moves to its
// instant t, the slot is recycled before the callback runs (so the
// callback may schedule into it) and the event counts as fired.
func (s *Scheduler) fire(idx int32, t Time) {
	sl := &s.slots[idx]
	s.now = t
	fn, arg := sl.fn, sl.arg
	s.freeSlot(idx)
	s.fired++
	fn(arg)
}

// Step executes the single next event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (s *Scheduler) Step() bool {
	idx, t, ok := s.popEvent()
	if ok {
		s.fire(idx, t)
	}
	return ok
}

// Run executes events until the horizon is passed, the event queue drains,
// or Stop is called. The clock finishes at min(horizon, last event time)
// unless stopped. Events scheduled exactly at the horizon still fire.
//
// The loop pops directly instead of peeking first (NextTime + Step would
// scan the wheel twice per event); the one event found beyond the horizon
// is refiled, paying a single extra insert per Run call instead of a scan
// per event.
func (s *Scheduler) Run(horizon Time) error {
	if horizon < s.now {
		//burst:alloc-ok error construction on the rejected-precondition path, not per event
		return fmt.Errorf("run horizon %v precedes now %v", horizon, s.now)
	}
	s.stopped = false
	s.horizon = horizon
	for {
		if s.stopped {
			return ErrStopped
		}
		idx, t, ok := s.popEvent()
		if !ok {
			break
		}
		if t > horizon {
			s.file(idx)
			s.now = horizon
			return nil
		}
		s.fire(idx, t)
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// RunAll executes events until the queue drains or Stop is called.
func (s *Scheduler) RunAll() error {
	s.stopped = false
	s.horizon = TimeMax
	for s.Step() {
		if s.stopped {
			return ErrStopped
		}
	}
	return nil
}

// Stop halts a Run/RunAll in progress after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// heapArity is the fan-out of the far-event heap. Four keeps siblings on
// one or two cache lines and halves tree depth relative to binary.
const heapArity = 4

// setNode places n at heap index i and records the position in its slot.
func (s *Scheduler) setNode(i int, n heapNode) {
	s.heap[i] = n
	s.slots[n.slot].pos = int32(i)
}

// push appends n and sifts it up, writing the moving node only once at
// its final position instead of swapping at every level.
func (s *Scheduler) push(n heapNode) {
	//burst:alloc-ok far-heap growth is amortized doubling to the most far timers ever pending at once; Reset keeps the heap across runs
	s.heap = append(s.heap, n)
	s.slots[n.slot].pos = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
}

// pop removes and returns the root node, refilling the hole with the tail
// node sifted down from the top.
func (s *Scheduler) pop() heapNode {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if n == 0 {
		return top
	}
	s.setNode(0, last)
	s.siftDown(0)
	return top
}

// removeAt deletes the node at heap index i, restoring the heap property
// around the tail node that takes its place.
func (s *Scheduler) removeAt(i int) {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	s.heap = h[:n]
	if i == n {
		return
	}
	s.setNode(i, last)
	s.siftDown(i)
	if s.heap[i].slot == last.slot {
		s.siftUp(i)
	}
}

// siftUp restores the heap property above index i, holding the moving
// node in a register and writing it once at its final position.
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	node := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !keyBefore(node.time, node.ord, h[parent].time, h[parent].ord) {
			break
		}
		s.setNode(i, h[parent])
		i = parent
	}
	s.setNode(i, node)
}

// siftDown restores the heap property below index i, holding the moving
// node in a register and writing it once at its final position.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	if i >= n {
		return
	}
	node := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		end := c + heapArity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if keyBefore(h[j].time, h[j].ord, h[m].time, h[m].ord) {
				m = j
			}
		}
		if !keyBefore(h[m].time, h[m].ord, node.time, node.ord) {
			break
		}
		s.setNode(i, h[m])
		i = m
	}
	s.setNode(i, node)
}

// Timer is a restartable one-shot timer bound to a scheduler, mirroring the
// retransmission-timer usage pattern in transport protocols: Reset reschedules,
// Stop cancels, and fn(arg) runs at expiry. The timer files its events as
// (timerFire, timer) and calls its owner through a package-level function
// and a receiver, so neither side holds a closure and Reset/Stop cycles are
// allocation-free. Every Reset is a Cancel plus one schedule, so a
// retransmission timer costs two queue operations per ACK.
type Timer struct {
	sched *Scheduler
	h     Handle
	fn    func(any)
	arg   any
}

// NewTimer returns an unarmed timer that runs fn(arg) at expiry.
func NewTimer(sched *Scheduler, fn func(any), arg any) *Timer {
	t := new(Timer)
	t.Init(sched, fn, arg)
	return t
}

// Init makes t an unarmed timer that runs fn(arg) at expiry, in place:
// owners embed their timers and pass themselves as arg.
func (t *Timer) Init(sched *Scheduler, fn func(any), arg any) {
	*t = Timer{sched: sched, fn: fn, arg: arg}
}

// timerFire is the trampoline every timer event is filed under.
func timerFire(a any) { a.(*Timer).fire() }

// Reset (re)arms the timer to fire d from now, replacing any pending
// expiry. A negative d fires at the current instant.
func (t *Timer) Reset(d Duration) {
	if d < 0 {
		d = 0
	}
	t.Stop()
	t.h = t.sched.AtCall(t.sched.now.Add(d), timerFire, t)
}

// Stop cancels any pending expiry. It is safe on an unarmed timer.
func (t *Timer) Stop() {
	if !t.h.IsZero() {
		t.sched.Cancel(t.h)
		t.h = Handle{}
	}
}

// Armed reports whether the timer has a pending expiry.
func (t *Timer) Armed() bool { return t.sched.Active(t.h) }

func (t *Timer) fire() {
	t.h = Handle{}
	t.fn(t.arg)
}

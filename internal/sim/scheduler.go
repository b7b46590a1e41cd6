package sim

import (
	"errors"
	"fmt"
	"math/bits"
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

// The event queue has two levels by deadline. Events inside the wheel
// window — [wheelBase, wheelBase+wheelLen), at most wheelBuckets
// equal-width time buckets — go into the timing wheel: insertion is a
// bucket index computation plus a sorted splice into a (nearly always
// empty or one-element) chain, and popping is an array scan to the next
// nonempty bucket. Events beyond the window — retransmission-style
// timers, mostly — go into the far ring (ring below): filing is a bucket
// index computation and a push onto an unsorted doubly linked chain,
// canceling is an unlink, and when the wheel runs dry the window moves to
// the ring's earliest event and takes over the chains it covers.
// Every event the ring holds lies at or beyond the window's end, so the
// wheel's first event is always the earliest pending one, and both
// levels order events by (time, ord); ord is unique (see lane.go), so the
// pop order is a total order and identical to a single global priority
// queue: the split is invisible to simulation results.
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

// The far ring is a hashed hierarchical timing wheel (Varghese and Lauck,
// SOSP 1987) of ringLevels levels with ringBuckets buckets each, indexed
// by absolute time: level j's buckets are 1<<levelShift(j) nanoseconds
// wide, so one rotation of level j is one bucket of level j+1, and the
// finest level's rotation (8.6 s) outspans the widest wheel window
// (4.3 s). An event is filed in the finest level whose current rotation —
// the one holding wheelBase — also holds its deadline; 23 + 4·10 = 63
// bits, so the coarsest level holds every instant there is. Within a
// level, bucket order is deadline order, so the first set bit of its
// occupancy bitmap is its earliest bucket. When a coarser level's first
// bucket starts no later than the finest level's, the window moves to
// that bucket's start and its chain is refiled, one level finer or more
// (a cascade); an event pays one cascade per level it skips, and only if
// it is still pending when the window reaches it.
const (
	ringBits    = 10
	ringBuckets = 1 << ringBits
	ringShift   = 23 // finest ring bucket: 8.4 ms
	ringLevels  = 4
	ringWidth   = Time(1) << ringShift
)

// levelShift returns the log2 width of level j's buckets, which is also
// the log2 span of one rotation of level j-1.
func levelShift(j int) uint { return ringShift + uint(j)*ringBits }

// rotationStart returns the start of the rotation of level j holding t.
func rotationStart(t Time, j int) Time {
	r := levelShift(j + 1)
	return t >> r << r
}

// ring is one level of the far ring. Bucket b holds, in an unsorted chain
// linked through the slots' next and prev, the events whose deadline
// falls in bucket b of the level's current rotation; its bit in bits is
// set exactly when the chain is nonempty, and head[b] means something
// only then.
type ring struct {
	head [ringBuckets]int32
	bits [ringBuckets / 64]uint64
	n    int // events filed in this level
}

// next returns the first nonempty bucket at or after b, or ringBuckets.
func (r *ring) next(b int) int {
	w := b >> 6
	if w >= len(r.bits) {
		return ringBuckets
	}
	if m := r.bits[w] >> (b & 63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	for w++; w < len(r.bits); w++ {
		if r.bits[w] != 0 {
			return w<<6 + bits.TrailingZeros64(r.bits[w])
		}
	}
	return ringBuckets
}

// keyBefore reports whether event key (t1, o1) precedes (t2, o2): the
// kernel's one event order, used by the wheel chains, the ring's minimum
// and a train's inline chaining alike. It is written as straight boolean
// arithmetic — no short-circuiting — so the compiler lowers it to flag
// materialization instead of branches; the outcome is data-dependent and
// unpredictable, so avoiding mispredicts here is worth more than skipping
// an ALU op.
func keyBefore(t1 Time, o1 uint64, t2 Time, o2 uint64) bool {
	lt := t1 < t2
	tie := t1 == t2 && o1 < o2
	return lt || tie
}

// eventSlot holds one scheduled event, fn(arg), in the scheduler's slot
// arena (56 bytes). pos encodes where the event lives: <= -2 means wheel
// bucket -2-pos (chained through next, sorted by (time, ord)), >= 0 means
// ring level pos>>ringBits, bucket pos&(ringBuckets-1) (chained through
// next and prev, unsorted, so Cancel unlinks in O(1)). Freed slots are
// chained through next and recycled by later schedules; gen increments on
// every free so stale handles miss.
type eventSlot struct {
	fn   func(any)
	arg  any
	time Time
	ord  uint64
	gen  uint32
	pos  int32
	next int32
	prev int32
}

// Scheduler is the discrete-event simulation kernel. It is not safe for
// concurrent use: simulations are single-threaded by design so that results
// are bit-for-bit reproducible. Sharded runs use one Scheduler per shard,
// synchronized externally at window barriers (internal/shard), with
// cross-shard events entering through InjectAt.
//
// The kernel is allocation-free in steady state: events live in a slot
// arena recycled through a free list, near events in a timing wheel, far
// events in the bucket chains of a fixed-size ring. Every
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

	// Timing wheel for events inside [wheelBase, wheelBase+wheelLen).
	// wheelBase is also the ring's reference: it never passes the clock
	// or a ring event.
	wheel      []int32 // head slot index per bucket, -1 empty
	wheelBase  Time
	wheelLen   Time  // window length: span(), cut at the end of the finest ring rotation
	shift      uint  // bucket width = 1<<shift nanoseconds
	wheelCount int   // events currently in the wheel
	windowPops int   // wheel pops since the last window advance
	minBucket  int32 // lower bound on the first nonempty bucket

	// Far ring for events at or beyond the window's end.
	rings     *[ringLevels]ring
	ringCount int // events in the ring, all levels

	// Fired counts events that have executed; useful for progress metrics.
	fired uint64
	// scheduled counts slot filings (wheel or ring inserts at schedule
	// time). It is pure run telemetry — the burst-batching
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
	s := &Scheduler{wheel: make([]int32, wheelBuckets), rings: new([ringLevels]ring)}
	s.Reset()
	return s
}

// Reset returns s to the state NewScheduler leaves it in, dropping every
// pending event, but keeps its slot arena, wheel and ring: a run harness that
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
	for j := range s.rings {
		s.rings[j].bits = [ringBuckets / 64]uint64{}
		s.rings[j].n = 0
	}
	*s = Scheduler{
		defLane:  newLane(defaultLaneID),
		slots:    s.slots,
		freeHead: free,
		wheel:    s.wheel,
		wheelLen: Time(wheelBuckets) << initShift,
		shift:    initShift,
		rings:    s.rings,
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
	for j := range s.rings {
		r := &s.rings[j]
		for b := r.next(0); b < ringBuckets; b = r.next(b + 1) {
			for i := r.head[b]; i >= 0; i = s.slots[i].next {
				visit(s.slots[i].arg)
			}
		}
	}
}

// span returns the width of the wheel window.
func (s *Scheduler) span() Time { return Time(wheelBuckets) << s.shift }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending returns the number of scheduled, uncanceled events in O(1).
func (s *Scheduler) Pending() int { return s.wheelCount + s.ringCount }

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

// file puts allocated slot idx into the wheel or the ring by its
// deadline, which is never behind the clock and so never behind
// wheelBase.
func (s *Scheduler) file(idx int32) {
	if s.slots[idx].time-s.wheelBase < s.wheelLen {
		s.wheelInsert(idx)
	} else {
		s.ringInsert(idx)
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
// short bucket chain, ring events from their doubly linked one in O(1),
// so the Reset/Stop churn of retransmission-style timers is a few stores.
// Removal never reorders the surviving events: pop order is fully
// determined by (time, ord).
func (s *Scheduler) Cancel(h Handle) {
	if !s.Active(h) {
		return
	}
	idx := int32(h.slot - 1)
	pos := s.slots[idx].pos
	if pos <= -2 {
		s.wheelRemove(idx, -2-pos)
	} else {
		s.ringRemove(idx)
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

// ringInsert files slot idx, whose deadline lies at or beyond the wheel
// window's end, at the head of its ring bucket's chain. Its level is the
// finest whose current rotation holds the deadline: counting ringBits-wide
// groups of bits from ringShift up, the group that holds the highest bit
// in which deadline and wheelBase differ (0 when they differ only below).
func (s *Scheduler) ringInsert(idx int32) {
	sl := &s.slots[idx]
	j := (bits.Len64(uint64(sl.time^s.wheelBase)>>ringShift) - 1) / ringBits
	r := &s.rings[j]
	b := int32(sl.time>>levelShift(j)) & (ringBuckets - 1)
	w, m := b>>6, uint64(1)<<(b&63)
	sl.prev = -1
	if r.bits[w]&m == 0 {
		r.bits[w] |= m
		sl.next = -1
	} else {
		sl.next = r.head[b]
		s.slots[sl.next].prev = idx
	}
	r.head[b] = idx
	sl.pos = int32(j)<<ringBits | b
	r.n++
	s.ringCount++
}

// ringRemove unlinks slot idx from its ring bucket's chain.
func (s *Scheduler) ringRemove(idx int32) {
	sl := &s.slots[idx]
	r := &s.rings[sl.pos>>ringBits]
	b := sl.pos & (ringBuckets - 1)
	switch {
	case sl.prev >= 0:
		s.slots[sl.prev].next = sl.next
	case sl.next >= 0:
		r.head[b] = sl.next
	default:
		r.bits[b>>6] &^= 1 << (b & 63)
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	}
	r.n--
	s.ringCount--
}

// firstBucket returns the first nonempty bucket of ring level j, which
// holds the level's earliest event, and the instant it starts at. Every
// event of the level lies in wheelBase's rotation of it and not behind
// wheelBase, so the search starts at wheelBase's bucket. The caller
// guarantees the level is nonempty.
func (s *Scheduler) firstBucket(j int) (int, Time) {
	sh := levelShift(j)
	b := s.rings[j].next(int(s.wheelBase>>sh) & (ringBuckets - 1))
	return b, rotationStart(s.wheelBase, j) | Time(b)<<sh
}

// ringFirst returns the ring level and bucket whose time range starts
// first, and that start. A coarser bucket wins a tie: it may hold events
// earlier than anything in the finer one. The caller guarantees the ring
// is nonempty.
func (s *Scheduler) ringFirst() (level, bucket int, start Time) {
	start = TimeMax
	for j := range s.rings {
		if s.rings[j].n == 0 {
			continue
		}
		if b, t := s.firstBucket(j); t <= start {
			level, bucket, start = j, b, t
		}
	}
	return level, bucket, start
}

// ringMin returns the key of the ring's earliest event without moving
// anything: it scans the levels' first buckets, skipping any that starts
// after the best key so far. The caller guarantees the ring is nonempty.
func (s *Scheduler) ringMin() (Time, uint64) {
	best := int32(-1)
	for j := range s.rings {
		if s.rings[j].n == 0 {
			continue
		}
		b, start := s.firstBucket(j)
		if best >= 0 && start > s.slots[best].time {
			continue
		}
		for i := s.rings[j].head[b]; i >= 0; i = s.slots[i].next {
			if best < 0 || keyBefore(s.slots[i].time, s.slots[i].ord, s.slots[best].time, s.slots[best].ord) {
				best = i
			}
		}
	}
	return s.slots[best].time, s.slots[best].ord
}

// moveChain empties bucket b of ring level j and files every event of
// its chain again: into the wheel, or, for a cascade, into the ring.
func (s *Scheduler) moveChain(j, b int, toWheel bool) {
	r := &s.rings[j]
	r.bits[b>>6] &^= 1 << (b & 63)
	for i := r.head[b]; i >= 0; {
		next := s.slots[i].next
		r.n--
		s.ringCount--
		if toWheel {
			s.wheelInsert(i)
		} else {
			s.ringInsert(i)
		}
		i = next
	}
}

// advance moves the wheel window forward to the ring's earliest event and
// moves every ring event inside the new window into the wheel. Called
// only with an empty wheel and a nonempty ring, which is also the free
// moment to retune the bucket width from the finished window's density.
// If the earliest event lies beyond limit it moves nothing and reports
// false: the window moves only right before that event fires, so
// wheelBase never passes the clock. Whether it is due needs a chain scan
// only when limit falls inside the first bucket.
//
// First, while a coarser level's first bucket starts no later than the
// finest level's, the window moves to its start and its chain is refiled
// (each event lands at least one level finer). Then the finest level's
// first bucket holds the earliest event. The window starts at that event
// and ends one span later or at the end of the finest rotation, whichever
// comes first. The finest level's buckets it covers move into the wheel
// whole, but for the one it ends inside, whose chain is split by deadline
// (the rest of it is walked again at the next advance).
func (s *Scheduler) advance(limit Time) bool {
	j, b, start := s.ringFirst()
	if start > limit {
		return false
	}
	if limit-start < Time(1)<<levelShift(j) {
		if t, _ := s.ringMin(); t > limit {
			return false
		}
	}
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
	for j > 0 {
		s.wheelBase = max(s.wheelBase, start)
		s.moveChain(j, b, false)
		j, b, start = s.ringFirst()
	}
	span := s.span()
	base, _ := s.ringMin()
	const rotation = ringWidth << ringBits
	s.wheelBase = base
	s.wheelLen = min(span, rotation-base&(rotation-1))
	s.minBucket = 0
	r := &s.rings[0]
	for ; b < ringBuckets; b = r.next(b + 1) {
		off := rotationStart(base, 0) | Time(b)<<ringShift - base
		if off >= s.wheelLen {
			break
		}
		if off+ringWidth <= s.wheelLen {
			s.moveChain(0, b, true)
			continue
		}
		for i := r.head[b]; i >= 0; {
			next := s.slots[i].next
			if s.slots[i].time-base < s.wheelLen {
				s.ringRemove(i)
				s.wheelInsert(i)
			}
			i = next
		}
	}
	return true
}

// popEvent removes and returns the earliest pending event's slot index and
// deadline if that deadline is at or before limit; otherwise it changes
// nothing. The wheel's first event is the earliest pending one; an empty
// wheel first takes the window of the ring's earliest event, but only if
// that event is due, so the window never passes the clock.
func (s *Scheduler) popEvent(limit Time) (int32, Time, bool) {
	if s.wheelCount == 0 {
		if s.ringCount == 0 || !s.advance(limit) {
			return 0, 0, false
		}
	}
	b := s.scanFrom(s.now)
	head := s.wheel[b]
	sl := &s.slots[head]
	if sl.time > limit {
		return 0, 0, false
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
	if s.wheelCount > 0 {
		return s.slots[s.wheel[s.scanFrom(s.now)]].time, true
	}
	if s.ringCount == 0 {
		return 0, false
	}
	t, _ := s.ringMin()
	return t, true
}

// pendingBefore reports whether a pending event's key precedes (t, ord),
// an instant not behind the clock, without moving anything. Trains ask it
// before running their next element inline — whether any scheduled event
// would have popped first under per-event execution. With an empty wheel
// an instant inside the window needs no look at the ring, all of whose
// events lie beyond it.
func (s *Scheduler) pendingBefore(t Time, ord uint64) bool {
	if s.wheelCount > 0 {
		sl := &s.slots[s.wheel[s.scanFrom(s.now)]]
		return keyBefore(sl.time, sl.ord, t, ord)
	}
	if s.ringCount == 0 || t-s.wheelBase < s.wheelLen {
		return false
	}
	rt, rord := s.ringMin()
	return keyBefore(rt, rord, t, ord)
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
	idx, t, ok := s.popEvent(TimeMax)
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
// scan the wheel twice per event); popEvent leaves an event beyond the
// horizon where it is.
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
		idx, t, ok := s.popEvent(horizon)
		if !ok {
			break
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

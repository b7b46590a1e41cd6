package sim

// Train coalesces a run of already-ordered future callbacks — the kernel
// image of a burst of back-to-back packets leaving one link — into a single
// scheduled event plus a private ring of follow-on elements. Only the head
// element occupies the scheduler (one wheel/heap op per train instead of one
// per packet); when the head fires, the trampoline chains through successor
// elements inline for as long as per-event execution would have popped them
// next anyway: the element's (time, ordinal) key must precede every pending
// scheduler event, lie within the horizon of the Run in progress, and the
// scheduler must not have been stopped. Each chained element advances the
// clock to its own timestamp and increments the fired counter exactly as a
// popped event would, so event order, Now() as seen by callbacks, and the
// digest-visible executed-event count are bit-identical to per-event
// execution (DESIGN.md §12).
//
// Ordinals are pre-drawn from the train's lane at Add time — the same draw
// per-event scheduling on that lane performs — so the lane's consumption
// sequence, and with it every same-instant tie-break elsewhere in the
// simulation, is untouched by batching.
//
// Trains require keys to be appended in increasing order, which holds by
// construction for link deliveries: serialization completions are monotone
// in time and lane ordinals are monotone by definition.
//
// Each element is delivered as fn(recv, arg): fn is a package-level
// function and recv its owner (a link), so a train holds no closure. An
// eager train (SetEager) files every element as its own scheduler event
// instead of coalescing — the per-event reference the batched schedule is
// pinned against.
type Train struct {
	s    *Scheduler
	lane *Lane
	fn   func(recv, arg any)
	recv any

	buf  []trainElem
	mask int
	head int
	n    int

	// scheduled marks the head element as occupying a scheduler slot.
	// Invariant outside fire: n > 0 ⇒ scheduled, so NextTime and the
	// shard window coordinator always see at least the train's earliest
	// pending delivery.
	scheduled bool
	firing    bool
	eager     bool
}

type trainElem struct {
	at  Time
	ord uint64
	arg any
}

// NewTrain returns an empty train delivering each element's arg as
// fn(recv, arg). A nil lane means the scheduler's default lane.
func NewTrain(s *Scheduler, lane *Lane, fn func(recv, arg any), recv any) *Train {
	tr := new(Train)
	tr.Init(s, lane, fn, recv)
	return tr
}

// Init makes tr an empty coalescing train in place (see NewTrain). A
// train initialized again keeps its ring, emptied (see Recycle), so a
// reused train grows only past the longest burst it has ever held.
func (tr *Train) Init(s *Scheduler, lane *Lane, fn func(recv, arg any), recv any) {
	if fn == nil {
		panic("sim: Train requires a callback")
	}
	if lane == nil {
		lane = &s.defLane
	}
	tr.Recycle()
	tr.s, tr.lane, tr.fn, tr.recv = s, lane, fn, recv
}

// Recycle empties tr down to its ring: every buffered element goes, its
// arg cleared so the train keeps no packet alive, and so do the
// scheduler, lane and receiver, until the next Init. pop clears each
// element's arg as it leaves, so only the buffered ones need clearing,
// and an empty train's ring is not touched at all. A train with a
// pending head event must not fire again: recycle it only once its
// scheduler is reset or discarded.
func (tr *Train) Recycle() {
	for tr.n > 0 {
		tr.pop()
	}
	*tr = Train{buf: tr.buf, mask: tr.mask}
}

// Drain hands the arg of every buffered element to put, in delivery
// order, and empties the train; its pending head event, if any, stays
// filed, so drain a train only once its scheduler's run is over, and
// Recycle it or reset the scheduler before that runs again.
func (tr *Train) Drain(put func(arg any)) {
	for tr.n > 0 {
		put(tr.pop().arg)
	}
}

// SetEager makes the train file every element as its own scheduler event
// (see the type comment). Only call it on an empty train, right after
// Init.
func (tr *Train) SetEager(eager bool) { tr.eager = eager }

// trainFire is the trampoline every train event is filed under.
func trainFire(a any) { a.(*Train).fire() }

// Len returns the number of buffered elements (including the scheduled head).
func (tr *Train) Len() int { return tr.n }

// Add appends a delivery of arg at instant at, drawing the element's
// ordinal from the train's lane. Instants must be non-decreasing across
// calls and never in the past.
func (tr *Train) Add(at Time, arg any) {
	if at < tr.s.now {
		panic("sim: train element scheduled in the past")
	}
	if tr.n > 0 && at < tr.buf[(tr.head+tr.n-1)&tr.mask].at {
		panic("sim: train elements must be appended in time order")
	}
	if tr.n == len(tr.buf) {
		tr.grow()
	}
	ord := tr.lane.Take()
	tr.buf[(tr.head+tr.n)&tr.mask] = trainElem{at: at, ord: ord, arg: arg}
	tr.n++
	if tr.eager {
		tr.s.scheduleOrd(at, ord, trainFire, tr)
		return
	}
	if !tr.scheduled && !tr.firing {
		h := &tr.buf[tr.head]
		tr.s.scheduleOrd(h.at, h.ord, trainFire, tr)
		tr.scheduled = true
	}
}

func (tr *Train) grow() {
	size := len(tr.buf) * 2
	if size == 0 {
		// Most trains belong to lightly loaded access links that rarely
		// hold more than a packet or two, and there is one per link.
		size = 2
	}
	//burst:alloc-ok train-ring growth is amortized doubling to the longest burst the train has ever held; Init keeps the ring, so a run arena grows it once per high-water mark, not once per run
	buf := make([]trainElem, size)
	for i := 0; i < tr.n; i++ {
		buf[i] = tr.buf[(tr.head+i)&tr.mask]
	}
	tr.buf = buf
	tr.mask = size - 1
	tr.head = 0
}

func (tr *Train) pop() trainElem {
	e := tr.buf[tr.head]
	tr.buf[tr.head].arg = nil
	tr.head = (tr.head + 1) & tr.mask
	tr.n--
	return e
}

// fire is the head element's trampoline. The scheduler has already set the
// clock to the head's instant and counted it fired; successors chain inline
// only while per-event execution would have popped them next.
//
// An eager train's events pop in element order (their keys are the
// elements' own), so each one delivers the head and nothing more.
func (tr *Train) fire() {
	if tr.eager {
		tr.fn(tr.recv, tr.pop().arg)
		return
	}
	s := tr.s
	tr.scheduled = false
	tr.firing = true
	e := tr.pop()
	tr.fn(tr.recv, e.arg)
	for tr.n > 0 {
		h := &tr.buf[tr.head]
		if s.stopped || h.at > s.horizon {
			break
		}
		if nt, nord, ok := s.peekKey(); ok && keyBefore(nt, nord, h.at, h.ord) {
			break
		}
		e = tr.pop()
		s.now = e.at
		s.fired++
		tr.fn(tr.recv, e.arg)
	}
	tr.firing = false
	if tr.n > 0 {
		h := &tr.buf[tr.head]
		s.scheduleOrd(h.at, h.ord, trainFire, tr)
		tr.scheduled = true
	}
}

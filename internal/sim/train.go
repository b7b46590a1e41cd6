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
// the unbatched path performs inside schedule — so the lane's consumption
// sequence, and with it every same-instant tie-break elsewhere in the
// simulation, is untouched by batching.
//
// Trains require keys to be appended in increasing order, which holds by
// construction for link deliveries: serialization completions are monotone
// in time and lane ordinals are monotone by definition.
type Train struct {
	s      *Scheduler
	lane   *Lane
	fn     func(any)
	fireFn func()

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
}

type trainElem struct {
	at  Time
	ord uint64
	arg any
}

// NewTrain returns an empty train delivering each element's arg to fn. A
// nil lane means the scheduler's default lane.
func NewTrain(s *Scheduler, lane *Lane, fn func(any)) *Train {
	if fn == nil {
		panic("sim: NewTrain requires a callback")
	}
	if lane == nil {
		lane = &s.defLane
	}
	tr := &Train{s: s, lane: lane, fn: fn}
	tr.fireFn = tr.fire
	return tr
}

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
	tr.buf[(tr.head+tr.n)&tr.mask] = trainElem{at: at, ord: tr.lane.Take(), arg: arg}
	tr.n++
	if !tr.scheduled && !tr.firing {
		h := &tr.buf[tr.head]
		tr.s.scheduleOrd(h.at, h.ord, tr.fireFn, nil, nil)
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
	//burst:alloc-ok train-ring growth is amortized doubling, bounded by the longest coalesced burst
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
func (tr *Train) fire() {
	s := tr.s
	tr.scheduled = false
	tr.firing = true
	e := tr.pop()
	tr.fn(e.arg)
	for tr.n > 0 {
		h := &tr.buf[tr.head]
		if s.stopped || h.at > s.horizon {
			break
		}
		if nt, nord, ok := s.peekKey(); ok && (nt < h.at || (nt == h.at && nord < h.ord)) {
			break
		}
		e = tr.pop()
		s.now = e.at
		s.fired++
		tr.fn(e.arg)
	}
	tr.firing = false
	if tr.n > 0 {
		h := &tr.buf[tr.head]
		s.scheduleOrd(h.at, h.ord, tr.fireFn, nil, nil)
		tr.scheduled = true
	}
}

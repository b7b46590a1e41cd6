package queue

import (
	"fmt"
	"math"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
)

// CoDelConfig parameterizes a Controlled Delay queue (Nichols & Jacobson,
// CACM 2012; RFC 8289).
type CoDelConfig struct {
	// Capacity is the physical buffer limit in packets; arrivals beyond it
	// are tail-dropped regardless of the control law.
	Capacity int
	// Target is the acceptable standing sojourn time (RFC default 5ms).
	Target sim.Duration
	// Interval is the sliding window over which the minimum sojourn must
	// exceed Target before dropping starts (RFC default 100ms, on the
	// order of a worst-case RTT).
	Interval sim.Duration
	// ECN, when true, marks packets (sets ECE) instead of head-dropping
	// them; the control law advances identically either way.
	ECN bool
	// Metrics holds preregistered telemetry handles; zero handles no-op.
	Metrics Metrics
}

// Validate reports the first configuration error, or nil.
func (c CoDelConfig) Validate() error {
	switch {
	case c.Capacity < 1:
		return fmt.Errorf("codel: capacity %d < 1", c.Capacity)
	case c.Target <= 0:
		return fmt.Errorf("codel: target %v <= 0", c.Target)
	case c.Interval <= 0:
		return fmt.Errorf("codel: interval %v <= 0", c.Interval)
	}
	return nil
}

// CoDel is a sojourn-time AQM: it watches how long packets actually wait
// rather than how many are queued, and head-drops at dequeue once the
// minimum sojourn has stayed above Target for a full Interval, with drop
// spacing tightening as interval/sqrt(count) until the delay yields. Unlike
// FIFO and RED it drops from the head and at dequeue time — the link layer
// discovers those losses through the DequeueDropper hook.
type CoDel struct {
	cfg  CoDelConfig
	ring codelRing

	firstAbove sim.Time // when sojourn first stayed above target; TimeZero if not above
	dropNext   sim.Time // scheduled time of the next drop while dropping
	count      int      // drops since entering the current dropping state
	lastCount  int      // count when the previous dropping state ended
	dropping   bool

	earlyDrops  uint64
	forcedDrops uint64
	marks       uint64

	onDeqDrop func(p *packet.Packet)
}

var _ Discipline = (*CoDel)(nil)
var _ DequeueDropper = (*CoDel)(nil)
var _ StatsReporter = (*CoDel)(nil)

// NewCoDel returns a CoDel queue, or an error if the configuration is
// invalid.
func NewCoDel(cfg CoDelConfig) (*CoDel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CoDel{cfg: cfg, ring: newCoDelRing(cfg.Capacity)}, nil
}

// OnDequeueDrop registers the sink for packets CoDel consumes at dequeue
// time (head drops). Passing nil clears the hook.
func (q *CoDel) OnDequeueDrop(fn func(p *packet.Packet)) { q.onDeqDrop = fn }

// Enqueue timestamps and accepts p unless the physical buffer is full;
// CoDel itself never refuses an arrival.
func (q *CoDel) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !q.ring.push(p, now) {
		q.forcedDrops++
		q.cfg.Metrics.ForcedDrops.Inc()
		return false
	}
	return true
}

// Dequeue runs the CoDel control loop: pop the head, and while in the
// dropping state consume heads whose scheduled drop time has arrived,
// tightening the spacing with each drop. Head-dropped packets go to the
// OnDequeueDrop hook; with ECN the head is marked and delivered instead.
func (q *CoDel) Dequeue(now sim.Time) *packet.Packet {
	p, okToDrop := q.doDequeue(now)
	if p == nil {
		q.dropping = false
		return nil
	}
	if q.dropping {
		if !okToDrop {
			// Sojourn dipped below target: leave the dropping state.
			q.dropping = false
			return p
		}
		for q.dropping && !now.Before(q.dropNext) {
			if q.cfg.ECN {
				// Mark in place of the drop and deliver; the control
				// law still advances so marking stays paced.
				q.mark(p)
				q.count++
				q.dropNext = q.controlLaw(q.dropNext)
				return p
			}
			q.dropHead(p)
			q.count++
			p, okToDrop = q.doDequeue(now)
			if p == nil {
				q.dropping = false
				return nil
			}
			if !okToDrop {
				q.dropping = false
				return p
			}
			q.dropNext = q.controlLaw(q.dropNext)
		}
		return p
	}
	if okToDrop {
		// Enter the dropping state. Resume from the previous state's drop
		// rate if we left it recently (the delta heuristic of RFC 8289
		// §4.3), otherwise restart from a single drop per interval.
		delta := q.count - q.lastCount
		q.count = 1
		if delta > 1 && now.Sub(q.dropNext) < 16*q.cfg.Interval {
			q.count = delta
		}
		q.dropping = true
		if q.cfg.ECN {
			q.mark(p)
		} else {
			q.dropHead(p)
			p, _ = q.doDequeue(now)
		}
		q.lastCount = q.count
		q.dropNext = q.controlLaw(now)
	}
	return p
}

// doDequeue pops the head and applies the sojourn test: okToDrop becomes
// true only once the sojourn time has exceeded Target continuously for
// Interval with more than one packet queued behind it.
func (q *CoDel) doDequeue(now sim.Time) (p *packet.Packet, okToDrop bool) {
	p, enqueuedAt := q.ring.pop()
	if p == nil {
		q.firstAbove = sim.TimeZero
		return nil, false
	}
	sojourn := now.Sub(enqueuedAt)
	if sojourn < q.cfg.Target || q.ring.len() == 0 {
		// Below target, or draining the last packet: a standing queue
		// cannot be blamed, so restart the above-target clock.
		q.firstAbove = sim.TimeZero
		return p, false
	}
	if q.firstAbove == sim.TimeZero {
		q.firstAbove = now.Add(q.cfg.Interval)
	} else if !now.Before(q.firstAbove) {
		okToDrop = true
	}
	return p, okToDrop
}

// controlLaw schedules the next drop at interval/sqrt(count) past t.
func (q *CoDel) controlLaw(t sim.Time) sim.Time {
	return t.Add(sim.Duration(float64(q.cfg.Interval) / math.Sqrt(float64(q.count))))
}

func (q *CoDel) dropHead(p *packet.Packet) {
	q.earlyDrops++
	q.cfg.Metrics.EarlyDrops.Inc()
	if q.onDeqDrop != nil {
		q.onDeqDrop(p)
	}
}

func (q *CoDel) mark(p *packet.Packet) {
	p.ECE = true
	q.marks++
	q.cfg.Metrics.Marks.Inc()
}

// Len returns the instantaneous queue length in packets.
func (q *CoDel) Len() int { return q.ring.len() }

// Drain hands every queued packet to put, oldest first, without the
// control law: nothing is dropped or marked.
func (q *CoDel) Drain(put func(p *packet.Packet)) {
	for p, _ := q.ring.pop(); p != nil; p, _ = q.ring.pop() {
		put(p)
	}
}

// Cap returns the physical buffer capacity in packets.
func (q *CoDel) Cap() int { return q.cfg.Capacity }

// Dropping reports whether the control loop is currently in its dropping
// state.
func (q *CoDel) Dropping() bool { return q.dropping }

// DisciplineStats reports CoDel's counters; FinalAvg is 1 while the
// control loop ended a run still in its dropping state, else 0.
func (q *CoDel) DisciplineStats() Stats {
	s := Stats{
		EarlyDrops:  q.earlyDrops,
		ForcedDrops: q.forcedDrops,
		Marks:       q.marks,
	}
	if q.dropping {
		s.FinalAvg = 1
	}
	return s
}

// codelRing is a lazily grown power-of-two ring of (packet, enqueue time)
// pairs — the fifoRing shape, widened so Dequeue can compute sojourn times
// without touching the packet struct.
type codelRing struct {
	buf  []codelEntry
	mask int
	cap  int
	head int
	n    int
}

type codelEntry struct {
	p  *packet.Packet
	at sim.Time
}

func newCoDelRing(capacity int) codelRing {
	if capacity < 1 {
		capacity = 1
	}
	return codelRing{cap: capacity}
}

func (r *codelRing) push(p *packet.Packet, now sim.Time) bool {
	if r.n == r.cap {
		return false
	}
	if r.n == len(r.buf) {
		size := len(r.buf) * 2
		if size == 0 {
			size = 1
			for size < r.cap && size < 16 {
				size <<= 1
			}
		}
		//burst:alloc-ok lazy ring growth doubles toward fixed capacity, then never reallocates
		grown := make([]codelEntry, size)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&r.mask]
		}
		r.buf, r.mask, r.head = grown, size-1, 0
	}
	r.buf[(r.head+r.n)&r.mask] = codelEntry{p: p, at: now}
	r.n++
	return true
}

func (r *codelRing) pop() (*packet.Packet, sim.Time) {
	if r.n == 0 {
		return nil, sim.TimeZero
	}
	e := r.buf[r.head]
	r.head = (r.head + 1) & r.mask
	r.n--
	return e.p, e.at
}

func (r *codelRing) len() int { return r.n }

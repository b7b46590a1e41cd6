// Package link models unidirectional store-and-forward links: packets are
// serialized at the link rate, buffered at the egress by a queueing
// discipline while the link is busy, and delivered after a fixed propagation
// delay. A full-duplex connection is a pair of links.
package link

import (
	"errors"
	"fmt"

	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
)

// Receiver consumes packets delivered by a link.
type Receiver interface {
	Receive(p *packet.Packet)
}

// Wiring is what one link holds of its own: its place in the topology.
type Wiring struct {
	// Name labels the link in traces, e.g. "gw->server".
	Name string
	// Delay is the one-way propagation delay.
	Delay sim.Duration
	// Queue buffers packets while the transmitter is busy. Required.
	Queue queue.Discipline
	// Dst receives packets after serialization plus propagation. Required.
	Dst Receiver
	// Lane, when non-nil, is the link's ordinal stream in the canonical
	// event order: delivery events draw their same-instant tie-break from
	// it instead of the scheduler's default lane. Sharded runs require it —
	// the ordinal is what lets a crossing land in the destination shard's
	// queue exactly where the serial schedule would have put it. A nil
	// Lane falls back to the default lane (fine for standalone links).
	Lane *sim.Lane
	// XDeliver, when non-nil, routes deliveries to another shard: instead
	// of scheduling locally, the link hands the delivery instant, its
	// Lane ordinal, and the packet to this hook, which buffers it for
	// injection into the destination scheduler at the next window barrier.
	// Requires Lane. Serialization, queueing, and drop accounting still
	// happen locally — only the delivery event crosses.
	XDeliver func(at sim.Time, ord uint64, p *packet.Packet)
}

// Params is the part of a link's configuration that links built alike
// share: the rate, the wire-loss settings, the pool, the telemetry
// handles and the debug and pipelining flags, with the scheduler the
// links run on. A builder makes one block with NewParams for every set of
// links built alike and hands each link a pointer to it, so a link holds
// only its Wiring and its own state. Links never write the block.
type Params struct {
	// RateBps is the transmission rate in bits per second.
	RateBps float64
	// LossProb, when positive, drops each serialized packet on the wire
	// with this probability — random (non-congestive) loss such as bit
	// errors on a wireless hop. Requires LossRNG.
	LossProb float64
	// LossRNG supplies the loss coin flips; required iff LossProb > 0.
	// Links sharing a block draw from it in event order.
	LossRNG *sim.RNG
	// Pool, when non-nil, receives packets the link consumes: queue drops
	// (after the OnDrop hook runs) and wire losses. A nil Pool leaves
	// consumed packets to the garbage collector.
	Pool *packet.Pool
	// Metrics holds preregistered telemetry handles the link publishes
	// into on its hot path; the zero value disables publication. The
	// experiment harness attaches handles to the bottleneck link only.
	Metrics Metrics
	// DisableBatching forces one scheduled event per delivery and per
	// serialization (no train coalescing, no serialization pipelining) —
	// the debug escape hatch for bisecting both. Results are
	// bit-identical either way (pinned by the batching equivalence
	// tests); only the scheduler-op count differs.
	DisableBatching bool
	// Overprovisioned declares a builder-verified invariant: the queue
	// capacity exceeds any occupancy the traffic wired into this link can
	// reach, so the discipline never drops. On a loss-free FIFO link with
	// batching enabled, local delivery, a private Lane, and no
	// time-sampled departure telemetry, the guarantee unlocks
	// serialization pipelining — the
	// per-packet serialize-done event is elided and the whole
	// store-and-forward pipeline is computed at admission (see DESIGN.md
	// §12 for why this is exact). The link panics if the guarantee is
	// ever violated, so a wrong declaration fails loudly instead of
	// silently diverging from the per-event schedule.
	Overprovisioned bool

	// sched is the scheduler the links run on; nil until NewParams.
	sched *sim.Scheduler
}

// Config describes one link in full, for callers that build links one at
// a time: New makes it a parameter block of its own.
type Config struct {
	Wiring
	Params
}

// NewParams returns a block holding p for links on sched, or an error
// for an invalid configuration.
func NewParams(sched *sim.Scheduler, p Params) (*Params, error) {
	switch {
	case sched == nil:
		return nil, errors.New("link: nil scheduler")
	case p.RateBps <= 0:
		return nil, fmt.Errorf("link: rate %v <= 0", p.RateBps)
	case p.LossProb < 0 || p.LossProb >= 1:
		return nil, fmt.Errorf("link: loss probability %v outside [0,1)", p.LossProb)
	case p.LossProb > 0 && p.LossRNG == nil:
		return nil, errors.New("link: loss probability without RNG")
	}
	p.sched = sched
	return &p, nil
}

// Metrics bundles the telemetry handles a link publishes when attached.
type Metrics struct {
	// Arrivals, Drops and Departures mirror the Stats counters.
	Arrivals   telemetry.Counter
	Drops      telemetry.Counter
	Departures telemetry.Counter
	// QueueDepth observes the egress queue length after each admitted
	// arrival — the occupancy distribution at enqueue instants.
	QueueDepth telemetry.Histogram
}

// Stats aggregates link counters.
type Stats struct {
	// Arrivals counts packets offered to the link (before any drop).
	Arrivals uint64
	// Drops counts packets rejected by the queueing discipline.
	Drops uint64
	// Departures counts packets fully serialized onto the wire.
	Departures uint64
	// DeliveredBytes counts wire bytes of departed packets.
	DeliveredBytes uint64
	// WireLosses counts packets lost to random (LossProb) wire errors
	// after serialization; they are included in Departures.
	WireLosses uint64
}

// Link is a unidirectional serializing link.
type Link struct {
	// p is the block the link shares with the links built alike; w is
	// its own wiring.
	p *Params
	w Wiring

	busy bool
	// virtual marks serialization pipelining: Send computes each packet's
	// whole store-and-forward pipeline at admission and schedules only its
	// delivery (vSend). The serialize-done event is elided and credited at
	// delivery (CreditFired), so every externally visible outcome matches
	// the per-event schedule exactly.
	virtual bool
	stats   Stats

	// inflight is the packet currently being serialized. Exactly one
	// packet occupies the transmitter at a time, so a single field and the
	// (serializeDone, link) event replace a heap-allocated closure per
	// departure.
	inflight *packet.Packet

	// train carries the deliveries: it coalesces back-to-back ones into
	// one scheduled event, or files each as its own when batching is
	// disabled. Unused when deliveries cross shards. On a pipelined link
	// it is also the record of every packet admitted and not yet
	// delivered: the delay is fixed, so an element's serialization
	// completed at its delivery instant minus the delay.
	train sim.Train
	// vBusyUntil is the pipelined transmitter's last completion instant.
	vBusyUntil sim.Time

	// lastSize/lastDelay memoize the serialization-delay division: a link
	// carries at most a couple of distinct packet sizes (data and ACK),
	// so the float computation almost always short-circuits to a load.
	lastSize  int
	lastDelay sim.Duration

	// onArrival, if set, observes every packet offered to the link before
	// the queue admission decision. The gateway metrics tap hangs here.
	onArrival func(now sim.Time, p *packet.Packet)
	// onDrop, if set, observes every packet the discipline rejects.
	onDrop func(now sim.Time, p *packet.Packet)
}

// New returns a link bound to the scheduler, with a parameter block of
// its own, or an error for an invalid configuration.
func New(sched *sim.Scheduler, cfg Config) (*Link, error) {
	p, err := NewParams(sched, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("link %q: %w", cfg.Name, err)
	}
	l := new(Link)
	if err := Init(l, p, cfg.Wiring); err != nil {
		return nil, err
	}
	return l, nil
}

// Init makes l, in place, the link wired as w running on the shared block
// p, which must come from NewParams; or returns an error for an invalid
// wiring. Builders embed links in larger blocks and initialize them here.
func Init(l *Link, p *Params, w Wiring) error {
	switch {
	case p == nil || p.sched == nil:
		return fmt.Errorf("link %q: parameters not made by NewParams", w.Name)
	case w.Delay < 0:
		return fmt.Errorf("link %q: negative delay %v", w.Name, w.Delay)
	case w.Queue == nil:
		return fmt.Errorf("link %q: nil queue", w.Name)
	case w.Dst == nil:
		return fmt.Errorf("link %q: nil destination", w.Name)
	case w.XDeliver != nil && w.Lane == nil:
		return fmt.Errorf("link %q: cross-shard delivery without a lane", w.Name)
	}
	// A link initialized again keeps its train ring, so the link of a
	// reused block does not regrow it.
	l.train.Recycle()
	*l = Link{p: p, w: w, train: l.train}
	if dd, ok := w.Queue.(queue.DequeueDropper); ok {
		// Disciplines that head-drop inside Dequeue (CoDel) consume packets
		// the Send path never sees rejected; route them through the same
		// drop accounting and pool reclamation an Enqueue rejection gets.
		dd.OnDequeueDrop(func(pkt *packet.Packet) {
			l.stats.Drops++
			l.p.Metrics.Drops.Inc()
			if l.onDrop != nil {
				l.onDrop(l.p.sched.Now(), pkt)
			}
			l.p.Pool.Put(pkt)
		})
	}
	if !p.DisableBatching {
		_, fifo := w.Queue.(*queue.FIFO)
		// Serialization pipelining needs every serialize-done side effect
		// to be provably absorbable: no drops (Overprovisioned FIFO), no
		// wire-loss RNG draw, no cross-shard handoff, no time-sampled
		// departure telemetry whose snapshots could observe the elision,
		// and a private Lane — admission-time ordinals reorder
		// same-instant deliveries against other default-lane events, but
		// within a lane the link owns they are the exact ordinals the
		// per-event path would draw.
		l.virtual = fifo && w.XDeliver == nil &&
			p.Overprovisioned && w.Lane != nil && p.LossProb == 0 &&
			!p.Metrics.Departures.Enabled() && !p.Metrics.QueueDepth.Enabled()
	}
	// The train is unused when deliveries cross shards; initializing it
	// anyway empties a kept ring.
	fn := deliver
	if l.virtual {
		fn = deliverCredit
	}
	l.train.Init(p.sched, w.Lane, fn, l)
	l.train.SetEager(p.DisableBatching)
	return nil
}

// Recycle ends l's run. It returns every packet l still holds to its
// pool: the one in serialization, the deliveries in its train and its
// queue's backlog. It drops every other reference through which l could
// keep a packet of the run alive: its queue, its destination, its
// cross-shard hook and its taps. The train's ring stays for the next
// Init, which rewrites the rest; the link is unusable until then. A run
// arena recycles every link of a finished run, so Recycle writes only
// those fields. The pending events that would have reached those
// packets must be gone first: recycle a link only once its scheduler's
// run is over, and reset or discard the scheduler before it runs again.
func (l *Link) Recycle() {
	pool := l.p.Pool
	l.train.Drain(func(arg any) { pool.Put(arg.(*packet.Packet)) })
	l.train.Recycle()
	pool.Put(l.inflight)
	l.inflight = nil
	l.w.Queue.Drain(pool.Put)
	l.w.Queue, l.w.Dst, l.w.XDeliver = nil, nil, nil
	l.onArrival, l.onDrop = nil, nil
}

// Name returns the link label.
func (l *Link) Name() string { return l.w.Name }

// Stats returns a copy of the link counters.
func (l *Link) Stats() Stats { return l.stats }

// QueueLen returns the instantaneous egress queue length in packets.
func (l *Link) QueueLen() int {
	if l.virtual {
		return l.vQueued(l.p.sched.Now())
	}
	return l.w.Queue.Len()
}

// Queue exposes the link's queueing discipline (for RED introspection).
func (l *Link) Queue() queue.Discipline { return l.w.Queue }

// OnArrival registers fn to observe every packet offered to the link,
// before queue admission. Passing nil clears the hook.
func (l *Link) OnArrival(fn func(now sim.Time, p *packet.Packet)) { l.onArrival = fn }

// OnDrop registers fn to observe every packet the discipline rejects.
func (l *Link) OnDrop(fn func(now sim.Time, p *packet.Packet)) { l.onDrop = fn }

// Send offers p to the link. If the transmitter is idle and the queue
// admits the packet, serialization starts immediately; otherwise the packet
// waits in the queue or is dropped by the discipline.
func (l *Link) Send(p *packet.Packet) {
	now := l.p.sched.Now()
	l.stats.Arrivals++
	l.p.Metrics.Arrivals.Inc()
	if l.onArrival != nil {
		l.onArrival(now, p)
	}
	if l.virtual {
		l.vSend(now, p)
		return
	}
	if !l.w.Queue.Enqueue(now, p) {
		l.stats.Drops++
		l.p.Metrics.Drops.Inc()
		if l.onDrop != nil {
			l.onDrop(now, p)
		}
		l.p.Pool.Put(p)
		return
	}
	if l.p.Metrics.QueueDepth.Enabled() {
		l.p.Metrics.QueueDepth.Observe(float64(l.w.Queue.Len()))
	}
	if !l.busy {
		l.transmitNext()
	}
}

// transmitNext pulls the head-of-line packet and clocks it onto the wire.
func (l *Link) transmitNext() {
	p := l.w.Queue.Dequeue(l.p.sched.Now())
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.inflight = p
	if p.Size != l.lastSize {
		l.lastSize = p.Size
		l.lastDelay = sim.SerializationDelay(p.Size, l.p.RateBps)
	}
	l.p.sched.AfterCall(l.lastDelay, serializeDone, l)
}

// serializeDone is the trampoline the serialize-done event is filed under.
func serializeDone(a any) { a.(*Link).serializeDone() }

// serializeDone fires when the inflight packet's last bit leaves the
// transmitter: count the departure, launch propagation (or lose the packet
// on the wire), and start serializing the next queued packet.
func (l *Link) serializeDone() {
	p := l.inflight
	l.inflight = nil
	l.stats.Departures++
	l.p.Metrics.Departures.Inc()
	l.stats.DeliveredBytes += uint64(p.Size)
	if l.p.LossProb > 0 && l.p.LossRNG.Float64() < l.p.LossProb {
		// Lost on the wire: it consumed transmission time but
		// never arrives.
		l.stats.WireLosses++
		l.p.Pool.Put(p)
	} else if l.w.XDeliver != nil {
		// The destination lives on another shard: stamp the delivery
		// with this link's lane ordinal and hand it to the barrier.
		l.w.XDeliver(l.p.sched.Now().Add(l.w.Delay), l.w.Lane.Take(), p)
	} else {
		// The wire is pipelined: propagation of this packet overlaps
		// serialization of the next. The train draws the delivery's lane
		// ordinal here, as a per-event schedule would, and with batching
		// only its head occupies the scheduler — back-to-back departures
		// of a burst collapse into one wheel/heap op. A wire-lost packet
		// above simply never joins the train, which is how loss splits
		// trains.
		l.train.Add(l.p.sched.Now().Add(l.w.Delay), p)
	}
	l.transmitNext()
}

// deliver is the train's delivery callback: it hands the packet to the
// link's destination.
func deliver(recv, arg any) {
	recv.(*Link).w.Dst.Receive(arg.(*packet.Packet))
}

// vSend admits p through the virtual pipeline: the FIFO recurrence
// start = max(now, busyUntil), done = start + serialization fixes every
// instant the per-event path would produce, so only the delivery is
// scheduled (via the train) and the serialize-done event is elided.
func (l *Link) vSend(now sim.Time, p *packet.Packet) {
	start := now
	if now.Before(l.vBusyUntil) {
		start = l.vBusyUntil
		// The queued packets are all in the train behind the one on the
		// transmitter, so only a train longer than the queue's capacity
		// can hold a full queue, and only then is it counted.
		if c := l.w.Queue.Cap(); l.train.Len() > c && l.vQueued(now) >= c {
			// The builder's Overprovisioned guarantee just failed: the
			// per-event schedule would have consulted drop-tail admission
			// here, which the pipeline cannot replay. Fail loudly rather
			// than diverge silently.
			//burst:alloc-ok panic message formatting on a violated-guarantee path that never returns
			panic(fmt.Sprintf("link %q: overprovisioned queue reached capacity %d", l.w.Name, c))
		}
	}
	if p.Size != l.lastSize {
		l.lastSize = p.Size
		l.lastDelay = sim.SerializationDelay(p.Size, l.p.RateBps)
	}
	done := start.Add(l.lastDelay)
	l.vBusyUntil = done
	// Departure accounting settles optimistically at admission, while the
	// stats cache line is hot from the arrival counters; FinishVirtual
	// backs out the packets the horizon catches mid-serialization. The
	// delivery trampoline therefore never touches the stats.
	l.stats.Departures++
	l.stats.DeliveredBytes += uint64(p.Size)
	l.train.Add(done.Add(l.w.Delay), p)
}

// vQueued returns how many pipelined packets wait behind the transmitter
// at now. The train holds the packets admitted and not yet delivered, in
// completion order, so the ones yet to complete are its tail: the first
// of them is on the transmitter and the rest queue. A packet whose
// transmission starts exactly at now counts as started — the per-event
// schedule may order that serialize-done after the current event, but
// with drops impossible the one-packet slack is visible only to vSend's
// capacity check, not to any simulation outcome.
func (l *Link) vQueued(now sim.Time) int {
	cut := now.Add(l.w.Delay)
	n := 0
	for i := l.train.Len() - 1; i >= 0; i-- {
		if at, _ := l.train.At(i); !cut.Before(at) {
			break
		}
		n++
	}
	return max(n-1, 0)
}

// deliverCredit is the virtual pipeline's delivery callback: it settles
// the elided serialize-done's fired-event credit (the departure stats
// settled at admission) and delivers.
func deliverCredit(recv, arg any) {
	l := recv.(*Link)
	l.p.sched.CreditFired()
	l.w.Dst.Receive(arg.(*packet.Packet))
}

// FinishVirtual settles elided serializations still pending at the end of
// a run: the packets left in the train. Completions at or before horizon
// whose delivery events never fired (the packet was mid-propagation at
// cutoff) are returned as a count for the harness to add to SimEvents —
// the per-event schedule fired exactly those serialize-done events before
// the horizon. Packets the horizon catches mid-serialization are backed
// out of the departure stats, undoing vSend's optimistic settlement
// exactly where the per-event path would never have counted them. Call
// it once, after the final Run; on links without the virtual pipeline it
// returns zero.
func (l *Link) FinishVirtual(horizon sim.Time) uint64 {
	if !l.virtual {
		return 0
	}
	cut := horizon.Add(l.w.Delay)
	var n uint64
	for i := 0; i < l.train.Len(); i++ {
		if at, arg := l.train.At(i); cut.Before(at) {
			l.stats.Departures--
			l.stats.DeliveredBytes -= uint64(arg.(*packet.Packet).Size)
		} else {
			n++
		}
	}
	return n
}

// Pipelined reports whether the link runs serialization pipelining.
func (l *Link) Pipelined() bool { return l.virtual }

// CrossesShards reports whether the link hands its deliveries to an
// XDeliver hook.
func (l *Link) CrossesShards() bool { return l.w.XDeliver != nil }

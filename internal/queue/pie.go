package queue

import (
	"fmt"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
)

// PIEConfig parameterizes a Proportional Integral controller Enhanced
// queue (Pan et al.; RFC 8033, simplified).
type PIEConfig struct {
	// Capacity is the physical buffer limit in packets.
	Capacity int
	// Target is the queueing-delay setpoint (RFC default 15ms).
	Target sim.Duration
	// TUpdate is the drop-probability update period (RFC default 15ms).
	TUpdate sim.Duration
	// Alpha weights the distance from Target, Beta the delay trend, both
	// in units of 1/second (RFC defaults 0.125 and 1.25).
	Alpha, Beta float64
	// MeanPacketTime converts queue length to estimated queueing delay
	// (the RFC's departure-rate estimator collapses to this constant on a
	// fixed-rate link with fixed-size packets). Required.
	MeanPacketTime sim.Duration
	// ECN, when true, marks (sets ECE) instead of dropping while the drop
	// probability is at most MaxECNProb; beyond it PIE reverts to drops,
	// as RFC 8033 §5.1 requires.
	ECN bool
	// MaxECNProb caps the marking regime (RFC recommends 0.1).
	MaxECNProb float64
	// RNG supplies the drop coin flips. Required.
	RNG *sim.RNG
	// Metrics holds preregistered telemetry handles; zero handles no-op.
	Metrics Metrics
}

// Validate reports the first configuration error, or nil.
func (c PIEConfig) Validate() error {
	switch {
	case c.Capacity < 1:
		return fmt.Errorf("pie: capacity %d < 1", c.Capacity)
	case c.Target <= 0:
		return fmt.Errorf("pie: target %v <= 0", c.Target)
	case c.TUpdate <= 0:
		return fmt.Errorf("pie: tupdate %v <= 0", c.TUpdate)
	case c.Alpha <= 0:
		return fmt.Errorf("pie: alpha %v <= 0", c.Alpha)
	case c.Beta <= 0:
		return fmt.Errorf("pie: beta %v <= 0", c.Beta)
	case c.MeanPacketTime <= 0:
		return fmt.Errorf("pie: mean packet time %v <= 0", c.MeanPacketTime)
	case c.MaxECNProb <= 0 || c.MaxECNProb > 1:
		return fmt.Errorf("pie: max ECN probability %v outside (0,1]", c.MaxECNProb)
	case c.RNG == nil:
		return fmt.Errorf("pie: nil RNG")
	}
	return nil
}

// PIE is a proportional-integral AQM: every TUpdate it steers a drop
// probability from how far the estimated queueing delay sits from Target
// (integral term) and which way it is trending (proportional term), then
// drops arrivals Bernoulli(prob) at enqueue. The event-driven simulator
// has no periodic timer at the queue, so the controller steps lazily: each
// arrival first replays any update epochs that elapsed since the last one.
type PIE struct {
	cfg  PIEConfig
	ring fifoRing

	prob       float64      // current drop probability
	qdelayOld  sim.Duration // delay estimate at the previous update
	lastUpdate sim.Time     // epoch of the most recent update

	earlyDrops  uint64
	forcedDrops uint64
	marks       uint64
}

var _ Discipline = (*PIE)(nil)
var _ StatsReporter = (*PIE)(nil)

// NewPIE returns a PIE queue, or an error if the configuration is invalid.
func NewPIE(cfg PIEConfig) (*PIE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PIE{cfg: cfg, ring: newFIFORing(cfg.Capacity)}, nil
}

// Enqueue advances the controller to now, applies the early-drop test, and
// accepts or discards p.
func (q *PIE) Enqueue(now sim.Time, p *packet.Packet) bool {
	q.step(now)

	if q.dropEarly() {
		if q.cfg.ECN && q.prob <= q.cfg.MaxECNProb {
			q.marks++
			q.cfg.Metrics.Marks.Inc()
			p.ECE = true
		} else {
			q.earlyDrops++
			q.cfg.Metrics.EarlyDrops.Inc()
			return false
		}
	}
	if !q.ring.push(p) {
		q.forcedDrops++
		q.cfg.Metrics.ForcedDrops.Inc()
		return false
	}
	return true
}

// Dequeue returns the oldest queued packet, or nil.
func (q *PIE) Dequeue(_ sim.Time) *packet.Packet { return q.ring.pop() }

// Len returns the instantaneous queue length in packets.
func (q *PIE) Len() int { return q.ring.len() }

// Drain hands every queued packet to put, oldest first.
func (q *PIE) Drain(put func(p *packet.Packet)) { q.ring.drain(put) }

// Cap returns the physical buffer capacity in packets.
func (q *PIE) Cap() int { return q.cfg.Capacity }

// Prob returns the controller's current drop probability.
func (q *PIE) Prob() float64 { return q.prob }

// DisciplineStats reports PIE's counters; FinalAvg is the terminal drop
// probability.
func (q *PIE) DisciplineStats() Stats {
	return Stats{
		EarlyDrops:  q.earlyDrops,
		ForcedDrops: q.forcedDrops,
		Marks:       q.marks,
		FinalAvg:    q.prob,
	}
}

// qdelay estimates the queueing delay a packet arriving now would see.
func (q *PIE) qdelay() sim.Duration {
	return sim.Duration(q.ring.len()) * q.cfg.MeanPacketTime
}

// step replays every TUpdate epoch between the last update and now. Using
// the current queue length for replayed epochs is the lazy-evaluation
// simplification: between arrivals the length only falls, so the replay is
// conservative, and with the RFC's 15ms period at most a handful of epochs
// accrue between arrivals on a loaded gateway.
func (q *PIE) step(now sim.Time) {
	for !now.Before(q.lastUpdate.Add(q.cfg.TUpdate)) {
		qd := q.qdelay()
		if q.prob == 0 && qd == 0 && q.qdelayOld == 0 { //burst:floateq-ok exact zero is the controller's settled state
			// Settled at zero: every remaining epoch is a no-op, so jump
			// the epoch clock to the last boundary at or before now.
			elapsed := now.Sub(q.lastUpdate)
			q.lastUpdate = q.lastUpdate.Add(elapsed - elapsed%q.cfg.TUpdate)
			return
		}
		q.update(qd)
		q.lastUpdate = q.lastUpdate.Add(q.cfg.TUpdate)
	}
}

// update is one controller epoch (RFC 8033 §4.2): a PI step in delay
// space, auto-tuned so small probabilities move in proportionally small
// increments, plus exponential decay once the queue has fully drained.
func (q *PIE) update(qd sim.Duration) {
	delta := q.cfg.Alpha*(qd-q.cfg.Target).Seconds() + q.cfg.Beta*(qd-q.qdelayOld).Seconds()
	switch {
	case q.prob < 0.000001:
		delta /= 2048
	case q.prob < 0.00001:
		delta /= 512
	case q.prob < 0.0001:
		delta /= 128
	case q.prob < 0.001:
		delta /= 32
	case q.prob < 0.01:
		delta /= 8
	case q.prob < 0.1:
		delta /= 2
	}
	q.prob += delta
	if qd == 0 && q.qdelayOld == 0 {
		q.prob *= 0.98
	}
	if q.prob < 0 {
		q.prob = 0
	} else if q.prob > 1 {
		q.prob = 1
	}
	q.qdelayOld = qd
}

// dropEarly is the Bernoulli(prob) arrival test with the RFC's safeguards:
// no drops while the delay is comfortably under target and the probability
// small (burst tolerance), and never on a near-empty queue.
func (q *PIE) dropEarly() bool {
	if q.qdelayOld < q.cfg.Target/2 && q.prob < 0.2 {
		return false
	}
	if q.ring.len() <= 2 {
		return false
	}
	return q.cfg.RNG.Float64() < q.prob
}

package queue

import (
	"fmt"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
)

// AdmissionConfig parameterizes a rate-policing admission controller in
// front of a drop-tail queue: a token bucket (arrivals spend credit that
// refills at Rate) or a leaky bucket (arrivals fill a bucket that drains
// at Rate). Both shed non-conformant arrivals before they occupy buffer
// space — so a bucket calibrated below the offered load degrades the
// gateway into a load shedder, which is exactly the miscalibration regime
// the burst-sweep experiment probes.
type AdmissionConfig struct {
	// Capacity is the physical buffer limit in packets for conformant
	// traffic.
	Capacity int
	// Rate is the policed rate in packets per second. Required.
	Rate float64
	// Burst is the bucket size in packets: the token bucket's depth (how
	// big a burst passes unshed at line rate) or the leaky bucket's
	// volume. Defaults to Capacity when a spec leaves it unset.
	Burst float64
	// PerFlow polices each flow against its own bucket instead of one
	// aggregate bucket, turning the policer into per-flow rate limiting.
	PerFlow bool
	// Metrics holds preregistered telemetry handles; zero handles no-op.
	Metrics Metrics
}

// Validate reports the first configuration error, or nil.
func (c AdmissionConfig) Validate() error {
	switch {
	case c.Capacity < 1:
		return fmt.Errorf("admission: capacity %d < 1", c.Capacity)
	case c.Rate <= 0:
		return fmt.Errorf("admission: rate %v pkts/s <= 0 (set rate=... on the spec)", c.Rate)
	case c.Burst < 1:
		return fmt.Errorf("admission: burst %v < 1 packet", c.Burst)
	}
	return nil
}

// bucket is the shared lazy-refill state: a token bucket tracks remaining
// credit (starts full, refills at rate, arrivals spend), a leaky bucket
// tracks accumulated volume (starts empty, drains at rate, arrivals add).
// seen marks a per-flow slot as initialized; flow buckets live in a dense
// value slice, so first arrival initializes in place instead of heap-
// allocating a bucket per flow on the enqueue path.
type bucket struct {
	level float64
	last  sim.Time
	seen  bool
}

// Admission is the policer-plus-FIFO discipline behind the "tokenbucket"
// and "leakybucket" registry names.
type Admission struct {
	cfg   AdmissionConfig
	leaky bool
	ring  fifoRing

	agg   bucket
	flows []bucket // dense per-flow buckets when cfg.PerFlow

	shed        uint64
	forcedDrops uint64
}

var _ Discipline = (*Admission)(nil)
var _ StatsReporter = (*Admission)(nil)

// NewTokenBucket returns a token-bucket admission controller, or an error
// if the configuration is invalid.
func NewTokenBucket(cfg AdmissionConfig) (*Admission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	q := &Admission{cfg: cfg, ring: newFIFORing(cfg.Capacity)}
	q.agg.level = cfg.Burst // bucket starts full
	return q, nil
}

// NewLeakyBucket returns a leaky-bucket admission controller, or an error
// if the configuration is invalid.
func NewLeakyBucket(cfg AdmissionConfig) (*Admission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Admission{cfg: cfg, leaky: true, ring: newFIFORing(cfg.Capacity)}, nil
}

// Enqueue polices p against its bucket, shedding non-conformant arrivals;
// conformant ones join the FIFO (overflow is a forced drop as usual).
func (q *Admission) Enqueue(now sim.Time, p *packet.Packet) bool {
	if !q.conformant(q.bucketFor(p.Flow, now), now) {
		q.shed++
		q.cfg.Metrics.Shed.Inc()
		return false
	}
	if !q.ring.push(p) {
		q.forcedDrops++
		q.cfg.Metrics.ForcedDrops.Inc()
		return false
	}
	return true
}

// conformant advances the bucket to now (lazy refill/drain) and commits
// one packet's worth of credit or volume if it fits.
func (q *Admission) conformant(b *bucket, now sim.Time) bool {
	dt := now.Sub(b.last).Seconds()
	b.last = now
	if q.leaky {
		b.level -= q.cfg.Rate * dt
		if b.level < 0 {
			b.level = 0
		}
		if b.level+1 > q.cfg.Burst {
			return false
		}
		b.level++
		return true
	}
	b.level += q.cfg.Rate * dt
	if b.level > q.cfg.Burst {
		b.level = q.cfg.Burst
	}
	if b.level < 1 {
		return false
	}
	b.level--
	return true
}

// bucketFor selects the aggregate bucket, or the flow's own (created full
// for a token bucket, empty for a leaky one, on first arrival).
func (q *Admission) bucketFor(id packet.FlowID, now sim.Time) *bucket {
	if !q.cfg.PerFlow {
		return &q.agg
	}
	for int(id) >= len(q.flows) {
		//burst:alloc-ok dense per-flow table growth amortizes via append doubling; steady state is index-only
		q.flows = append(q.flows, bucket{})
	}
	b := &q.flows[id]
	if !b.seen {
		b.seen = true
		b.last = now
		if !q.leaky {
			b.level = q.cfg.Burst
		}
	}
	return b
}

// Dequeue returns the oldest queued packet, or nil.
func (q *Admission) Dequeue(_ sim.Time) *packet.Packet { return q.ring.pop() }

// Len returns the instantaneous queue length in packets.
func (q *Admission) Len() int { return q.ring.len() }

// Drain hands every queued packet to put, oldest first.
func (q *Admission) Drain(put func(p *packet.Packet)) { q.ring.drain(put) }

// Cap returns the physical buffer capacity in packets.
func (q *Admission) Cap() int { return q.cfg.Capacity }

// Shed returns how many arrivals the policer refused.
func (q *Admission) Shed() uint64 { return q.shed }

// DisciplineStats reports the policer's counters; FinalAvg is the
// aggregate bucket's terminal level (remaining tokens, or leaky volume).
func (q *Admission) DisciplineStats() Stats {
	return Stats{
		ForcedDrops: q.forcedDrops,
		Shed:        q.shed,
		FinalAvg:    q.agg.level,
	}
}

package queue

import (
	"fmt"
	"math"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
)

// REDConfig parameterizes a random-early-detection gateway queue
// (Floyd & Jacobson, 1993).
type REDConfig struct {
	// Capacity is the physical buffer limit in packets; arrivals beyond it
	// are always dropped regardless of the average queue length.
	Capacity int
	// MinThreshold is the average queue length at which probabilistic
	// dropping begins (paper: 10 packets).
	MinThreshold float64
	// MaxThreshold is the average queue length at which every arrival is
	// dropped (paper: 40 packets).
	MaxThreshold float64
	// Weight is the EWMA weight w_q for the average queue length
	// (Floyd & Jacobson recommend 0.002).
	Weight float64
	// MaxProb is the drop probability reached as the average approaches
	// MaxThreshold (the ns simulator's era default was 0.1, i.e.
	// linterm=10; Floyd & Jacobson's paper used 0.02).
	MaxProb float64
	// MeanPacketTime estimates the transmission time of a typical packet
	// on the outgoing link; it drives the average decay across idle
	// periods. Zero disables idle decay.
	MeanPacketTime sim.Duration
	// ECN, when true, marks packets (sets ECE) instead of dropping while
	// the average is between the thresholds; forced drops above
	// MaxThreshold or a full buffer still discard (extension).
	ECN bool
	// Gentle, when true, applies Floyd's 2000 "gentle RED" refinement:
	// instead of dropping everything the moment the average crosses
	// MaxThreshold, the drop probability ramps linearly from MaxProb to 1
	// between MaxThreshold and 2×MaxThreshold (extension).
	Gentle bool
	// RNG supplies the drop coin flips. Required.
	RNG *sim.RNG
	// Metrics holds preregistered telemetry handles mirrored by the
	// early/forced/mark counters; the zero value disables publication.
	Metrics Metrics
}

// Validate reports the first configuration error, or nil.
func (c REDConfig) Validate() error {
	switch {
	case c.Capacity < 1:
		return fmt.Errorf("red: capacity %d < 1", c.Capacity)
	case c.MinThreshold < 0:
		return fmt.Errorf("red: min threshold %v < 0", c.MinThreshold)
	case c.MaxThreshold <= c.MinThreshold:
		return fmt.Errorf("red: max threshold %v <= min threshold %v", c.MaxThreshold, c.MinThreshold)
	case c.Weight <= 0 || c.Weight > 1:
		return fmt.Errorf("red: weight %v outside (0,1]", c.Weight)
	case c.MaxProb <= 0 || c.MaxProb > 1:
		return fmt.Errorf("red: max probability %v outside (0,1]", c.MaxProb)
	case c.RNG == nil:
		return fmt.Errorf("red: nil RNG")
	}
	return nil
}

// RED is a random-early-detection queue. It maintains an exponentially
// weighted moving average of the queue length; arrivals are dropped with a
// probability that rises linearly between the two thresholds, and always
// once the average exceeds the maximum threshold.
type RED struct {
	cfg  REDConfig
	ring fifoRing

	avg       float64  // EWMA of queue length, in packets
	count     int      // packets since the last early drop (-1: below min)
	idleSince sim.Time // start of the current idle period; TimeMax if busy

	// Counters exposed for analysis.
	earlyDrops  uint64
	forcedDrops uint64
	marks       uint64
}

var _ Discipline = (*RED)(nil)

// NewRED returns a RED queue, or an error if the configuration is invalid.
func NewRED(cfg REDConfig) (*RED, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RED{
		cfg:       cfg,
		ring:      newFIFORing(cfg.Capacity),
		count:     -1,
		idleSince: sim.TimeZero,
	}, nil
}

// Enqueue applies the RED drop test and accepts or discards p.
func (q *RED) Enqueue(now sim.Time, p *packet.Packet) bool {
	q.updateAverage(now)

	switch {
	case q.avg >= q.cfg.MaxThreshold:
		if q.cfg.Gentle && q.avg < 2*q.cfg.MaxThreshold {
			// Gentle region: drop probability ramps MaxProb → 1.
			q.count++
			frac := (q.avg - q.cfg.MaxThreshold) / q.cfg.MaxThreshold
			pb := q.cfg.MaxProb + (1-q.cfg.MaxProb)*frac
			if q.cfg.RNG.Float64() < pb {
				q.count = 0
				q.earlyDrops++
				q.cfg.Metrics.EarlyDrops.Inc()
				return false
			}
			break
		}
		// Average beyond (gentle: twice) the max threshold: forced drop.
		q.count = 0
		q.forcedDrops++
		q.cfg.Metrics.ForcedDrops.Inc()
		return false
	case q.avg >= q.cfg.MinThreshold:
		q.count++
		if q.dropTest() {
			q.count = 0
			if q.cfg.ECN {
				q.marks++
				q.cfg.Metrics.Marks.Inc()
				p.ECE = true
			} else {
				q.earlyDrops++
				q.cfg.Metrics.EarlyDrops.Inc()
				return false
			}
		}
	default:
		q.count = -1
	}

	if !q.ring.push(p) {
		// Physical buffer overflow: forced drop.
		q.count = 0
		q.forcedDrops++
		q.cfg.Metrics.ForcedDrops.Inc()
		return false
	}
	q.idleSince = sim.TimeMax
	return true
}

// Dequeue returns the oldest queued packet, or nil. An emptying queue
// starts the idle clock used to age the average.
func (q *RED) Dequeue(now sim.Time) *packet.Packet {
	p := q.ring.pop()
	if p != nil && q.ring.len() == 0 {
		q.idleSince = now
	}
	return p
}

// Len returns the instantaneous queue length in packets.
func (q *RED) Len() int { return q.ring.len() }

// Drain hands every queued packet to put, oldest first.
func (q *RED) Drain(put func(p *packet.Packet)) { q.ring.drain(put) }

// Cap returns the physical buffer capacity in packets.
func (q *RED) Cap() int { return q.cfg.Capacity }

// Config returns the parameters the queue was built with.
func (q *RED) Config() REDConfig { return q.cfg }

// Average returns the current EWMA queue length estimate.
func (q *RED) Average() float64 { return q.avg }

// EarlyDrops returns the number of probabilistic drops so far.
func (q *RED) EarlyDrops() uint64 { return q.earlyDrops }

// ForcedDrops returns drops due to the max threshold or a full buffer.
func (q *RED) ForcedDrops() uint64 { return q.forcedDrops }

// Marks returns the number of ECN marks applied (extension mode only).
func (q *RED) Marks() uint64 { return q.marks }

// DisciplineStats reports RED's counters generically for registry-built
// gateways; FinalAvg is the terminal EWMA queue-length estimate.
func (q *RED) DisciplineStats() Stats {
	return Stats{
		EarlyDrops:  q.earlyDrops,
		ForcedDrops: q.forcedDrops,
		Marks:       q.marks,
		FinalAvg:    q.avg,
	}
}

// updateAverage folds the current instantaneous queue length into the EWMA,
// first decaying it across any idle period as if m small packets had
// departed (Floyd & Jacobson, eq. 2).
func (q *RED) updateAverage(now sim.Time) {
	if q.ring.len() == 0 && q.idleSince != sim.TimeMax && q.cfg.MeanPacketTime > 0 {
		idle := now.Sub(q.idleSince)
		if idle > 0 {
			m := float64(idle) / float64(q.cfg.MeanPacketTime)
			q.avg *= math.Pow(1-q.cfg.Weight, m)
		}
		q.idleSince = now
	}
	q.avg = (1-q.cfg.Weight)*q.avg + q.cfg.Weight*float64(q.ring.len())
}

// dropTest performs the count-corrected Bernoulli trial of Floyd & Jacobson
// so that drops are spread roughly uniformly between early-drop events.
func (q *RED) dropTest() bool {
	span := q.cfg.MaxThreshold - q.cfg.MinThreshold
	pb := q.cfg.MaxProb * (q.avg - q.cfg.MinThreshold) / span
	denom := 1 - float64(q.count)*pb
	if denom <= 0 {
		return true
	}
	pa := pb / denom
	return q.cfg.RNG.Float64() < pa
}

// DefaultREDConfig returns the paper-era RED parameters for a gateway with
// the given physical capacity and typical packet transmission time: the
// paper's 10/40 packet thresholds, Floyd & Jacobson's weight 0.002 and the
// ns-era max drop probability 0.1. The "red" spec's defaults are these.
func DefaultREDConfig(capacity int, meanPacketTime sim.Duration, rng *sim.RNG) REDConfig {
	return REDConfig{
		Capacity:       capacity,
		MinThreshold:   10,
		MaxThreshold:   40,
		Weight:         0.002,
		MaxProb:        0.1,
		MeanPacketTime: meanPacketTime,
		RNG:            rng,
	}
}

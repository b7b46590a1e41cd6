package tcp

import (
	"math"

	"tcpburst/internal/sim"
)

// renoCC implements the Tahoe, Reno, and NewReno loss-driven congestion
// control family:
//
//   - slow start: cwnd += 1 per new ACK while cwnd < ssthresh;
//   - congestion avoidance: cwnd += 1/cwnd per new ACK;
//   - fast retransmit on the third duplicate ACK;
//   - Tahoe restarts slow start from cwnd=1 after any loss;
//   - Reno halves the window and inflates during fast recovery, exiting on
//     the first new ACK;
//   - NewReno additionally repairs multiple losses per window via partial
//     ACKs without leaving recovery.
type renoCC struct {
	flavor Variant
}

var _ congestionControl = (*renoCC)(nil)

func (c *renoCC) onNewAck(s *Sender, acked int64, _ sim.Duration) {
	if s.inRecovery {
		if c.flavor == NewReno && s.sndUna < s.recover {
			// Partial ACK: the next hole is lost too. Retransmit it,
			// deflate by the amount acked, and stay in recovery.
			s.cwnd -= float64(acked)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.cwnd++
			s.retransmitHead()
			return
		}
		// Full ACK (or plain Reno, which exits on any new ACK):
		// deflate the window back to ssthresh.
		s.cwnd = s.ssthresh
		s.inRecovery = false
		return
	}
	growWindow(s)
}

func (c *renoCC) onDupAck(s *Sender, count int) {
	if s.inRecovery {
		// Window inflation: each further duplicate ACK signals another
		// packet has left the network.
		s.cwnd++
		return
	}
	if count != 3 {
		// Only the third duplicate ACK triggers fast retransmit; later
		// duplicates outside recovery (e.g. straggler ACKs after a
		// Tahoe restart) must not re-trigger it.
		return
	}
	if c.flavor == NewReno && s.sndUna < s.recover {
		// NewReno "careful" variant: suppress a second fast retransmit
		// for ACKs below the recovery point after a timeout.
		return
	}
	enterFastRetransmit(s, c.flavor)
}

func (c *renoCC) onTimeout(s *Sender) {
	collapseOnTimeout(s)
}

// growWindow applies slow start or congestion avoidance per new ACK. The
// congestion window is capped at the advertised window, as in ns's
// maxcwnd_: growing past what the receiver will ever permit just distorts
// the traces.
func growWindow(s *Sender) {
	if s.cwnd < s.ssthresh {
		s.cwnd++
	} else {
		s.cwnd += 1 / s.cwnd
	}
	if max := float64(s.p.MaxWindow); s.cwnd > max {
		s.cwnd = max
	}
}

// enterFastRetransmit performs the duplicate-ACK loss response. The
// loss-driven variants halve the window; Vegas decreases it by only a
// quarter (Brakmo & Peterson §4.2) — its proactive avoidance means a
// dup-ACK loss usually signals mild, not drastic, congestion, and the
// gentler decrease is what keeps Vegas's aggregate traffic smooth.
func enterFastRetransmit(s *Sender, flavor Variant) {
	s.counters.FastRetransmits++
	s.p.Metrics.FastRetransmits.Inc()
	if flavor == Vegas {
		s.ssthresh = math.Max(float64(s.FlightSize())*3/4, 2)
	} else {
		s.halveSsthresh()
	}
	s.recover = s.sndNxt
	if flavor == Tahoe {
		// Tahoe has no fast recovery: retransmit and slow start.
		s.cwnd = 1
		s.inRecovery = false
	} else {
		s.cwnd = s.ssthresh + 3
		s.inRecovery = true
	}
	s.retransmitHead()
}

// collapseOnTimeout performs the shared timeout response: halve ssthresh,
// collapse the window to one packet, and leave any fast-recovery episode.
func collapseOnTimeout(s *Sender) {
	s.halveSsthresh()
	s.cwnd = 1
	s.inRecovery = false
	s.recover = s.sndNxt
}

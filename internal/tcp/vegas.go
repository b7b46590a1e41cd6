package tcp

import (
	"math"

	"tcpburst/internal/sim"
)

// vegasCC implements TCP Vegas congestion avoidance (Brakmo & Peterson,
// 1995): once per round-trip it compares the expected throughput
// cwnd/baseRTT with the actual throughput cwnd/RTT and steers the number of
// packets the flow keeps queued at the bottleneck into the [alpha, beta]
// band — a linear increase when fewer than alpha packets are queued, a
// linear decrease when more than beta are.
//
// Slow start is modified to double only every other RTT and exits to
// congestion avoidance as soon as the queue estimate exceeds gamma. Losses
// are still repaired Reno-style, with Vegas's fine-grained early
// retransmission check on the first and second duplicate ACK.
type vegasCC struct {
	baseRTT     sim.Duration // minimum RTT ever observed
	epochRTTSum sim.Duration // sum of RTT samples within the current epoch
	epochEnd    int64        // snd_nxt when the epoch began
	epochRTTs   int          // samples within the current epoch
	growEpoch   bool         // slow start doubles only on alternate epochs
}

var _ congestionControl = (*vegasCC)(nil)

func newVegasCC() *vegasCC {
	return &vegasCC{growEpoch: true}
}

func (c *vegasCC) onNewAck(s *Sender, acked int64, rtt sim.Duration) {
	if rtt > 0 {
		if c.baseRTT == 0 || rtt < c.baseRTT {
			c.baseRTT = rtt
		}
		c.epochRTTSum += rtt
		c.epochRTTs++
	}

	if s.inRecovery {
		if s.sndUna < s.recover {
			// Partial ACK: repair the next hole without leaving
			// recovery (Vegas retransmits eagerly after a loss).
			s.cwnd -= float64(acked)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.cwnd++
			s.retransmitHead()
			return
		}
		s.cwnd = s.ssthresh
		s.inRecovery = false
		c.resetEpoch(s)
		return
	}

	if s.sndUna >= c.epochEnd {
		c.adjustWindow(s)
		c.resetEpoch(s)
	}

	// Slow start grows per ACK, but only on alternate (doubling) epochs —
	// Vegas's modified slow start doubles every other RTT.
	if s.cwnd < s.ssthresh && c.growEpoch {
		s.cwnd++
		if max := float64(s.p.MaxWindow); s.cwnd > max {
			s.cwnd = max
		}
	}
}

// adjustWindow runs Vegas's once-per-RTT comparison of expected and actual
// throughput.
func (c *vegasCC) adjustWindow(s *Sender) {
	if c.epochRTTs == 0 || c.baseRTT == 0 {
		return
	}
	// The epoch's average RTT estimates the actual sending rate; Brakmo &
	// Peterson compute Actual from the RTT observed over the epoch.
	rtt := c.epochRTTSum / sim.Duration(c.epochRTTs)
	// diff estimates the packets this flow keeps queued at the bottleneck:
	// cwnd * (rtt - baseRTT) / rtt.
	diff := s.cwnd * float64(rtt-c.baseRTT) / float64(rtt)

	if s.cwnd < s.ssthresh {
		// Modified slow start: exit as soon as the flow queues more
		// than gamma packets, trimming the window to what the path
		// actually carried.
		if diff > s.p.Vegas.Gamma {
			target := s.cwnd * float64(c.baseRTT) / float64(rtt)
			s.cwnd = math.Min(s.cwnd, target+1)
			if s.cwnd < 2 {
				s.cwnd = 2
			}
			s.ssthresh = s.cwnd
		}
		return
	}

	switch {
	case diff < s.p.Vegas.Alpha:
		s.cwnd++
	case diff > s.p.Vegas.Beta:
		s.cwnd--
	}
	if s.cwnd < 2 {
		s.cwnd = 2
	}
	if max := float64(s.p.MaxWindow); s.cwnd > max {
		s.cwnd = max
	}
}

func (c *vegasCC) resetEpoch(s *Sender) {
	c.epochEnd = s.sndNxt
	c.epochRTTSum = 0
	c.epochRTTs = 0
	c.growEpoch = !c.growEpoch
}

func (c *vegasCC) onDupAck(s *Sender, count int) {
	if s.inRecovery {
		s.cwnd++
		return
	}
	if count == 3 {
		enterFastRetransmit(s, Vegas)
		return
	}
	if count > 3 {
		return
	}
	// Fine-grained early retransmission: if the oldest outstanding
	// segment has already exceeded the RTT-based timeout, do not wait for
	// the third duplicate ACK.
	if sentAt, ok := s.segSentAt(s.sndUna); ok && s.srtt > 0 {
		fineTimeout := s.srtt + 4*s.rttvar
		if s.p.Sched.Now().Sub(sentAt) > fineTimeout {
			enterFastRetransmit(s, Vegas)
		}
	}
}

func (c *vegasCC) onTimeout(s *Sender) {
	// Vegas retransmits on an accurate RTT-based timer rather than the
	// coarse-grained BSD one, so a first expiry signals a single lost
	// segment, not collapse: reduce the window by a quarter and repair.
	// Only a repeated expiry (the retransmission itself was lost) falls
	// back to the full slow-start restart. The sender doubles backoff
	// before this hook runs, so a first expiry sees backoff == 2.
	if s.backoff <= 2 {
		s.ssthresh = math.Max(s.cwnd*3/4, 2)
		s.cwnd = s.ssthresh
		s.inRecovery = false
		s.recover = s.sndNxt
	} else {
		collapseOnTimeout(s)
	}
	c.resetEpoch(s)
}

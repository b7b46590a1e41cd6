package tcp

import (
	"tcpburst/internal/sim"
)

// sackCC implements selective-acknowledgment loss recovery (RFC 2018 with
// an ns "sack1"-style scoreboard): the receiver reports which packets above
// the cumulative ACK it holds, and the sender retransmits only the holes —
// repairing multiple losses per window in one recovery episode where Reno
// would need a timeout. Window dynamics outside recovery are Reno's.
type sackCC struct {
	// rtxNext is the lowest hole not yet retransmitted in the current
	// recovery episode.
	rtxNext int64
}

var _ congestionControl = (*sackCC)(nil)

func (c *sackCC) onNewAck(s *Sender, acked int64, _ sim.Duration) {
	if s.inRecovery {
		if s.sndUna < s.recover {
			// Partial ACK: repair the next hole without leaving
			// recovery (NewReno-style deflation, scoreboard-guided
			// retransmission).
			s.cwnd -= float64(acked)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.cwnd++
			c.retransmitNextHole(s)
			return
		}
		s.cwnd = s.ssthresh
		s.inRecovery = false
		return
	}
	growWindow(s)
}

func (c *sackCC) onDupAck(s *Sender, count int) {
	if s.inRecovery {
		// Each duplicate ACK signals a departure; inflate and use the
		// opened window to repair further holes first, new data second.
		s.cwnd++
		c.retransmitNextHole(s)
		return
	}
	if count != 3 {
		return
	}
	s.counters.FastRetransmits++
	s.p.Metrics.FastRetransmits.Inc()
	s.halveSsthresh()
	s.recover = s.sndNxt
	s.cwnd = s.ssthresh + 3
	s.inRecovery = true
	c.rtxNext = s.sndUna
	c.retransmitNextHole(s)
}

func (c *sackCC) onTimeout(s *Sender) {
	collapseOnTimeout(s)
	// RFC 2018: the receiver may renege on SACKed data, so a timeout
	// clears the scoreboard and falls back to go-back-N.
	s.clearSACKed()
	c.rtxNext = 0
}

// retransmitNextHole retransmits the lowest presumed-lost packet that has
// not been retransmitted in this episode. A packet is presumed lost only
// if it is unSACKed *and* below the highest SACKed sequence — merely
// in-flight data above every SACK block must not be resent. It reports
// whether a retransmission was sent.
func (c *sackCC) retransmitNextHole(s *Sender) bool {
	if c.rtxNext < s.sndUna {
		c.rtxNext = s.sndUna
	}
	limit := s.recover
	if s.sackHigh < limit {
		limit = s.sackHigh
	}
	if s.sndNxt < limit {
		limit = s.sndNxt
	}
	for seq := c.rtxNext; seq < limit; seq++ {
		if s.isSACKed(seq) {
			continue
		}
		c.rtxNext = seq + 1
		s.transmit(seq)
		s.rtxTimer.Reset(s.currentRTO())
		return true
	}
	return false
}

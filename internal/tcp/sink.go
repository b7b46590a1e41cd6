package tcp

import (
	"math/bits"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/transport"
)

// Sink is the receiving endpoint of a TCP connection. It delivers packets
// to the application in order, generates cumulative acknowledgments —
// immediately for out-of-order arrivals (producing the duplicate ACKs that
// drive fast retransmit) and optionally delayed for in-order ones — and
// echoes the timing information the sender needs for RTT sampling.
type Sink struct {
	// p is the block the sink shares with the endpoints built alike.
	p    *Params
	ends Ends

	rcvNxt int64
	// Out-of-order reorder buffer as a bitmap over a power-of-two ring of
	// MaxWindow sequence slots. The sender never has more than MaxWindow
	// packets in flight and rcvNxt >= snd_una always, so every sequence
	// that can arrive satisfies seq - rcvNxt < MaxWindow <= ring size:
	// bit (seq & oooMask) is unambiguous for all conforming traffic.
	// Sequences beyond that window (possible only from a misbehaving
	// sender) are acknowledged but not buffered.
	oooBits []uint64
	oooMask int64 // ring capacity in sequence slots, less one
	oooCnt  int   // buffered out-of-order sequences

	delivered uint64 // in-order packets handed to the application
	dupsRcvd  uint64 // duplicate data packets discarded
	acksSent  uint64
	delays    stats.DelayDist

	// Delayed-ACK state: at most one in-order packet may wait for a
	// coalescing partner, bounded by the delayed-ACK timer.
	pendingAck bool
	pendingPkt ackEcho
	delayTimer sim.Timer
}

// ackEcho carries the fields of a data packet that the ACK must echo.
type ackEcho struct {
	seq    int64
	sentAt sim.Time
	rtxed  bool
	ece    bool
}

var _ transport.Agent = (*Sink)(nil)

// NewSink returns the receiving endpoint for cfg, with a parameter block
// of its own. The sink sends ACKs from cfg.Dst back to cfg.Src, so the
// same Config describes both endpoints but for Out, which must be the
// server-side egress wire.
func NewSink(cfg Config) (*Sink, error) {
	p, err := NewParams(cfg.Params)
	if err != nil {
		return nil, err
	}
	s := new(Sink)
	if err := InitSink(s, p, cfg.Ends); err != nil {
		return nil, err
	}
	return s, nil
}

// InitSink makes s, in place, the sink of connection e running on the
// shared block p, which must come from NewParams; sinks are kept in a
// slab.
func InitSink(s *Sink, p *Params, e Ends) error {
	if err := e.check(p); err != nil {
		return err
	}
	// A sink initialized again reuses its reorder bitmap, cleared, when it
	// is large enough, and its delay store's chunks.
	ring := windowRingSize(p.MaxWindow)
	delays := s.delays
	delays.Reset()
	*s = Sink{
		p:       p,
		ends:    e,
		oooBits: reuse(s.oooBits, int(ring+63)/64),
		oooMask: ring - 1,
		delays:  delays,
	}
	s.delayTimer.Init(p.Sched, sinkDelayTimeout, s)
	return nil
}

// sinkDelayTimeout is the delayed-ACK timer's expiry callback.
func sinkDelayTimeout(a any) { a.(*Sink).onDelayTimeout() }

// Delivered returns the number of packets handed to the application in
// order — the per-flow throughput measure of Figure 3.
func (s *Sink) Delivered() uint64 { return s.delivered }

// AcksSent returns the number of acknowledgments generated.
func (s *Sink) AcksSent() uint64 { return s.acksSent }

// DuplicatesReceived returns the count of data packets discarded because
// they had already been delivered.
func (s *Sink) DuplicatesReceived() uint64 { return s.dupsRcvd }

// RcvNxt returns the next expected sequence number.
func (s *Sink) RcvNxt() int64 { return s.rcvNxt }

// Delays returns the one-way network delay statistics of received data
// packets (transmission to arrival, including queueing).
func (s *Sink) Delays() *stats.DelayDist { return &s.delays }

// StateBytes returns the sink's steady-state memory footprint: the struct
// plus the reorder bitmap. Per-flow cost reported by the scaling benches.
func (s *Sink) StateBytes() int {
	return int(sinkStructBytes) + len(s.oooBits)*8
}

// oooHas reports whether seq is buffered out of order. Only meaningful for
// seq in (rcvNxt, rcvNxt+oooMask].
func (s *Sink) oooHas(seq int64) bool {
	idx := seq & s.oooMask
	return s.oooBits[idx>>6]&(1<<uint(idx&63)) != 0
}

// oooSet buffers seq.
func (s *Sink) oooSet(seq int64) {
	idx := seq & s.oooMask
	s.oooBits[idx>>6] |= 1 << uint(idx&63)
}

// oooCount returns the number of buffered out-of-order sequences (test
// hook).
func (s *Sink) oooCount() int { return s.oooCnt }

// contigRun returns the length of the contiguous run of buffered sequences
// starting at seq, scanning the reorder bitmap a word at a time. The run is
// bounded by oooCnt (at most ring−1 bits are ever set), so the wrap-around
// scan always terminates.
func (s *Sink) contigRun(seq int64) int64 {
	var run int64
	for run < int64(s.oooCnt)+1 {
		idx := (seq + run) & s.oooMask
		bit := uint(idx & 63)
		avail := s.oooMask + 1 - idx // to the ring wrap
		if c := int64(64 - bit); c < avail {
			avail = c
		}
		ones := int64(bits.TrailingZeros64(^(s.oooBits[idx>>6] >> bit)))
		if ones > avail {
			ones = avail
		}
		run += ones
		if ones < avail {
			break
		}
	}
	return run
}

// oooClearRange drops [first, last) from the buffer word-wise.
func (s *Sink) oooClearRange(first, last int64) {
	for seq := first; seq < last; {
		idx := seq & s.oooMask
		bit := uint(idx & 63)
		n := s.oooMask + 1 - idx
		if c := int64(64 - bit); c < n {
			n = c
		}
		if rem := last - seq; rem < n {
			n = rem
		}
		var mask uint64
		if n == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1)<<uint(n) - 1) << bit
		}
		s.oooBits[idx>>6] &^= mask
		seq += n
	}
}

// Receive processes one inbound data packet. The sink is the data
// packet's consumption point: everything the ACK must echo is copied out
// and the packet is released before any acknowledgment is built, so the
// pool can serve the ACK from the just-freed slot.
func (s *Sink) Receive(p *packet.Packet) {
	if !p.IsData() {
		s.p.Pool.Put(p)
		return
	}
	// inWindow: the sequence maps to an unambiguous ring slot.
	inWindow := p.Seq-s.rcvNxt <= s.oooMask
	if p.Seq >= s.rcvNxt && (!inWindow || !s.oooHas(p.Seq)) {
		// First copy of this packet: sample its one-way delay.
		s.delays.Observe(s.p.Sched.Now().Sub(p.SentAt).Seconds())
	}
	echo := ackEcho{seq: p.Seq, sentAt: p.SentAt, rtxed: p.Retransmit, ece: p.ECE}
	s.p.Pool.Put(p)

	switch {
	case echo.seq == s.rcvNxt:
		s.rcvNxt++
		s.delivered++
		s.p.Metrics.Delivered.Inc()
		// Drain any contiguous out-of-order run with one bitmap scan and
		// one word-wise clear per run instead of one bit per packet. The
		// counter bump is a single Add within this instant, which the
		// sampler cannot distinguish from per-packet increments.
		if s.oooCnt > 0 && s.oooHas(s.rcvNxt) {
			run := s.contigRun(s.rcvNxt)
			s.oooClearRange(s.rcvNxt, s.rcvNxt+run)
			s.oooCnt -= int(run)
			s.rcvNxt += run
			s.delivered += uint64(run)
			s.p.Metrics.Delivered.Add(uint64(run))
		}
		if s.oooCnt > 0 {
			// Still a hole above us: keep the dup-ACK clock running
			// by acknowledging immediately.
			s.sendAck(echo)
			return
		}
		if !s.p.DelayedAcks {
			s.sendAck(echo)
			return
		}
		if s.pendingAck {
			// Second in-order packet: coalesce into one ACK now.
			s.delayTimer.Stop()
			s.pendingAck = false
			s.sendAck(echo)
			return
		}
		s.pendingAck = true
		s.pendingPkt = echo
		s.delayTimer.Reset(s.p.DelayedAckTimeout)

	case echo.seq > s.rcvNxt:
		// Out of order: buffer and acknowledge immediately (duplicate
		// ACK), flushing any delayed ACK first. A sequence beyond the
		// advertised window is acknowledged but not buffered — it has
		// no unambiguous ring slot and a conforming sender never sends
		// one.
		s.flushPending()
		if inWindow && !s.oooHas(echo.seq) {
			s.oooSet(echo.seq)
			s.oooCnt++
		}
		s.sendAck(echo)

	default:
		// Below rcvNxt: already delivered; re-ACK so the sender can
		// make progress if its state is behind.
		s.dupsRcvd++
		s.flushPending()
		s.sendAck(echo)
	}
}

// onDelayTimeout fires when an in-order packet has waited the maximum
// delayed-ACK interval without a partner. An ACK is only ever pending
// over an empty reorder buffer — an out-of-order arrival flushes it
// before buffering — so the one sent here is purely cumulative.
func (s *Sink) onDelayTimeout() {
	if s.pendingAck {
		s.pendingAck = false
		s.ends.Out.Send(s.cumulativeAck(s.pendingPkt))
	}
}

// flushPending releases a delayed ACK immediately.
func (s *Sink) flushPending() {
	if s.pendingAck {
		s.delayTimer.Stop()
		s.pendingAck = false
		s.sendAck(s.pendingPkt)
	}
}

// sendAck emits a cumulative acknowledgment echoing the data packet's
// timing fields (SentAt and the Karn retransmission mark). A SACK receiver
// additionally reports its out-of-order holdings.
func (s *Sink) sendAck(echo ackEcho) {
	p := s.cumulativeAck(echo)
	if s.p.Variant == SACK && s.oooCnt > 0 {
		// Append into the packet's own (pooled) block storage: each
		// packet owns its SACK backing array, so in-flight ACKs never
		// share blocks and reuse is safe.
		p.SACK = s.appendSACKBlocks(p.SACK[:0], echo.seq)
	}
	s.ends.Out.Send(p)
}

// cumulativeAck counts and builds the cumulative acknowledgment of echo.
func (s *Sink) cumulativeAck(echo ackEcho) *packet.Packet {
	s.acksSent++
	s.p.Metrics.AcksSent.Inc()
	p := s.p.Pool.Get()
	p.Kind = packet.Ack
	p.Flow = s.ends.Flow
	p.Src = s.ends.Dst
	p.Dst = s.ends.Src
	p.Seq = echo.seq
	p.Ack = s.rcvNxt
	p.Size = s.p.AckSize
	p.SentAt = echo.sentAt
	p.Retransmit = echo.rtxed
	p.ECE = echo.ece
	return p
}

// maxSACKBlocks bounds the blocks per ACK, as TCP option space does.
const maxSACKBlocks = 4

// appendSACKBlocks assembles the out-of-order buffer into at most
// maxSACKBlocks contiguous [first, last) ranges appended to dst, placing
// the block containing the segment that triggered this ACK first
// (RFC 2018 §4). The bitmap is scanned in sequence order starting just
// above rcvNxt, so blocks come out sorted without any scratch space.
func (s *Sink) appendSACKBlocks(dst []packet.SACKBlock, trigger int64) []packet.SACKBlock {
	blocks := dst
	remaining := s.oooCnt
	for seq := s.rcvNxt + 1; remaining > 0 && seq <= s.rcvNxt+s.oooMask; seq++ {
		if !s.oooHas(seq) {
			continue
		}
		first := seq
		for remaining > 0 && seq <= s.rcvNxt+s.oooMask && s.oooHas(seq) {
			remaining--
			seq++
		}
		blocks = append(blocks, packet.SACKBlock{First: first, Last: seq})
	}
	// Move the triggering block to the front.
	for i, b := range blocks {
		if b.Covers(trigger) {
			blocks[0], blocks[i] = blocks[i], blocks[0]
			break
		}
	}
	if len(blocks) > maxSACKBlocks {
		blocks = blocks[:maxSACKBlocks]
	}
	return blocks
}

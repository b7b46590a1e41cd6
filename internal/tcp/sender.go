package tcp

import (
	"math"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/transport"
)

// segment records one outstanding transmission in a word: its send time
// above two flag bits, segLive and segRtxed. The zero segment is a dead
// slot, free for the sequence that next maps onto it. Send times are
// virtual nanoseconds since the start of the run, so the two bits cost
// nothing short of a 146-year horizon.
type segment uint64

const (
	// segLive marks the slot as holding an outstanding transmission.
	segLive segment = 1 << iota
	// segRtxed marks that transmission as a retransmission.
	segRtxed
	segFlagBits = iota
)

// sentSegment returns the live segment of a transmission at the given
// instant.
func sentSegment(at sim.Time, rtxed bool) segment {
	g := segment(at)<<segFlagBits | segLive
	if rtxed {
		g |= segRtxed
	}
	return g
}

func (g segment) live() bool       { return g&segLive != 0 }
func (g segment) sentAt() sim.Time { return sim.Time(g >> segFlagBits) }

// congestionControl is the variant-specific half of the sender. Hooks run
// after the sender has classified the incoming event and updated sequence
// and timing state; they adjust cwnd/ssthresh and trigger retransmissions
// through the sender's helpers.
type congestionControl interface {
	// onNewAck runs for every cumulative-ACK advance. acked is the number
	// of packets newly covered; rtt is the sample for this ACK, or zero
	// if invalid (retransmitted segment — Karn's algorithm).
	onNewAck(s *Sender, acked int64, rtt sim.Duration)
	// onDupAck runs for every duplicate ACK; count is the running total
	// since the last cumulative advance.
	onDupAck(s *Sender, count int)
	// onTimeout runs when the retransmission timer expires, before the
	// sender performs its go-back-N resend.
	onTimeout(s *Sender)
}

// Sender is a TCP sending endpoint. It is driven entirely by simulator
// events (application submissions and received ACKs) and is not safe for
// concurrent use.
type Sender struct {
	// p is the block the sender shares with the endpoints built alike.
	p    *Params
	ends Ends
	cc   congestionControl

	// Sequence state (packet-counted).
	sndUna    int64 // lowest unacknowledged sequence
	sndNxt    int64 // next sequence to transmit
	submitted int64 // application packets available (seq < submitted exist)

	// Congestion state; owned here so tracing is uniform across variants.
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	inRecovery bool
	recover    int64 // snd_nxt at loss detection (NewReno partial acks)
	ecnRecover int64 // snd_nxt at the last ECN response (once per window)

	// Outstanding segment records in a sequence-indexed ring: the window
	// never exceeds MaxWindow packets, so seq & segMask addresses a unique
	// slot for every in-flight sequence — no hashing, no delete churn.
	// Slots are cleared as the cumulative ACK advances past them, which
	// guarantees a sequence always finds its own slot dead or holding its
	// own state, never a stale alias (aliases are segMask+1 >= MaxWindow
	// sequences apart).
	segs    []segment
	segMask int64

	// sacked is the selective-acknowledgment scoreboard (SACK variant
	// only): a bitmap over the same ring marking outstanding sequences the
	// receiver has reported holding. Nil for non-SACK variants.
	sacked []uint64
	// sackHigh is one past the highest SACKed sequence; only unSACKed
	// packets below it may be presumed lost (something sent after them
	// has arrived).
	sackHigh int64

	// RTT estimation (Jacobson/Karn).
	srtt    sim.Duration
	rttvar  sim.Duration
	rto     sim.Duration
	backoff int

	rtxTimer sim.Timer
	counters Counters
	// reno holds the congestion control of the loss-based variants, so
	// the common case needs no object of its own.
	reno renoCC
}

var (
	_ transport.Source = (*Sender)(nil)
	_ transport.Agent  = (*Sender)(nil)
)

// windowRingSize returns the power-of-two ring capacity covering a
// MaxWindow-packet sequence window.
func windowRingSize(maxWindow int) int64 {
	size := int64(1)
	for size < int64(maxWindow) {
		size <<= 1
	}
	return size
}

// NewSender returns a sender for the given connection, with a parameter
// block of its own, or an error for an invalid configuration.
func NewSender(cfg Config) (*Sender, error) {
	p, err := NewParams(cfg.Params)
	if err != nil {
		return nil, err
	}
	s := new(Sender)
	if err := InitSender(s, p, cfg.Ends); err != nil {
		return nil, err
	}
	return s, nil
}

// InitSender makes s, in place, the sender of connection e running on the
// shared block p, which must come from NewParams. Builders embed senders
// in larger blocks and initialize them here.
func InitSender(s *Sender, p *Params, e Ends) error {
	if err := e.check(p); err != nil {
		return err
	}
	// A sender initialized again reuses its segment ring and scoreboard,
	// cleared, when they are large enough.
	ring := windowRingSize(p.MaxWindow)
	segs, sacked := reuse(s.segs, int(ring)), s.sacked
	*s = Sender{
		p:        p,
		ends:     e,
		cwnd:     p.InitialCwnd,
		ssthresh: p.InitialSsthresh,
		rto:      p.InitialRTO,
		backoff:  1,
		segs:     segs,
		segMask:  ring - 1,
	}
	switch p.Variant {
	case Vegas:
		s.cc = newVegasCC()
	case SACK:
		s.cc = &sackCC{}
		s.sacked = reuse(sacked, int(ring+63)/64)
	default:
		s.reno.flavor = p.Variant
		s.cc = &s.reno
	}
	s.rtxTimer.Init(p.Sched, senderTimeout, s)
	return nil
}

// reuse returns buf resized to n and zeroed, or a new slice when buf is
// too small.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// senderTimeout is the retransmission timer's expiry callback.
func senderTimeout(a any) { a.(*Sender).onTimeout() }

// Variant returns the sender's congestion-control variant.
func (s *Sender) Variant() Variant { return s.p.Variant }

// Cwnd returns the current congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Ssthresh returns the current slow-start threshold in packets.
func (s *Sender) Ssthresh() float64 { return s.ssthresh }

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (s *Sender) SRTT() sim.Duration { return s.srtt }

// RTO returns the current retransmission timeout.
func (s *Sender) RTO() sim.Duration { return s.rto }

// InRecovery reports whether the sender is in fast recovery.
func (s *Sender) InRecovery() bool { return s.inRecovery }

// Counters returns a copy of the connection counters.
func (s *Sender) Counters() Counters { return s.counters }

// Backlog returns application packets submitted but not yet transmitted.
func (s *Sender) Backlog() int64 { return s.submitted - s.sndNxt }

// FlightSize returns the number of unacknowledged in-flight packets.
func (s *Sender) FlightSize() int64 { return s.sndNxt - s.sndUna }

// StateBytes returns the sender's steady-state memory footprint: the
// struct itself plus its ring and scoreboard backing arrays. It is the
// per-flow cost reported by the large-N scaling benchmarks.
func (s *Sender) StateBytes() int {
	return int(senderStructBytes) + len(s.segs)*int(segmentBytes) + len(s.sacked)*8
}

// Submit adds one application packet to the send buffer and transmits as
// much as the window permits.
func (s *Sender) Submit() {
	s.submitted++
	s.counters.Submitted++
	s.trySend()
}

// Receive processes an inbound packet; only ACKs are meaningful to the
// sender.
func (s *Sender) Receive(p *packet.Packet) {
	if !p.IsAck() {
		s.p.Pool.Put(p)
		return
	}
	s.counters.AcksReceived++
	if s.sacked != nil {
		for _, b := range p.SACK {
			first, last := b.First, b.Last
			if first < s.sndUna {
				first = s.sndUna
			}
			// Everything ever sent lies within one MaxWindow of the
			// current snd_una (snd_una only advances), so conforming
			// blocks always fit the ring; the clamp only disarms
			// non-conforming input that would alias bitmap slots. Note
			// blocks may legitimately reach beyond snd_nxt after a
			// go-back-N rewind — those marks let trySend skip data the
			// receiver already holds.
			if max := s.sndUna + s.segMask + 1; last > max {
				last = max
			}
			s.setSACKedRange(first, last)
			if b.Last > s.sackHigh {
				s.sackHigh = b.Last
			}
		}
	}
	switch {
	case p.Ack > s.sndUna:
		s.handleNewAck(p)
	case p.Ack == s.sndUna && s.FlightSize() > 0:
		s.counters.DupAcksReceived++
		s.dupAcks++
		s.cc.onDupAck(s, s.dupAcks)
	default:
		// Stale ACK below snd_una: ignore.
	}
	// The sender is the ACK's consumption point: release before opening
	// the window so the pool can hand the slot to the packets trySend
	// emits.
	s.p.Pool.Put(p)
	s.trySend()
}

// window returns the effective send window in whole packets.
func (s *Sender) window() int64 {
	w := int64(s.cwnd)
	if w < 1 {
		w = 1
	}
	if max := int64(s.p.MaxWindow); w > max {
		w = max
	}
	return w
}

// trySend transmits new data while the window and send buffer allow. When
// the window opens after an idle spell this sends the whole permitted burst
// back-to-back — the modulation behavior under study.
func (s *Sender) trySend() {
	for s.sndNxt < s.submitted && s.sndNxt-s.sndUna < s.window() {
		if s.isSACKed(s.sndNxt) {
			// Already held by the receiver (rewound past it after a
			// partial repair): skip rather than resend.
			s.sndNxt++
			continue
		}
		s.transmit(s.sndNxt)
		s.sndNxt++
	}
}

// isSACKed reports whether the receiver has selectively acknowledged seq.
func (s *Sender) isSACKed(seq int64) bool {
	if s.sacked == nil {
		return false
	}
	idx := seq & s.segMask
	return s.sacked[idx>>6]&(1<<uint(idx&63)) != 0
}

// setSACKed marks seq on the scoreboard. seq must lie inside the
// [sndUna, sndNxt) window (the caller clamps).
func (s *Sender) setSACKed(seq int64) {
	idx := seq & s.segMask
	s.sacked[idx>>6] |= 1 << uint(idx&63)
}

// bitRange returns the mask covering avail bits starting at bit. avail is
// at most 64, and 64 only with bit 0 (ranges never cross a word).
func bitRange(bit uint, avail int64) uint64 {
	if avail == 64 {
		return ^uint64(0)
	}
	return (uint64(1)<<uint(avail) - 1) << bit
}

// rangeChunk returns the word index, mask, and sequence count covering the
// longest prefix of [seq, last) that stays inside one scoreboard word and
// does not wrap the ring. Scoreboard ranges update one word per chunk
// instead of one bit per sequence — the run-wise amortization of the
// per-segment loops on the ACK path.
func (s *Sender) rangeChunk(seq, last int64) (w int64, mask uint64, n int64) {
	idx := seq & s.segMask
	bit := uint(idx & 63)
	n = s.segMask + 1 - idx // to the ring wrap
	if c := int64(64 - bit); c < n {
		n = c
	}
	if rem := last - seq; rem < n {
		n = rem
	}
	return idx >> 6, bitRange(bit, n), n
}

// setSACKedRange marks [first, last) on the scoreboard word-wise.
func (s *Sender) setSACKedRange(first, last int64) {
	for seq := first; seq < last; {
		w, mask, n := s.rangeChunk(seq, last)
		s.sacked[w] |= mask
		seq += n
	}
}

// clearSACKedRange unmarks [first, last) on the scoreboard word-wise, as
// the cumulative ACK passes a contiguous run of sequences.
func (s *Sender) clearSACKedRange(first, last int64) {
	for seq := first; seq < last; {
		w, mask, n := s.rangeChunk(seq, last)
		s.sacked[w] &^= mask
		seq += n
	}
}

// clearSACKed empties the scoreboard (timeout: the receiver may renege).
func (s *Sender) clearSACKed() {
	for i := range s.sacked {
		s.sacked[i] = 0
	}
	s.sackHigh = 0
}

// sackedCount returns the number of scoreboard marks (test hook).
func (s *Sender) sackedCount() int {
	n := 0
	for _, w := range s.sacked {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// transmit puts the packet with the given sequence on the wire, tracking
// retransmission state.
func (s *Sender) transmit(seq int64) {
	now := s.p.Sched.Now()
	seg := &s.segs[seq&s.segMask]
	// A sequence still outstanding goes out again as a retransmission.
	rtxed := seg.live()
	if rtxed {
		s.counters.Retransmits++
		s.p.Metrics.Retransmits.Inc()
	}
	*seg = sentSegment(now, rtxed)
	s.counters.DataSent++
	s.p.Metrics.DataSent.Inc()
	p := s.p.Pool.Get()
	p.Kind = packet.Data
	p.Flow = s.ends.Flow
	p.Src = s.ends.Src
	p.Dst = s.ends.Dst
	p.Seq = seq
	p.Size = s.p.PacketSize
	p.SentAt = now
	p.Retransmit = rtxed
	if !s.rtxTimer.Armed() {
		s.rtxTimer.Reset(s.currentRTO())
	}
	s.ends.Out.Send(p)
}

// retransmitHead resends the oldest unacknowledged packet and restarts the
// retransmission timer; used by fast retransmit.
func (s *Sender) retransmitHead() {
	if s.FlightSize() <= 0 {
		return
	}
	s.transmit(s.sndUna)
	s.rtxTimer.Reset(s.currentRTO())
}

// handleNewAck advances snd_una, samples the RTT per Karn's algorithm, and
// hands window management to the variant.
func (s *Sender) handleNewAck(p *packet.Packet) {
	now := s.p.Sched.Now()
	acked := p.Ack - s.sndUna

	// Karn's algorithm: never sample RTT from a retransmitted segment —
	// the ACK could match either transmission. SentAt is stamped by the
	// sender and echoed by the sink, so it is always meaningful here.
	var rtt sim.Duration
	if !p.Retransmit {
		rtt = now.Sub(p.SentAt)
		s.updateRTT(rtt)
	}
	s.backoff = 1

	for seq := s.sndUna; seq < p.Ack; seq++ {
		s.segs[seq&s.segMask] = 0
	}
	if s.sacked != nil {
		// One word-wise scoreboard update for the whole acknowledged run
		// instead of one bit clear per segment.
		s.clearSACKedRange(s.sndUna, p.Ack)
	}
	s.sndUna = p.Ack
	if s.sndNxt < s.sndUna {
		// A go-back-N rewind can leave sndNxt behind a late ACK.
		s.sndNxt = s.sndUna
	}
	s.dupAcks = 0

	// ECN extension: an echoed congestion-experienced mark elicits the
	// same multiplicative decrease as a loss, at most once per window of
	// data, but without any retransmission.
	if p.ECE && !s.inRecovery && s.sndUna > s.ecnRecover {
		s.halveSsthresh()
		s.cwnd = s.ssthresh
		s.ecnRecover = s.sndNxt
	}

	s.cc.onNewAck(s, acked, rtt)

	if s.FlightSize() > 0 {
		s.rtxTimer.Reset(s.currentRTO())
	} else {
		s.rtxTimer.Stop()
	}
}

// onTimeout fires when the retransmission timer expires: exponential
// backoff, variant window collapse, and a go-back-N rewind so the head of
// the window is retransmitted first.
func (s *Sender) onTimeout() {
	if s.FlightSize() <= 0 {
		return
	}
	s.counters.Timeouts++
	s.p.Metrics.Timeouts.Inc()
	if s.backoff < 64 {
		s.backoff *= 2
	}
	s.dupAcks = 0
	s.cc.onTimeout(s)
	// Go-back-N: everything past snd_una is presumed lost and will be
	// resent as the window reopens.
	s.sndNxt = s.sndUna
	s.trySend()
	if s.FlightSize() > 0 {
		s.rtxTimer.Reset(s.currentRTO())
	}
}

// updateRTT folds a sample into the Jacobson estimator.
func (s *Sender) updateRTT(sample sim.Duration) {
	if sample <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = sample
		s.rttvar = sample / 2
	} else {
		diff := s.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + sample) / 8
	}
	rto := s.srtt + 4*s.rttvar
	s.rto = s.clampRTO(rto)
}

// currentRTO returns the backed-off, clamped retransmission timeout.
func (s *Sender) currentRTO() sim.Duration {
	return s.clampRTO(s.rto * sim.Duration(s.backoff))
}

func (s *Sender) clampRTO(rto sim.Duration) sim.Duration {
	if rto < s.p.MinRTO {
		return s.p.MinRTO
	}
	if rto > s.p.MaxRTO {
		return s.p.MaxRTO
	}
	return rto
}

// halveSsthresh applies the standard loss response target:
// ssthresh = max(flight/2, 2).
func (s *Sender) halveSsthresh() {
	half := float64(s.FlightSize()) / 2
	s.ssthresh = math.Max(half, 2)
}

// segSentAt returns the last transmission time of seq, or zero time if the
// segment is not outstanding.
func (s *Sender) segSentAt(seq int64) (sim.Time, bool) {
	seg := s.segs[seq&s.segMask]
	if !seg.live() {
		return 0, false
	}
	return seg.sentAt(), true
}

package tcp

import (
	"testing"
	"time"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/transport"
)

// sinkHarness drives a Sink directly with hand-built data packets and
// records the ACKs it emits.
type sinkHarness struct {
	sched *sim.Scheduler
	sink  *Sink
	out   *pipe
}

func newSinkHarness(t *testing.T, mutate func(*Config)) *sinkHarness {
	t.Helper()
	sched := sim.NewScheduler()
	out := &pipe{sched: sched, delay: time.Millisecond, dst: nopAgent{}}
	cfg := Config{Ends: Ends{Flow: 1, Src: 100, Dst: 1, Out: out}, Params: Params{Variant: Reno, Sched: sched}}
	if mutate != nil {
		mutate(&cfg)
	}
	sink, err := NewSink(cfg)
	if err != nil {
		t.Fatalf("NewSink: %v", err)
	}
	return &sinkHarness{sched: sched, sink: sink, out: out}
}

type nopAgent struct{}

func (nopAgent) Receive(*packet.Packet) {}

var _ transport.Agent = nopAgent{}

func (h *sinkHarness) deliver(seq int64) {
	h.sink.Receive(&packet.Packet{
		Kind: packet.Data, Flow: 1, Src: 100, Dst: 1,
		Seq: seq, Size: 1000, SentAt: h.sched.Now(),
	})
}

// acks returns the cumulative ACK numbers emitted so far.
func (h *sinkHarness) acks() []int64 {
	var out []int64
	for _, p := range h.out.log {
		if p.IsAck() {
			out = append(out, p.Ack)
		}
	}
	return out
}

func TestSinkCumulativeAcks(t *testing.T) {
	h := newSinkHarness(t, nil)
	for seq := int64(0); seq < 5; seq++ {
		h.deliver(seq)
	}
	want := []int64{1, 2, 3, 4, 5}
	got := h.acks()
	if len(got) != len(want) {
		t.Fatalf("acks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("acks = %v, want %v", got, want)
		}
	}
	if h.sink.Delivered() != 5 || h.sink.RcvNxt() != 5 {
		t.Errorf("Delivered=%d RcvNxt=%d, want 5/5", h.sink.Delivered(), h.sink.RcvNxt())
	}
}

func TestSinkOutOfOrderGeneratesDupAcks(t *testing.T) {
	h := newSinkHarness(t, nil)
	h.deliver(0) // ack 1
	h.deliver(2) // hole at 1: dup ack 1
	h.deliver(3) // dup ack 1
	h.deliver(4) // dup ack 1
	h.deliver(1) // fills the hole: ack 5
	want := []int64{1, 1, 1, 1, 5}
	got := h.acks()
	if len(got) != len(want) {
		t.Fatalf("acks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("acks = %v, want %v", got, want)
		}
	}
	if h.sink.Delivered() != 5 {
		t.Errorf("Delivered = %d, want 5", h.sink.Delivered())
	}
}

func TestSinkDuplicateDataReAcked(t *testing.T) {
	h := newSinkHarness(t, nil)
	h.deliver(0)
	h.deliver(1)
	h.deliver(0) // duplicate of already-delivered data
	got := h.acks()
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("acks = %v, want re-ACK of 2", got)
	}
	if h.sink.DuplicatesReceived() != 1 {
		t.Errorf("DuplicatesReceived = %d, want 1", h.sink.DuplicatesReceived())
	}
	if h.sink.Delivered() != 2 {
		t.Errorf("Delivered = %d, want 2 (duplicate not double-counted)", h.sink.Delivered())
	}
}

func TestSinkIgnoresAcks(t *testing.T) {
	h := newSinkHarness(t, nil)
	h.sink.Receive(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 5})
	if len(h.out.log) != 0 {
		t.Error("sink responded to an ACK packet")
	}
}

func TestSinkEchoesTimingFields(t *testing.T) {
	h := newSinkHarness(t, nil)
	h.sink.Receive(&packet.Packet{
		Kind: packet.Data, Flow: 1, Seq: 0, Size: 1000,
		SentAt: sim.TimeZero.Add(123 * time.Millisecond), Retransmit: true, ECE: true,
	})
	if len(h.out.log) != 1 {
		t.Fatalf("no ack emitted")
	}
	ack := h.out.log[0]
	if ack.SentAt != sim.TimeZero.Add(123*time.Millisecond) {
		t.Errorf("SentAt echo = %v", ack.SentAt)
	}
	if !ack.Retransmit {
		t.Error("Karn retransmit mark not echoed")
	}
	if !ack.ECE {
		t.Error("ECE mark not echoed")
	}
	if ack.Seq != 0 {
		t.Errorf("echoed Seq = %d, want 0", ack.Seq)
	}
	if ack.Src != 1 || ack.Dst != 100 {
		t.Errorf("ack addressed %d->%d, want 1->100", ack.Src, ack.Dst)
	}
}

func TestDelayedAckCoalescesPairs(t *testing.T) {
	h := newSinkHarness(t, func(c *Config) { c.DelayedAcks = true })
	h.deliver(0) // held
	h.deliver(1) // coalesced: one ACK of 2
	got := h.acks()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("acks = %v, want [2]", got)
	}
	if h.sink.AcksSent() != 1 {
		t.Errorf("AcksSent = %d, want 1", h.sink.AcksSent())
	}
}

func TestDelayedAckTimerFires(t *testing.T) {
	h := newSinkHarness(t, func(c *Config) { c.DelayedAcks = true })
	h.deliver(0)
	if len(h.acks()) != 0 {
		t.Fatal("ACK sent immediately despite delayed ACKs")
	}
	if err := h.sched.Run(h.sched.Now().Add(150 * time.Millisecond)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := h.acks()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("acks after timer = %v, want [1]", got)
	}
}

func TestDelayedAckOutOfOrderFlushesImmediately(t *testing.T) {
	h := newSinkHarness(t, func(c *Config) { c.DelayedAcks = true })
	h.deliver(0) // held
	h.deliver(2) // out of order: flush pending ACK and send dup ACK now
	got := h.acks()
	if len(got) != 2 {
		t.Fatalf("acks = %v, want pending flush + dup", got)
	}
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("acks = %v, want [1 1]", got)
	}
}

func TestDelayedAckHoleKeepsImmediateAcks(t *testing.T) {
	h := newSinkHarness(t, func(c *Config) { c.DelayedAcks = true })
	h.deliver(0)
	h.deliver(1) // coalesced: ack 2
	h.deliver(3) // hole at 2: immediate dup ack 2
	h.deliver(2) // repairs the hole; rcvNxt jumps to 4
	got := h.acks()
	if len(got) < 2 {
		t.Fatalf("acks = %v", got)
	}
	if err := h.sched.Run(h.sched.Now().Add(150 * time.Millisecond)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	final := h.acks()
	if final[len(final)-1] != 4 {
		t.Fatalf("final ack = %v, want 4", final)
	}
	if h.sink.Delivered() != 4 {
		t.Errorf("Delivered = %d, want 4", h.sink.Delivered())
	}
}

func TestDelayedAckSlowsWindowGrowth(t *testing.T) {
	// With delayed ACKs the sender receives roughly half the ACKs, so
	// slow start ramps more slowly — the mechanism behind the paper's
	// Reno/DelayAck curve.
	plain := newConn(t, Reno, nil)
	delayed := newConn(t, Reno, func(c *Config) { c.DelayedAcks = true })
	plain.submit(2000)
	delayed.submit(2000)
	plain.run(t, 100*time.Millisecond)
	delayed.run(t, 100*time.Millisecond)
	if plain.fwd.dataSent() <= delayed.fwd.dataSent() {
		t.Errorf("plain sent %d <= delayed %d; delayed ACKs should slow the ramp",
			plain.fwd.dataSent(), delayed.fwd.dataSent())
	}
}

func TestSinkConfigValidation(t *testing.T) {
	if _, err := NewSink(Config{Params: Params{Variant: Reno, Sched: sim.NewScheduler()}}); err == nil {
		t.Error("NewSink accepted nil wire")
	}
	if _, err := NewSink(Config{Ends: Ends{Out: &pipe{}}, Params: Params{Variant: Reno}}); err == nil {
		t.Error("NewSink accepted nil scheduler")
	}
}

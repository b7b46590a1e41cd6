package tcp

import (
	"testing"
	"time"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/transport"
)

// pipe is a zero-bandwidth, fixed-delay wire with programmable loss, used
// to drive a sender/sink pair deterministically in unit tests.
type pipe struct {
	sched *sim.Scheduler
	delay sim.Duration
	dst   transport.Agent
	// drop, when non-nil, discards packets it returns true for.
	drop func(p *packet.Packet) bool
	// log records every packet offered to the pipe (including dropped).
	log []*packet.Packet
}

func (w *pipe) Send(p *packet.Packet) {
	w.log = append(w.log, p)
	if w.drop != nil && w.drop(p) {
		return
	}
	w.sched.After(w.delay, func() { w.dst.Receive(p) })
}

// dataSent counts data packets offered to the pipe.
func (w *pipe) dataSent() int {
	n := 0
	for _, p := range w.log {
		if p.IsData() {
			n++
		}
	}
	return n
}

// conn bundles one test connection.
type conn struct {
	sched  *sim.Scheduler
	sender *Sender
	sink   *Sink
	fwd    *pipe // sender -> sink
	rev    *pipe // sink -> sender
}

// newConn builds a sender/sink pair joined by two fixed-delay pipes
// (default 10 ms each way, so RTT = 20 ms).
func newConn(t *testing.T, variant Variant, mutate func(*Config)) *conn {
	t.Helper()
	sched := sim.NewScheduler()
	fwd := &pipe{sched: sched, delay: 10 * time.Millisecond}
	rev := &pipe{sched: sched, delay: 10 * time.Millisecond}

	cfg := Config{
		Ends:   Ends{Flow: 1, Src: 100, Dst: 1},
		Params: Params{Variant: variant, Sched: sched},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sendCfg := cfg
	sendCfg.Out = fwd
	sender, err := NewSender(sendCfg)
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	sinkCfg := cfg
	sinkCfg.Out = rev
	sink, err := NewSink(sinkCfg)
	if err != nil {
		t.Fatalf("NewSink: %v", err)
	}
	fwd.dst = sink
	rev.dst = sender
	return &conn{sched: sched, sender: sender, sink: sink, fwd: fwd, rev: rev}
}

// submit hands n application packets to the sender at the current instant.
func (c *conn) submit(n int) {
	for i := 0; i < n; i++ {
		c.sender.Submit()
	}
}

// run advances the simulation by d.
func (c *conn) run(t *testing.T, d sim.Duration) {
	t.Helper()
	if err := c.sched.Run(c.sched.Now().Add(d)); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// dropSeqOnce returns a drop function discarding the first transmission of
// each listed data sequence number.
func dropSeqOnce(seqs ...int64) func(*packet.Packet) bool {
	pending := make(map[int64]bool, len(seqs))
	for _, s := range seqs {
		pending[s] = true
	}
	return func(p *packet.Packet) bool {
		if p.IsData() && pending[p.Seq] {
			delete(pending, p.Seq)
			return true
		}
		return false
	}
}

// dropSeqTimes returns a drop function discarding the first k transmissions
// of one data sequence number.
func dropSeqTimes(seq int64, k int) func(*packet.Packet) bool {
	remaining := k
	return func(p *packet.Packet) bool {
		if p.IsData() && p.Seq == seq && remaining > 0 {
			remaining--
			return true
		}
		return false
	}
}

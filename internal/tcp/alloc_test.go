package tcp

import (
	"testing"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/transport"
)

// directWire delivers packets through a zero-delay scheduler event with no
// logging and a prebound callback: the transmit → receive → ACK →
// ACK-processing round trip completes within one scheduler drain without
// any per-packet closure, which lets AllocsPerRun watch the complete
// transport data path.
type directWire struct {
	sched     *sim.Scheduler
	dst       transport.Agent
	deliverFn func(any)
}

func newDirectWire(sched *sim.Scheduler) *directWire {
	w := &directWire{sched: sched}
	w.deliverFn = w.deliver
	return w
}

func (w *directWire) Send(p *packet.Packet) { w.sched.AfterCall(0, w.deliverFn, p) }
func (w *directWire) deliver(arg any)       { w.dst.Receive(arg.(*packet.Packet)) }

// directConn bundles a sender/sink pair joined by zero-delay wires and
// backed by a shared packet pool — the configuration under which the
// steady-state data path must not allocate.
type directConn struct {
	sched *sim.Scheduler
	snd   *Sender
	snk   *Sink
}

func newDirectConn(t testing.TB, variant Variant) *directConn {
	t.Helper()
	sched := sim.NewScheduler()
	pool := packet.NewPool()
	fwd := newDirectWire(sched)
	rev := newDirectWire(sched)
	cfg := Config{Ends: Ends{Flow: 1, Src: 2, Dst: 1}, Params: Params{Variant: variant, Sched: sched, Pool: pool}}

	sendCfg := cfg
	sendCfg.Out = fwd
	snd, err := NewSender(sendCfg)
	if err != nil {
		t.Fatalf("NewSender: %v", err)
	}
	sinkCfg := cfg
	sinkCfg.Out = rev
	snk, err := NewSink(sinkCfg)
	if err != nil {
		t.Fatalf("NewSink: %v", err)
	}
	fwd.dst = snk
	rev.dst = snd
	return &directConn{sched: sched, snd: snd, snk: snk}
}

// roundTrip submits one application packet and drains the event queue, so
// the packet is transmitted, received, acknowledged, and the ACK processed.
func (c *directConn) roundTrip() {
	c.snd.Submit()
	for c.sched.Step() {
	}
}

// testSteadyStateAllocs asserts the per-packet budget: after warmup (pool
// populated, scheduler arena sized, delay-sample reservoir past a growth
// boundary) one application packet through transmit, sink receive, ACK
// generation and ACK processing performs zero heap allocations.
func testSteadyStateAllocs(t *testing.T, variant Variant) {
	t.Helper()
	c := newDirectConn(t, variant)
	// Warm past a samples-reservoir doubling (stride 8, so 1100 packets
	// leave the reservoir mid-capacity) and size every arena.
	for i := 0; i < 1100; i++ {
		c.roundTrip()
	}
	allocs := testing.AllocsPerRun(200, c.roundTrip)
	if allocs != 0 {
		t.Errorf("steady-state data path allocates %.2f times per packet, want 0", allocs)
	}
	if got, want := c.snk.Delivered(), uint64(1100+201); got != want {
		t.Fatalf("delivered = %d, want %d (round trips must have completed)", got, want)
	}
	if got := c.snd.FlightSize(); got != 0 {
		t.Fatalf("flight = %d, want 0 (ACK processing must have completed)", got)
	}
}

func TestRenoSteadyStateZeroAllocs(t *testing.T) { testSteadyStateAllocs(t, Reno) }
func TestSACKSteadyStateZeroAllocs(t *testing.T) { testSteadyStateAllocs(t, SACK) }

// BenchmarkTransportRoundTrip reports the same path as a benchmark with
// ReportAllocs, so allocation regressions also surface in bench output.
func BenchmarkTransportRoundTrip(b *testing.B) {
	c := newDirectConn(b, Reno)
	for i := 0; i < 1100; i++ {
		c.roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.roundTrip()
	}
}

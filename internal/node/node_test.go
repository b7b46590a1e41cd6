package node

import (
	"testing"
	"time"

	"tcpburst/internal/link"
	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
)

// recorder is a minimal agent that remembers what it received.
type recorder struct {
	pkts []*packet.Packet
}

func (r *recorder) Receive(p *packet.Packet) { r.pkts = append(r.pkts, p) }

func TestHostDispatchesByFlow(t *testing.T) {
	h := NewHost(5)
	if h.Addr() != 5 {
		t.Errorf("Addr() = %d, want 5", h.Addr())
	}
	a, b := &recorder{}, &recorder{}
	h.Bind(1, a)
	h.Bind(2, b)
	h.Receive(&packet.Packet{Flow: 1, Seq: 10})
	h.Receive(&packet.Packet{Flow: 2, Seq: 20})
	h.Receive(&packet.Packet{Flow: 3, Seq: 30}) // unbound: silently dropped
	if len(a.pkts) != 1 || a.pkts[0].Seq != 10 {
		t.Errorf("agent a received %v", a.pkts)
	}
	if len(b.pkts) != 1 || b.pkts[0].Seq != 20 {
		t.Errorf("agent b received %v", b.pkts)
	}
}

func TestGatewayRoutesByDestination(t *testing.T) {
	sched := sim.NewScheduler()
	g := NewGateway(0)
	if g.Addr() != 0 {
		t.Errorf("Addr() = %d", g.Addr())
	}

	dstA, dstB := NewHost(1), NewHost(2)
	ra, rb := &recorder{}, &recorder{}
	dstA.Bind(1, ra)
	dstB.Bind(1, rb)

	mkLink := func(dst link.Receiver) *link.Link {
		l, err := link.New(sched, link.Config{
			Wiring: link.Wiring{Name: "l", Delay: time.Millisecond, Queue: queue.NewFIFO(10), Dst: dst},
			Params: link.Params{RateBps: 1e9},
		})
		if err != nil {
			t.Fatalf("link.New: %v", err)
		}
		return l
	}
	la, lb := mkLink(dstA), mkLink(dstB)
	if err := g.AddRoute(1, la); err != nil {
		t.Fatalf("AddRoute: %v", err)
	}
	if err := g.AddRoute(2, lb); err != nil {
		t.Fatalf("AddRoute: %v", err)
	}

	g.Receive(&packet.Packet{Flow: 1, Dst: 1, Seq: 100, Size: 40})
	g.Receive(&packet.Packet{Flow: 1, Dst: 2, Seq: 200, Size: 40})
	g.Receive(&packet.Packet{Flow: 1, Dst: 9, Seq: 300, Size: 40}) // no route

	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(ra.pkts) != 1 || ra.pkts[0].Seq != 100 {
		t.Errorf("host A received %v", ra.pkts)
	}
	if len(rb.pkts) != 1 || rb.pkts[0].Seq != 200 {
		t.Errorf("host B received %v", rb.pkts)
	}
}

func TestGatewayDuplicateRouteRejected(t *testing.T) {
	sched := sim.NewScheduler()
	g := NewGateway(0)
	l, err := link.New(sched, link.Config{
		Wiring: link.Wiring{Name: "l", Delay: 0, Queue: queue.NewFIFO(1), Dst: NewHost(1)},
		Params: link.Params{RateBps: 1e9},
	})
	if err != nil {
		t.Fatalf("link.New: %v", err)
	}
	if err := g.AddRoute(1, l); err != nil {
		t.Fatalf("first AddRoute: %v", err)
	}
	if err := g.AddRoute(1, l); err == nil {
		t.Error("duplicate AddRoute succeeded")
	}
	if g.Route(1) != l {
		t.Error("Route(1) did not return the registered link")
	}
	if g.Route(9) != nil {
		t.Error("Route(9) returned a link for an unknown destination")
	}
}

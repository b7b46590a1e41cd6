package link

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
)

// collector records delivered packets with their arrival times.
type collector struct {
	sched *sim.Scheduler
	pkts  []*packet.Packet
	times []sim.Time
}

func (c *collector) Receive(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.sched.Now())
}

func newTestLink(t *testing.T, sched *sim.Scheduler, rate float64, delay sim.Duration, cap int) (*Link, *collector) {
	t.Helper()
	dst := &collector{sched: sched}
	l, err := New(sched, Config{
		Wiring: Wiring{Name: "test", Delay: delay, Queue: queue.NewFIFO(cap), Dst: dst},
		Params: Params{RateBps: rate},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l, dst
}

func data(seq int64, size int) *packet.Packet {
	return &packet.Packet{Kind: packet.Data, Seq: seq, Size: size}
}

func TestLinkConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &collector{sched: sched}
	good := Config{
		Wiring: Wiring{Name: "l", Delay: time.Millisecond, Queue: queue.NewFIFO(1), Dst: dst},
		Params: Params{RateBps: 1e6},
	}

	cases := []struct {
		name   string
		mutate func(*Config)
		sched  *sim.Scheduler
		substr string
	}{
		{"nil scheduler", func(c *Config) {}, nil, "scheduler"},
		{"zero rate", func(c *Config) { c.RateBps = 0 }, sched, "rate"},
		{"negative delay", func(c *Config) { c.Delay = -1 }, sched, "delay"},
		{"nil queue", func(c *Config) { c.Queue = nil }, sched, "queue"},
		{"nil dst", func(c *Config) { c.Dst = nil }, sched, "destination"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			if _, err := New(tc.sched, cfg); err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("New error = %v, want mention of %q", err, tc.substr)
			}
		})
	}
	if _, err := New(sched, good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestLinkDeliveryLatency(t *testing.T) {
	sched := sim.NewScheduler()
	// 8 Mbps: a 1000-byte packet serializes in exactly 1 ms.
	l, dst := newTestLink(t, sched, 8e6, 5*time.Millisecond, 10)
	l.Send(data(0, 1000))
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := sim.TimeZero.Add(6 * time.Millisecond) // 1ms tx + 5ms prop
	if len(dst.times) != 1 || dst.times[0] != want {
		t.Fatalf("delivered at %v, want %v", dst.times, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	sched := sim.NewScheduler()
	l, dst := newTestLink(t, sched, 8e6, 0, 10)
	for i := int64(0); i < 5; i++ {
		l.Send(data(i, 1000))
	}
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(dst.times) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(dst.times))
	}
	for i, at := range dst.times {
		want := sim.TimeZero.Add(time.Duration(i+1) * time.Millisecond)
		if at != want {
			t.Errorf("packet %d delivered at %v, want %v", i, at, want)
		}
	}
}

func TestLinkPipelinesPropagation(t *testing.T) {
	// Propagation of one packet overlaps serialization of the next: two
	// packets on a 1ms-tx, 10ms-prop link arrive at 11ms and 12ms, not
	// 11ms and 22ms.
	sched := sim.NewScheduler()
	l, dst := newTestLink(t, sched, 8e6, 10*time.Millisecond, 10)
	l.Send(data(0, 1000))
	l.Send(data(1, 1000))
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []sim.Time{
		sim.TimeZero.Add(11 * time.Millisecond),
		sim.TimeZero.Add(12 * time.Millisecond),
	}
	for i := range want {
		if dst.times[i] != want[i] {
			t.Errorf("packet %d at %v, want %v", i, dst.times[i], want[i])
		}
	}
}

func TestLinkOrderPreserved(t *testing.T) {
	sched := sim.NewScheduler()
	l, dst := newTestLink(t, sched, 1e6, time.Millisecond, 100)
	for i := int64(0); i < 50; i++ {
		l.Send(data(i, 100+int(i)*10)) // mixed sizes
	}
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, p := range dst.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("reordering: position %d has seq %d", i, p.Seq)
		}
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	sched := sim.NewScheduler()
	l, dst := newTestLink(t, sched, 8e6, 0, 3)
	var dropped []*packet.Packet
	l.OnDrop(func(_ sim.Time, p *packet.Packet) { dropped = append(dropped, p) })
	// Burst of 10 at t=0: 1 enters service, 3 queue, 6 drop.
	for i := int64(0); i < 10; i++ {
		l.Send(data(i, 1000))
	}
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(dst.pkts) != 4 {
		t.Errorf("delivered %d, want 4 (1 in service + 3 queued)", len(dst.pkts))
	}
	if len(dropped) != 6 {
		t.Errorf("dropped %d, want 6", len(dropped))
	}
	st := l.Stats()
	if st.Arrivals != 10 || st.Drops != 6 || st.Departures != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.DeliveredBytes != 4000 {
		t.Errorf("DeliveredBytes = %d, want 4000", st.DeliveredBytes)
	}
}

func TestLinkThroughputBoundedByRate(t *testing.T) {
	sched := sim.NewScheduler()
	// 1 Mbps link, 1000-byte packets → 125 packets/second max.
	l, dst := newTestLink(t, sched, 1e6, 0, 10000)
	for i := int64(0); i < 10000; i++ {
		l.Send(data(i, 1000))
	}
	horizon := sim.TimeZero.Add(10 * time.Second)
	if err := sched.Run(horizon); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// In 10 seconds at most 1250 packets fit.
	if len(dst.pkts) > 1250 {
		t.Errorf("delivered %d packets in 10s on a 125 pkt/s link", len(dst.pkts))
	}
	if len(dst.pkts) < 1249 {
		t.Errorf("delivered %d packets, want the link saturated (~1250)", len(dst.pkts))
	}
}

func TestLinkOnArrivalSeesDroppedPacketsToo(t *testing.T) {
	sched := sim.NewScheduler()
	l, _ := newTestLink(t, sched, 8e6, 0, 1)
	seen := 0
	l.OnArrival(func(sim.Time, *packet.Packet) { seen++ })
	for i := int64(0); i < 5; i++ {
		l.Send(data(i, 1000))
	}
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if seen != 5 {
		t.Errorf("arrival tap saw %d packets, want 5 (including dropped)", seen)
	}
}

func TestLinkIdleThenBusyCycles(t *testing.T) {
	sched := sim.NewScheduler()
	l, dst := newTestLink(t, sched, 8e6, 0, 10)
	// Send one packet, let it drain, send another much later.
	l.Send(data(0, 1000))
	sched.After(100*time.Millisecond, func() { l.Send(data(1, 1000)) })
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []sim.Time{
		sim.TimeZero.Add(time.Millisecond),
		sim.TimeZero.Add(101 * time.Millisecond),
	}
	for i := range want {
		if dst.times[i] != want[i] {
			t.Errorf("packet %d at %v, want %v", i, dst.times[i], want[i])
		}
	}
}

func TestLinkQueueLenAndName(t *testing.T) {
	sched := sim.NewScheduler()
	l, _ := newTestLink(t, sched, 8e6, 0, 10)
	if l.Name() != "test" {
		t.Errorf("Name() = %q", l.Name())
	}
	for i := int64(0); i < 5; i++ {
		l.Send(data(i, 1000))
	}
	// One packet is in service; four remain queued.
	if l.QueueLen() != 4 {
		t.Errorf("QueueLen() = %d, want 4", l.QueueLen())
	}
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if l.QueueLen() != 0 {
		t.Errorf("QueueLen() = %d after drain, want 0", l.QueueLen())
	}
}

func TestLinkWireLossValidation(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &collector{sched: sched}
	base := Config{
		Wiring: Wiring{Name: "l", Delay: 0, Queue: queue.NewFIFO(10), Dst: dst},
		Params: Params{RateBps: 1e6},
	}

	cfg := base
	cfg.LossProb = 0.5 // missing RNG
	if _, err := New(sched, cfg); err == nil {
		t.Error("loss probability without RNG accepted")
	}
	cfg.LossProb = 1.0
	cfg.LossRNG = sim.NewRNG(1)
	if _, err := New(sched, cfg); err == nil {
		t.Error("loss probability 1.0 accepted")
	}
	cfg.LossProb = -0.1
	if _, err := New(sched, cfg); err == nil {
		t.Error("negative loss probability accepted")
	}
	cfg.LossProb = 0.3
	if _, err := New(sched, cfg); err != nil {
		t.Errorf("valid lossy config rejected: %v", err)
	}
}

func TestLinkWireLossRate(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &collector{sched: sched}
	l, err := New(sched, Config{
		Wiring: Wiring{Name: "lossy", Delay: 0, Queue: queue.NewFIFO(100000), Dst: dst},
		Params: Params{RateBps: 1e9, LossProb: 0.2, LossRNG: sim.NewRNG(7)},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const n = 20000
	for i := int64(0); i < n; i++ {
		l.Send(data(i, 1000))
	}
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	st := l.Stats()
	if st.Departures != n {
		t.Fatalf("departures = %d, want %d (loss is after serialization)", st.Departures, n)
	}
	rate := float64(st.WireLosses) / n
	if rate < 0.18 || rate > 0.22 {
		t.Errorf("wire loss rate %.4f, want ~0.2", rate)
	}
	if uint64(len(dst.pkts))+st.WireLosses != n {
		t.Errorf("delivered %d + lost %d != %d", len(dst.pkts), st.WireLosses, n)
	}
}

func TestLinkWireLossPreservesOrder(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &collector{sched: sched}
	l, err := New(sched, Config{
		Wiring: Wiring{Name: "lossy", Delay: time.Millisecond, Queue: queue.NewFIFO(1000), Dst: dst},
		Params: Params{RateBps: 1e6, LossProb: 0.3, LossRNG: sim.NewRNG(3)},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := int64(0); i < 500; i++ {
		l.Send(data(i, 100))
	}
	if err := sched.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	last := int64(-1)
	for _, p := range dst.pkts {
		if p.Seq <= last {
			t.Fatalf("reordering through lossy link: %d after %d", p.Seq, last)
		}
		last = p.Seq
	}
}

// ---- serialization pipelining (virtual drain) ------------------------

func newVirtualPair(t *testing.T, rate float64, delay sim.Duration, cap int) (vl, pl *Link, vd, pd *collector, vs, ps *sim.Scheduler) {
	t.Helper()
	mk := func(disable bool) (*Link, *collector, *sim.Scheduler) {
		sched := sim.NewScheduler()
		dst := &collector{sched: sched}
		l, err := New(sched, Config{
			Wiring: Wiring{Name: "virt", Delay: delay, Queue: queue.NewFIFO(cap), Dst: dst, Lane: sim.NewLanes().Next()},
			Params: Params{RateBps: rate, Overprovisioned: true, DisableBatching: disable},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return l, dst, sched
	}
	vl, vd, vs = mk(false)
	pl, pd, ps = mk(true)
	return
}

// TestLinkVirtualMatchesPerEvent replays a bursty admission pattern —
// back-to-back burst, idle gap, second burst — through the pipelined
// and per-event paths and requires identical delivery instants and
// departure stats.
func TestLinkVirtualMatchesPerEvent(t *testing.T) {
	vl, pl, vd, pd, vs, ps := newVirtualPair(t, 8e6, 5*time.Millisecond, 64)
	drive := func(sched *sim.Scheduler, l *Link) {
		for i := int64(0); i < 6; i++ {
			i := i
			sched.At(sim.TimeZero, func() { l.Send(data(i, 1000)) })
		}
		sched.At(sim.TimeZero.Add(20*time.Millisecond), func() { l.Send(data(6, 400)) })
		if err := sched.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
	}
	drive(vs, vl)
	drive(ps, pl)
	if len(vd.times) != len(pd.times) {
		t.Fatalf("virtual delivered %d, per-event %d", len(vd.times), len(pd.times))
	}
	for i := range vd.times {
		if vd.times[i] != pd.times[i] || vd.pkts[i].Seq != pd.pkts[i].Seq {
			t.Errorf("delivery %d: virtual (seq %d at %v), per-event (seq %d at %v)",
				i, vd.pkts[i].Seq, vd.times[i], pd.pkts[i].Seq, pd.times[i])
		}
	}
	vl.FinishVirtual(vs.Now())
	if vl.Stats() != pl.Stats() {
		t.Errorf("stats diverge: virtual %+v, per-event %+v", vl.Stats(), pl.Stats())
	}
}

// TestLinkVirtualQueueLen checks the depth probe mid-burst: the ring
// cursor drain must report the same occupancy the real queue would.
func TestLinkVirtualQueueLen(t *testing.T) {
	vl, pl, _, _, vs, ps := newVirtualPair(t, 8e6, 5*time.Millisecond, 64)
	depths := func(sched *sim.Scheduler, l *Link) []int {
		var got []int
		sched.At(sim.TimeZero, func() {
			for i := int64(0); i < 5; i++ {
				l.Send(data(i, 1000))
			}
		})
		// Probe between serializations: at 2.5ms two packets have started
		// (one departed, one on the wire), three still queue.
		for _, at := range []sim.Duration{2500 * time.Microsecond, 4500 * time.Microsecond, 10 * time.Millisecond} {
			sched.At(sim.TimeZero.Add(at), func() { got = append(got, l.QueueLen()) })
		}
		if err := sched.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		return got
	}
	vq := depths(vs, vl)
	pq := depths(ps, pl)
	if fmt.Sprint(vq) != fmt.Sprint(pq) {
		t.Errorf("QueueLen probes: virtual %v, per-event %v", vq, pq)
	}
}

// TestLinkFinishVirtualSettlesHorizon stops a run mid-pipeline and pins
// FinishVirtual's two settlement duties: completions the horizon passed
// are returned as elided-event credit, and admissions it caught
// mid-serialization are backed out of the optimistic departure stats —
// landing on exactly the per-event path's counters.
func TestLinkFinishVirtualSettlesHorizon(t *testing.T) {
	vl, pl, vd, pd, vs, ps := newVirtualPair(t, 8e6, 5*time.Millisecond, 64)
	horizon := sim.TimeZero.Add(2500 * time.Microsecond)
	drive := func(sched *sim.Scheduler, l *Link) {
		sched.At(sim.TimeZero, func() {
			for i := int64(0); i < 5; i++ {
				l.Send(data(i, 1000))
			}
		})
		if err := sched.Run(horizon); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	drive(vs, vl)
	drive(ps, pl)
	credit := vl.FinishVirtual(horizon)
	// Serializations complete at 1ms and 2ms; the third is on the wire at
	// the 2.5ms horizon and must be backed out.
	if vl.Stats() != pl.Stats() {
		t.Errorf("stats after settlement: virtual %+v, per-event %+v", vl.Stats(), pl.Stats())
	}
	if got, want := vl.Stats().Departures, uint64(2); got != want {
		t.Errorf("Departures = %d, want %d", got, want)
	}
	// The per-event path executed one send event plus two serialize-done
	// events; the virtual path's fired count plus the settlement credit
	// must match it exactly (this is the SimEvents digest invariant).
	if got, want := vs.Fired()+credit, ps.Fired(); got != want {
		t.Errorf("virtual Fired+credit = %d, want per-event %d", got, want)
	}
	if len(vd.times) != 0 || len(pd.times) != 0 {
		t.Errorf("deliveries before horizon: virtual %d, per-event %d (want none)", len(vd.times), len(pd.times))
	}
}

// TestLinkVirtualPanicsWhenOverprovisionedLied floods a small queue:
// the pipeline cannot replay a drop decision, so a violated capacity
// guarantee must fail loudly.
func TestLinkVirtualPanicsWhenOverprovisionedLied(t *testing.T) {
	sched := sim.NewScheduler()
	dst := &collector{sched: sched}
	l, err := New(sched, Config{
		Wiring: Wiring{Name: "tiny", Delay: 0, Queue: queue.NewFIFO(2), Dst: dst, Lane: sim.NewLanes().Next()},
		Params: Params{RateBps: 8e6, Overprovisioned: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic despite exceeding declared capacity")
		}
		if !strings.Contains(fmt.Sprint(r), "overprovisioned") {
			t.Errorf("panic = %v, want mention of overprovisioned", r)
		}
	}()
	for i := int64(0); i < 4; i++ {
		l.Send(data(i, 1000))
	}
}

// poolSink returns every delivered packet to its pool.
type poolSink struct {
	pool *packet.Pool
	n    int
}

func (d *poolSink) Receive(p *packet.Packet) {
	d.n++
	d.pool.Put(p)
}

// TestLinkSerializeDoneAllocFree covers the per-event path's dispatch, with
// batching on and off: each packet's (serializeDone, link) event and the
// train delivery behind it run without allocating.
func TestLinkSerializeDoneAllocFree(t *testing.T) {
	for _, disable := range []bool{false, true} {
		sched := sim.NewScheduler()
		pool := packet.NewPool()
		dst := &poolSink{pool: pool}
		l, err := New(sched, Config{
			Wiring: Wiring{Name: "alloc", Delay: time.Millisecond, Queue: queue.NewFIFO(8), Dst: dst, Lane: sim.NewLanes().Next()},
			Params: Params{RateBps: 8e6, Pool: pool, DisableBatching: disable},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if l.Pipelined() {
			t.Fatal("a link without the overprovisioning proof pipelines")
		}
		burst := func() {
			for i := 0; i < 3; i++ {
				p := pool.Get()
				p.Kind, p.Size = packet.Data, 1000
				l.Send(p)
			}
			if err := sched.RunAll(); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
		}
		for i := 0; i < 16; i++ {
			burst()
		}
		if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
			t.Errorf("DisableBatching=%v: a three-packet burst allocates %.1f objects, want 0", disable, allocs)
		}
		if want := 3 * (16 + 201); dst.n != want || l.Stats().Departures != uint64(want) {
			t.Errorf("DisableBatching=%v: delivered %d, departed %d, want %d", disable, dst.n, l.Stats().Departures, want)
		}
	}
}

// TestLinkRecycleThenInitMatchesNew: a link recycled mid-run drops the
// packet in serialization, its train's deliveries, its queue, its
// destination and its taps, and once initialized again it delivers
// exactly what a new link does.
func TestLinkRecycleThenInitMatchesNew(t *testing.T) {
	drive := func(sched *sim.Scheduler, l *Link) {
		for i := int64(0); i < 40; i++ {
			sched.At(sim.TimeZero.Add(sim.Duration(i)*100*time.Microsecond), func() { l.Send(data(i, 1000)) })
		}
	}
	sched := sim.NewScheduler()
	used, _ := newTestLink(t, sched, 8e6, 5*time.Millisecond, 64)
	used.OnArrival(func(sim.Time, *packet.Packet) {})
	drive(sched, used)
	if err := sched.Run(sim.TimeZero.Add(3 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if used.inflight == nil || used.train.Len() == 0 {
		t.Fatalf("mid-run link holds no packet to drop: inflight %v, %d deliveries", used.inflight, used.train.Len())
	}
	sched.Reset()
	used.Recycle()
	if used.inflight != nil || used.train.Len() != 0 || used.Queue() != nil || used.w.Dst != nil || used.onArrival != nil {
		t.Fatalf("recycled link kept inflight %v, %d deliveries, queue %v, destination %v, arrival tap %v",
			used.inflight, used.train.Len(), used.Queue(), used.w.Dst, used.onArrival != nil)
	}

	reusedDst := &collector{sched: sched}
	p, err := NewParams(sched, Params{RateBps: 8e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := Init(used, p, Wiring{Name: "again", Delay: 5 * time.Millisecond, Queue: queue.NewFIFO(64), Dst: reusedDst}); err != nil {
		t.Fatal(err)
	}
	drive(sched, used)
	freshSched := sim.NewScheduler()
	fresh, freshDst := newTestLink(t, freshSched, 8e6, 5*time.Millisecond, 64)
	drive(freshSched, fresh)
	for _, s := range []*sim.Scheduler{sched, freshSched} {
		if err := s.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	if len(reusedDst.times) != 40 || fmt.Sprint(reusedDst.times) != fmt.Sprint(freshDst.times) || used.Stats() != fresh.Stats() {
		t.Errorf("reused link delivered at %v (%+v), new link at %v (%+v)", reusedDst.times, used.Stats(), freshDst.times, fresh.Stats())
	}
}

// releaser returns every packet delivered to it to its pool.
type releaser struct{ pool *packet.Pool }

func (r releaser) Receive(p *packet.Packet) { r.pool.Put(p) }

// TestLinkRecycleReturnsPackets: recycling a link mid-run returns the
// packet in serialization, the deliveries in its train and its queue's
// backlog to its pool, each exactly once, on the per-event and the
// pipelined path alike.
func TestLinkRecycleReturnsPackets(t *testing.T) {
	for _, overprov := range []bool{false, true} {
		sched := sim.NewScheduler()
		pool := packet.NewPool()
		l, err := New(sched, Config{
			Wiring: Wiring{Name: "l", Delay: 5 * time.Millisecond, Queue: queue.NewFIFO(64), Dst: releaser{pool}, Lane: sim.NewLanes().Next()},
			Params: Params{RateBps: 8e6, Pool: pool, Overprovisioned: overprov},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			sched.At(sim.TimeZero.Add(sim.Duration(i)*100*time.Microsecond), func() {
				p := pool.Get()
				p.Kind, p.Size = packet.Data, 1000
				l.Send(p)
			})
		}
		if err := sched.Run(sim.TimeZero.Add(8 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if l.Pipelined() != overprov || pool.Live() == 0 || l.train.Len() == 0 {
			t.Fatalf("overprovisioned=%v: pipelined %v with %d packets live and %d deliveries at the cut", overprov, l.Pipelined(), pool.Live(), l.train.Len())
		}
		l.Recycle()
		if gets, puts, _ := pool.Stats(); gets != 40 || puts != 40 {
			t.Errorf("overprovisioned=%v: after Recycle the pool handed out %d packets and got %d back, want 40 and 40", overprov, gets, puts)
		}
	}
}

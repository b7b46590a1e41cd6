package tcp

import (
	"strings"
	"testing"
	"time"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
)

func TestConfigValidation(t *testing.T) {
	sched := sim.NewScheduler()
	out := &pipe{sched: sched}
	cases := []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"nil scheduler", func(c *Config) { c.Sched = nil }, "scheduler"},
		{"nil wire", func(c *Config) { c.Out = nil }, "wire"},
		{"bad variant", func(c *Config) { c.Variant = Variant(99) }, "variant"},
		{"negative packet size", func(c *Config) { c.PacketSize = -1 }, "packet size"},
		{"negative window", func(c *Config) { c.MaxWindow = -1 }, "max window"},
		{"min RTO above max", func(c *Config) { c.MinRTO = time.Hour; c.MaxRTO = time.Second }, "RTO"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Ends: Ends{Out: out}, Params: Params{Variant: Reno, Sched: sched}}
			tc.mutate(&cfg)
			if _, err := NewSender(cfg); err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("NewSender error = %v, want mention of %q", err, tc.substr)
			}
		})
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := newConn(t, Reno, nil)
	if got := c.sender.Cwnd(); got != 1 {
		t.Errorf("initial cwnd = %v, want 1", got)
	}
	if got := c.sender.Ssthresh(); got != 20 {
		t.Errorf("initial ssthresh = %v, want MaxWindow (20)", got)
	}
	if got := c.sender.RTO(); got != time.Second {
		t.Errorf("initial RTO = %v, want 1s", got)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.submit(1000) // deep backlog: purely window-limited
	// RTT is 20 ms; the run horizon is inclusive, so the k-th boundary has
	// already processed the ACK burst arriving exactly at k·RTT. The
	// cumulative transmissions therefore follow 2^(k+1) - 1.
	var cumulative []int
	for i := 0; i < 4; i++ {
		c.run(t, 20*time.Millisecond)
		cumulative = append(cumulative, c.fwd.dataSent())
	}
	want := []int{3, 7, 15, 31}
	for i := range want {
		if cumulative[i] != want[i] {
			t.Fatalf("slow-start cumulative sends %v, want %v", cumulative, want)
		}
	}
}

func TestSlowStartCapsAtAdvertisedWindow(t *testing.T) {
	c := newConn(t, Reno, func(cfg *Config) { cfg.MaxWindow = 6 })
	c.submit(1000)
	c.run(t, time.Second)
	if got := c.sender.Cwnd(); got != 6 {
		t.Errorf("cwnd = %v, want clamp at 6", got)
	}
	// In-flight never exceeded the advertised window: with RTT 20ms, at
	// most 6 packets per RTT after the ramp → well under 300 in 1s.
	if sent := c.fwd.dataSent(); sent > 300 {
		t.Errorf("sent %d packets in 1s, window clamp broken", sent)
	}
}

func TestCongestionAvoidanceGrowsLinearly(t *testing.T) {
	c := newConn(t, Reno, func(cfg *Config) {
		cfg.InitialCwnd = 4
		cfg.InitialSsthresh = 4 // start directly in congestion avoidance
	})
	c.submit(10000)
	c.run(t, 100*time.Millisecond) // 5 RTTs
	// cwnd should have grown by roughly +1 per RTT: 4 → ~9.
	got := c.sender.Cwnd()
	if got < 7 || got > 11 {
		t.Errorf("cwnd after 5 RTTs of CA = %v, want ~9", got)
	}
}

func TestFlightSizeNeverExceedsWindow(t *testing.T) {
	c := newConn(t, Reno, func(cfg *Config) { cfg.MaxWindow = 8 })
	c.submit(500)
	for i := 0; i < 100; i++ {
		c.run(t, 5*time.Millisecond)
		if f := c.sender.FlightSize(); f > 8 {
			t.Fatalf("flight size %d exceeds advertised window 8", f)
		}
	}
}

func TestReliableDeliveryNoLoss(t *testing.T) {
	for _, v := range []Variant{Tahoe, Reno, NewReno, Vegas} {
		t.Run(v.String(), func(t *testing.T) {
			c := newConn(t, v, nil)
			c.submit(200)
			c.run(t, 5*time.Second)
			if got := c.sink.Delivered(); got != 200 {
				t.Errorf("delivered %d, want 200", got)
			}
			if got := c.sender.Counters().Retransmits; got != 0 {
				t.Errorf("retransmits = %d on a lossless path", got)
			}
			if c.sender.FlightSize() != 0 {
				t.Errorf("flight size %d after drain", c.sender.FlightSize())
			}
		})
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.fwd.drop = dropSeqOnce(5)
	c.submit(50)
	c.run(t, 300*time.Millisecond) // < initial RTO of 1s
	cnt := c.sender.Counters()
	if cnt.FastRetransmits != 1 {
		t.Errorf("fast retransmits = %d, want 1", cnt.FastRetransmits)
	}
	if cnt.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (dup ACKs must recover first)", cnt.Timeouts)
	}
	c.run(t, 2*time.Second)
	if got := c.sink.Delivered(); got != 50 {
		t.Errorf("delivered %d, want 50", got)
	}
}

func TestRenoHalvesWindowOnFastRetransmit(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.submit(1000)
	c.run(t, 90*time.Millisecond) // let cwnd ramp into the teens
	before := c.sender.Cwnd()
	if before < 8 {
		t.Fatalf("setup: cwnd = %v, want ramped-up window", before)
	}
	// Drop the next new packet to force one loss.
	next := int64(c.fwd.dataSent())
	c.fwd.drop = dropSeqOnce(next)
	// Probe at a fine grain: cwnd dips to ssthresh ≈ flight/2 on recovery
	// exit and then climbs again in congestion avoidance.
	lowest := before
	for i := 0; i < 100; i++ {
		c.run(t, 2*time.Millisecond)
		if w := c.sender.Cwnd(); w < lowest {
			lowest = w
		}
	}
	cnt := c.sender.Counters()
	if cnt.FastRetransmits != 1 || cnt.Timeouts != 0 {
		t.Fatalf("fastRtx=%d timeouts=%d, want 1/0", cnt.FastRetransmits, cnt.Timeouts)
	}
	if lowest > before*0.75 {
		t.Errorf("cwnd %v never dipped below 3/4 of %v after a loss", lowest, before)
	}
	if c.sender.InRecovery() {
		t.Error("sender still in recovery after the loss was repaired")
	}
}

func TestTahoeRestartsSlowStartOnLoss(t *testing.T) {
	c := newConn(t, Tahoe, nil)
	c.submit(1000)
	c.run(t, 90*time.Millisecond)
	next := int64(c.fwd.dataSent())
	c.fwd.drop = dropSeqOnce(next)
	// Capture cwnd shortly after the loss is detected: Tahoe goes to 1
	// and climbs again, so probe at a fine grain for the collapse.
	sawCollapse := false
	for i := 0; i < 100; i++ {
		c.run(t, 2*time.Millisecond)
		if c.sender.Cwnd() <= 1 {
			sawCollapse = true
			break
		}
	}
	if !sawCollapse {
		t.Error("Tahoe never collapsed cwnd to 1 after a loss")
	}
	cnt := c.sender.Counters()
	if cnt.FastRetransmits != 1 {
		t.Errorf("fast retransmits = %d, want 1", cnt.FastRetransmits)
	}
	if c.sender.InRecovery() {
		t.Error("Tahoe must not use fast recovery")
	}
}

func TestNewRenoRepairsMultipleLossesWithoutTimeout(t *testing.T) {
	c := newConn(t, NewReno, nil)
	c.submit(1000)
	c.run(t, 90*time.Millisecond)
	next := int64(c.fwd.dataSent())
	// Two losses in the same window: plain Reno usually needs a timeout;
	// NewReno repairs through partial ACKs.
	c.fwd.drop = dropSeqOnce(next, next+3)
	c.run(t, 900*time.Millisecond) // still below the 1s initial RTO
	cnt := c.sender.Counters()
	if cnt.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (partial-ACK repair)", cnt.Timeouts)
	}
	if cnt.FastRetransmits < 1 {
		t.Errorf("fast retransmits = %d, want >= 1", cnt.FastRetransmits)
	}
	c.run(t, 2*time.Second)
	if delivered, want := c.sink.Delivered(), uint64(1000); delivered != want {
		// The backlog may not fully drain; what matters is progress far
		// past both loss points.
		if delivered < uint64(next)+10 {
			t.Errorf("delivered %d, stalled near loss point %d", delivered, next)
		}
	}
}

func TestTimeoutWhenNoDupAcksPossible(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.fwd.drop = dropSeqOnce(0)
	c.submit(1) // single packet: no dup ACKs can ever arrive
	c.run(t, 5*time.Second)
	cnt := c.sender.Counters()
	if cnt.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", cnt.Timeouts)
	}
	if cnt.FastRetransmits != 0 {
		t.Errorf("fast retransmits = %d, want 0", cnt.FastRetransmits)
	}
	if c.sink.Delivered() != 1 {
		t.Errorf("delivered %d, want 1", c.sink.Delivered())
	}
}

func TestTimeoutBackoffDoubles(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.fwd.drop = dropSeqTimes(0, 3) // first three transmissions lost
	c.submit(1)
	c.run(t, 20*time.Second)
	cnt := c.sender.Counters()
	if cnt.Timeouts != 3 {
		t.Fatalf("timeouts = %d, want 3", cnt.Timeouts)
	}
	if c.sink.Delivered() != 1 {
		t.Fatalf("delivered %d, want 1", c.sink.Delivered())
	}
	// Transmission times: t0≈0, then RTO(1s), 2·RTO, 4·RTO later.
	var times []sim.Time
	for _, p := range c.fwd.log {
		if p.IsData() && p.Seq == 0 {
			times = append(times, p.SentAt)
		}
	}
	if len(times) != 4 {
		t.Fatalf("seq 0 transmitted %d times, want 4", len(times))
	}
	gaps := []sim.Duration{
		times[1].Sub(times[0]),
		times[2].Sub(times[1]),
		times[3].Sub(times[2]),
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1]*3/2 {
			t.Errorf("backoff gaps %v not doubling", gaps)
		}
	}
}

func TestTimeoutCollapsesWindowToOne(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.submit(1000)
	c.run(t, 90*time.Millisecond)
	if c.sender.Cwnd() < 8 {
		t.Fatalf("setup: cwnd = %v", c.sender.Cwnd())
	}
	// Sever the forward path entirely: no ACKs, only a timeout can fire.
	c.fwd.drop = func(*packet.Packet) bool { return true }
	c.run(t, 2*time.Second)
	if got := c.sender.Counters().Timeouts; got == 0 {
		t.Fatal("no timeout despite severed path")
	}
	// cwnd is 1 right after the collapse; it cannot grow while the path
	// is still severed.
	if got := c.sender.Cwnd(); got != 1 {
		t.Errorf("cwnd = %v after timeout with severed path, want 1", got)
	}
}

func TestRTTEstimatorFirstSample(t *testing.T) {
	c := newConn(t, Reno, func(cfg *Config) { cfg.MinRTO = time.Millisecond })
	// Submit after time has advanced so SentAt is distinctive.
	c.run(t, 50*time.Millisecond)
	c.submit(1)
	c.run(t, time.Second)
	// RTT is exactly 20 ms (two 10 ms pipes, zero serialization).
	if got := c.sender.SRTT(); got != 20*time.Millisecond {
		t.Errorf("SRTT = %v, want 20ms", got)
	}
	// First sample: rttvar = rtt/2, RTO = srtt + 4·rttvar = 3·rtt = 60ms.
	if got := c.sender.RTO(); got != 60*time.Millisecond {
		t.Errorf("RTO = %v, want 60ms", got)
	}
}

func TestRTOClampedToMin(t *testing.T) {
	c := newConn(t, Reno, nil) // default MinRTO 200ms
	c.submit(10)
	c.run(t, time.Second)
	if got := c.sender.RTO(); got != 200*time.Millisecond {
		t.Errorf("RTO = %v, want clamped to 200ms", got)
	}
}

func TestKarnNoSampleFromRetransmit(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.fwd.drop = dropSeqOnce(0)
	c.submit(1)
	// Run past the timeout and retransmission; the only delivered copy of
	// seq 0 is a retransmission, so no RTT sample may be taken.
	c.run(t, 3*time.Second)
	if c.sink.Delivered() != 1 {
		t.Fatalf("delivered %d, want 1", c.sink.Delivered())
	}
	if got := c.sender.SRTT(); got != 0 {
		t.Errorf("SRTT = %v from a retransmitted segment, want 0 (Karn)", got)
	}
	// A subsequent fresh packet provides the first valid sample.
	c.submit(1)
	c.run(t, time.Second)
	if got := c.sender.SRTT(); got != 20*time.Millisecond {
		t.Errorf("SRTT = %v after fresh packet, want 20ms", got)
	}
}

func TestBacklogAndCounters(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.submit(100)
	if got := c.sender.Backlog(); got != 99 {
		// cwnd=1: one packet leaves immediately, 99 wait.
		t.Errorf("backlog = %d, want 99", got)
	}
	c.run(t, 5*time.Second)
	cnt := c.sender.Counters()
	if cnt.Submitted != 100 {
		t.Errorf("Submitted = %d, want 100", cnt.Submitted)
	}
	if cnt.DataSent != 100 {
		t.Errorf("DataSent = %d, want 100 (no loss)", cnt.DataSent)
	}
	if cnt.AcksReceived == 0 {
		t.Error("AcksReceived = 0")
	}
	if c.sender.Backlog() != 0 {
		t.Errorf("backlog = %d after drain", c.sender.Backlog())
	}
}

func TestDupAckCounting(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.fwd.drop = dropSeqOnce(10) // lost once the window is wide enough
	c.submit(40)
	c.run(t, 2*time.Second)
	cnt := c.sender.Counters()
	if cnt.DupAcksReceived < 3 {
		t.Errorf("DupAcksReceived = %d, want >= 3", cnt.DupAcksReceived)
	}
	if c.sink.Delivered() != 40 {
		t.Errorf("delivered %d, want 40", c.sink.Delivered())
	}
}

func TestSenderIgnoresDataAndStaleAcks(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.submit(5)
	c.run(t, time.Second)
	before := c.sender.Counters()
	// A stray data packet must be ignored.
	c.sender.Receive(&packet.Packet{Kind: packet.Data, Flow: 1, Seq: 99})
	// A stale ACK below snd_una must be ignored without dup-ACK counting.
	c.sender.Receive(&packet.Packet{Kind: packet.Ack, Flow: 1, Ack: 1})
	after := c.sender.Counters()
	if after.DupAcksReceived != before.DupAcksReceived {
		t.Error("stale ACK counted as duplicate")
	}
	if after.AcksReceived != before.AcksReceived+1 {
		t.Error("stale ACK not counted as received")
	}
}

func TestVariantString(t *testing.T) {
	cases := map[Variant]string{
		Tahoe: "tahoe", Reno: "reno", NewReno: "newreno", Vegas: "vegas",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
	if got := Variant(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown variant string %q", got)
	}
}

func TestECNMarkHalvesWindowOncePerWindow(t *testing.T) {
	c := newConn(t, Reno, nil)
	c.submit(1000)
	c.run(t, 90*time.Millisecond)
	before := c.sender.Cwnd()
	if before < 8 {
		t.Fatalf("setup: cwnd = %v", before)
	}
	// Mark every data packet for one stretch: the sender must respond at
	// most once per window of data, not per ACK.
	c.fwd.drop = nil
	marking := true
	origSend := c.fwd.dst
	_ = origSend
	c.fwd.drop = func(p *packet.Packet) bool {
		if marking && p.IsData() {
			p.ECE = true
		}
		return false
	}
	c.run(t, 45*time.Millisecond) // ~one RTT of marked traffic
	marking = false
	after := c.sender.Cwnd()
	if after >= before {
		t.Errorf("cwnd %v -> %v: no ECN response", before, after)
	}
	// One multiplicative decrease, not a collapse: with at most two
	// marked windows in 45ms, cwnd stays above a quarter of its old value.
	if after < before/8 {
		t.Errorf("cwnd %v -> %v: ECN response fired per ACK instead of per window", before, after)
	}
	if got := c.sender.Counters().Retransmits; got != 0 {
		t.Errorf("ECN response retransmitted %d packets; marks are not losses", got)
	}
}

func TestCwndInvariantsUnderRandomLoss(t *testing.T) {
	// Safety invariants across every variant under sustained random loss:
	// cwnd >= 1, ssthresh >= 2, flight size within the advertised window
	// plus recovery inflation allowance.
	for _, v := range []Variant{Tahoe, Reno, NewReno, Vegas, SACK} {
		t.Run(v.String(), func(t *testing.T) {
			c := newConn(t, v, nil)
			rng := sim.NewRNG(99)
			c.fwd.drop = func(p *packet.Packet) bool {
				return p.IsData() && rng.Float64() < 0.08
			}
			c.submit(400)
			deadline := sim.TimeZero.Add(5 * time.Minute)
			for c.sched.Now() < deadline {
				if !c.sched.Step() {
					break
				}
				if w := c.sender.Cwnd(); w < 1 {
					t.Fatalf("cwnd = %v < 1", w)
				}
				if s := c.sender.Ssthresh(); s < 2 {
					t.Fatalf("ssthresh = %v < 2", s)
				}
				if f := c.sender.FlightSize(); f < 0 || f > 40 {
					t.Fatalf("flight = %d outside [0, 2*maxwindow]", f)
				}
			}
			if c.sink.Delivered() != 400 {
				t.Fatalf("delivered %d, want 400", c.sink.Delivered())
			}
		})
	}
}

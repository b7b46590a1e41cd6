package core

import (
	"fmt"

	"tcpburst/internal/link"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
)

// telem bundles one run's telemetry registry with the preregistered handle
// sets handed to each subsystem. A disabled run (TelemetryInterval == 0)
// carries a nil registry: every handle is then the zero value, every
// publication site a cheap no-op, and the simulation executes the exact
// event sequence it would without telemetry compiled in at all.
type telem struct {
	reg *telemetry.Registry

	link         link.Metrics
	tcp          tcp.Metrics
	aqm          queue.Metrics
	appGenerated telemetry.Counter

	sampler *telemetry.Sampler
	ring    *telemetry.Ring
}

// newTelem builds the registry and all subsystem handle sets, or an inert
// telem when cfg leaves telemetry disabled. It must run before the links,
// queues, and transports are constructed so the handles can ride in their
// configs.
func newTelem(cfg Config) *telem {
	t := &telem{}
	if cfg.TelemetryInterval <= 0 {
		return t
	}
	reg := telemetry.NewRegistry()
	t.reg = reg

	depthWidth := float64(cfg.BufferPackets) / 10
	if depthWidth < 1 {
		depthWidth = 1
	}
	t.link = link.Metrics{
		Arrivals:   reg.Counter("gw.arrivals"),
		Drops:      reg.Counter("gw.drops"),
		Departures: reg.Counter("gw.departures"),
		QueueDepth: reg.Histogram("gw.depth", depthWidth, 10),
	}
	t.tcp = tcp.Metrics{
		DataSent:        reg.Counter("tcp.data_sent"),
		Retransmits:     reg.Counter("tcp.retransmits"),
		Timeouts:        reg.Counter("tcp.timeouts"),
		FastRetransmits: reg.Counter("tcp.fast_rtx"),
		Delivered:       reg.Counter("tcp.delivered"),
		AcksSent:        reg.Counter("tcp.acks"),
	}
	// Every discipline publishes through the one aqm.* handle set; which
	// handles move depends on the discipline (RED never sheds, a token
	// bucket never marks, FIFO moves none).
	t.aqm = queue.Metrics{
		EarlyDrops:  reg.Counter("aqm.early_drops"),
		ForcedDrops: reg.Counter("aqm.forced_drops"),
		Marks:       reg.Counter("aqm.marks"),
		Shed:        reg.Counter("aqm.shed"),
		Evictions:   reg.Counter("aqm.evictions"),
	}
	t.appGenerated = reg.Counter("app.generated")
	return t
}

// enabled reports whether this run publishes telemetry.
func (t *telem) enabled() bool { return t.reg != nil }

// start registers the probes that need live simulation objects, resolves
// the sink, and starts the periodic sampler of shard's registry. Call it
// after the topology is built and before the scheduler runs.
//
// Probes run on the shard's own goroutine during windows, so a registry
// may only touch state its shard owns: foreign probes register under the
// same names with zero-returning functions instead. That keeps the column
// set (and its order) identical on every shard, which is what lets
// finishTelemetry merge per-shard snapshot rows by elementwise sum — every
// column has exactly one owning shard, so real + zeros = real. The gateway
// shard owns queue.depth, gw.util and cov.rtt, which reads the run's
// window counter; sim.events reads each shard's own Fired count, so the
// merged column is the total. A non-nil sink overrides the run's own:
// sharded runs sample into private per-shard rings and merge after the run.
func (t *telem) start(cfg Config, n *network, counter *stats.WindowCounter, shard int, sink telemetry.Sink) error {
	if !t.enabled() {
		return nil
	}
	reg := t.reg
	zero := func() float64 { return 0 }

	sched := n.scheds[shard]
	var bottleneck *link.Link
	if shard == n.place.gw[0] {
		bottleneck = n.bottlenecks[0]
	}
	if b := bottleneck; b != nil {
		reg.Probe("queue.depth", func() float64 {
			return float64(b.QueueLen())
		})
		// Bottleneck utilization over the last sampling interval, from the
		// delivered-bytes delta.
		intervalBits := cfg.BottleneckRateBps * cfg.TelemetryInterval.Seconds()
		var prevBytes uint64
		reg.Probe("gw.util", func() float64 {
			cur := b.Stats().DeliveredBytes
			delta := cur - prevBytes
			prevBytes = cur
			if intervalBits <= 0 {
				return 0
			}
			return float64(delta) * 8 / intervalBits
		})
	} else {
		reg.Probe("queue.depth", zero)
		reg.Probe("gw.util", zero)
	}
	reg.Probe("sim.events", func() float64 {
		return float64(sched.Fired())
	})
	if bottleneck != nil {
		// The c.o.v. of the RTT windows completed since the last snapshot.
		// An interval too short to close two windows holds the previous
		// value instead of collapsing to zero.
		var from int
		var last float64
		reg.Probe("cov.rtt", func() float64 {
			done := counter.CompletedBy(sched.Now())
			if len(done)-from >= 2 {
				w := stats.Summarize(done[from:])
				last, from = w.COV(), len(done)
			}
			return last
		})
	} else {
		reg.Probe("cov.rtt", zero)
	}
	// Per-flow window probes for the same clients cwnd tracing would pick.
	targets := cfg.TraceClients
	if len(targets) == 0 {
		targets = defaultTraceClients(cfg.Clients)
	}
	for _, idx := range targets {
		sender := n.flows[idx-1].tcpSend
		if sender == nil {
			continue // UDP clients have no window to publish
		}
		if n.place.client(idx-1) == shard {
			reg.Probe(fmt.Sprintf("cwnd.client%d", idx), sender.Cwnd)
			reg.Probe(fmt.Sprintf("ssthresh.client%d", idx), sender.Ssthresh)
		} else {
			reg.Probe(fmt.Sprintf("cwnd.client%d", idx), zero)
			reg.Probe(fmt.Sprintf("ssthresh.client%d", idx), zero)
		}
	}
	return t.startSampler(cfg, sched, sink)
}

// startSampler starts t's periodic sampler on sched, streaming into sink
// or, when sink is nil, into the run's own sink from runSink.
func (t *telem) startSampler(cfg Config, sched *sim.Scheduler, sink telemetry.Sink) error {
	if sink == nil {
		sink, t.ring = runSink(cfg, tickRows(cfg.Duration, cfg.TelemetryInterval))
	}
	sampler, err := telemetry.NewSampler(sched, t.reg, cfg.TelemetryInterval, sink)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := sampler.Start(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	t.sampler = sampler
	return nil
}

// tickRows is the number of rows a sampler ticking every interval records
// over a run of duration: one per tick from t=0 through the horizon, plus
// the final off-grid sample.
func tickRows(duration, interval sim.Duration) int { return int(duration/interval) + 2 }

// runSink decides where one run's telemetry records go: the configured
// sink, narrowed to this run through ForRun(cfg.Label()) when it is a
// telemetry.PerRun, or else a fresh in-memory ring of rows records, which
// it also returns for Result.TelemetryRing. The serial, sharded and fluid
// paths all resolve their sink here.
func runSink(cfg Config, rows int) (telemetry.Sink, *telemetry.Ring) {
	switch sink := cfg.TelemetrySink.(type) {
	case nil:
		ring := telemetry.NewRing(rows)
		return ring, ring
	case telemetry.PerRun:
		return sink.ForRun(cfg.Label()), nil
	default:
		return sink, nil
	}
}

// closeSampler takes the final off-grid snapshot (a no-op when the horizon
// lands on a tick) and closes the stream. The sink's first error surfaces
// here: a run whose telemetry stream failed is a failed run.
func closeSampler(s *telemetry.Sampler) error {
	s.Sample()
	if err := s.Close(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}

// startTelemetry starts the per-shard samplers. Serial runs stream to the
// configured sink directly; sharded runs stream each shard into a private
// ring on the same virtual tick grid, merged into the configured sink by
// finishTelemetry after the run. Returns the private rings (nil serial).
func startTelemetry(cfg Config, n *network, counter *stats.WindowCounter) ([]*telemetry.Ring, error) {
	if !n.tels[0].enabled() {
		return nil, nil
	}
	var rings []*telemetry.Ring
	for s, t := range n.tels {
		var sink telemetry.Sink
		if n.group != nil {
			ring := telemetry.NewRing(tickRows(cfg.Duration, cfg.TelemetryInterval))
			rings, sink = append(rings, ring), ring
		}
		if err := t.start(cfg, n, counter, s, sink); err != nil {
			return nil, err
		}
	}
	return rings, nil
}

// finishTelemetry closes the samplers and records the run's telemetry into
// res. Sharded runs merge the per-shard rings: rows on the same virtual
// tick sum elementwise (every column has one owning shard), the merged
// rows stream to the configured sink, and the per-shard registry exports
// sum map-wise. One caveat is inherent to sharding: each shard runs its
// own sampler event per tick, so SimEvents (and the sim.events column)
// count K sampler pops per interval instead of one — which is why the
// byte-identity and golden tests pin sharded runs with telemetry off.
func finishTelemetry(cfg Config, net *network, rings []*telemetry.Ring, res *Result) error {
	if net.group == nil {
		return net.tels[0].finish(res)
	}
	if rings == nil {
		return nil
	}
	for _, t := range net.tels {
		if err := closeSampler(t.sampler); err != nil {
			return err
		}
	}
	n := rings[0].Len()
	for s, r := range rings {
		if uint64(r.Len()) != net.tels[s].sampler.Records() {
			return fmt.Errorf("telemetry: shard %d ring overflowed (%d rows kept of %d)", s, r.Len(), net.tels[s].sampler.Records())
		}
		if r.Len() != n {
			return fmt.Errorf("telemetry: shard %d recorded %d rows, shard 0 %d", s, r.Len(), n)
		}
	}

	sink, ring := runSink(cfg, n+1)
	if err := sink.Begin(rings[0].Fields()); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	row := make([]float64, len(rings[0].Fields()))
	for i := 0; i < n; i++ {
		t0, r0 := rings[0].At(i)
		copy(row, r0)
		for s := 1; s < len(rings); s++ {
			ts, rs := rings[s].At(i)
			if ts != t0 { //burst:floateq-ok identical tick grids produce identical float timestamps
				return fmt.Errorf("telemetry: shard %d tick %v diverges from shard 0 tick %v", s, ts, t0)
			}
			for j, v := range rs {
				row[j] += v
			}
		}
		if err := sink.Record(t0, row); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	if err := sink.Flush(); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}

	merged := net.tels[0].reg.Export()
	for _, t := range net.tels[1:] {
		e := t.reg.Export()
		for k, v := range e.Counters {
			merged.Counters[k] += v
		}
		for k, v := range e.Gauges {
			merged.Gauges[k] += v
		}
		for k, v := range e.Histograms {
			merged.Histograms[k] += v
		}
	}
	res.Telemetry = &merged
	res.TelemetryRecords = uint64(n)
	res.TelemetryRing = ring
	return nil
}

// finish closes the stream (see closeSampler) and records the registry's
// final state into res.
func (t *telem) finish(res *Result) error {
	if t.sampler == nil {
		return nil
	}
	if err := closeSampler(t.sampler); err != nil {
		return err
	}
	export := t.reg.Export()
	res.Telemetry = &export
	res.TelemetryRecords = t.sampler.Records()
	res.TelemetryRing = t.ring
	return nil
}

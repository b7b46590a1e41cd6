package core

import (
	"context"
	"fmt"
	"time"

	"tcpburst/internal/link"
	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/trace"
	"tcpburst/internal/traffic"
	"tcpburst/internal/transport"
)

// FlowResult captures one client stream's outcome.
type FlowResult struct {
	// Client is the 1-based client index, matching the paper's legends.
	Client int
	// Protocol is the transport this client ran (varies under Config.Mix).
	Protocol Protocol
	// Generated counts application packets produced by the Poisson source.
	Generated uint64
	// Delivered counts packets the server application received (in order
	// for TCP).
	Delivered uint64
	// Counters holds transport-level counters (synthesized for UDP).
	Counters tcp.Counters
}

// QueueStats summarizes the bottleneck queue occupancy, sampled every
// 10 ms of virtual time throughout the run.
type QueueStats struct {
	// Mean and Max are the average and peak sampled queue lengths.
	Mean, Max float64
	// P95 is the 95th-percentile sampled queue length.
	P95 float64
	// FullFrac is the fraction of samples at or above 95% of the buffer
	// capacity — how often the gateway teeters on overflow.
	FullFrac float64
}

// REDStats summarizes the gateway's behavior when it runs RED.
type REDStats struct {
	EarlyDrops  uint64
	ForcedDrops uint64
	Marks       uint64
	FinalAvg    float64
}

// AQMStats is the generic discipline counter snapshot for every other
// discipline that reports stats (CoDel, PIE, the admission buckets):
// control-law drops, buffer-overflow drops, ECN marks, admission-control
// sheds, and the discipline's terminal control variable (PIE's drop
// probability, a bucket's remaining tokens).
type AQMStats struct {
	EarlyDrops  uint64
	ForcedDrops uint64
	Marks       uint64
	Shed        uint64
	FinalAvg    float64
}

// Result aggregates everything one experiment measures.
type Result struct {
	// Config echoes the (defaulted) configuration that produced the run.
	Config Config

	// COV is the measured coefficient of variation of data-packet
	// arrivals at the gateway per round-trip propagation delay (Figure 2),
	// or per the topology's c.o.v. window at its first bottleneck.
	COV float64
	// AnalyticCOV is the c.o.v. of the unmodulated aggregated Poisson
	// process, 1/sqrt(N·λ·RTT) — the reference curve in Figure 2. N counts
	// the clients whose data crosses the first bottleneck (every client of
	// the dumbbell) and RTT is the c.o.v. window.
	AnalyticCOV float64
	// WindowCounts is the per-RTT arrival count series behind COV.
	WindowCounts []float64
	// MeanWindowCount is the average number of arrivals per RTT window.
	MeanWindowCount float64

	// Delivered is the total number of packets successfully transmitted
	// to the server applications (Figure 3).
	Delivered uint64
	// Generated is the total number of application packets produced.
	Generated uint64
	// DataSent counts transport-level data transmissions including
	// retransmissions.
	DataSent uint64
	// ForwardDrops counts data packets lost on the client→server path:
	// gateway-buffer drops, access-buffer drops, and random wire losses.
	ForwardDrops uint64
	// BottleneckDrops counts drops at the gateway's bottleneck queue.
	BottleneckDrops uint64
	// AckDrops counts acknowledgment drops on the reverse path.
	AckDrops uint64
	// WireLosses counts packets lost to random (WireLossProb) errors on
	// the bottleneck wire (extension).
	WireLosses uint64
	// LossPct is 100·ForwardDrops/DataSent (Figure 4).
	LossPct float64
	// Utilization is the bottleneck's delivered-bits fraction of capacity.
	Utilization float64

	// Timeouts and FastRetransmits aggregate the per-flow counters; their
	// ratio is Figure 13's y-axis.
	Timeouts           uint64
	FastRetransmits    uint64
	TimeoutDupAckRatio float64

	// JainFairness is Jain's index over per-flow delivered counts,
	// quantifying the bandwidth-sharing contrast of Figures 10–12.
	JainFairness float64
	// DelayMeanSec and DelayP95Sec summarize the one-way network delay
	// (transmission to arrival, including queueing) of data packets —
	// the end-user QoS measure the paper's introduction motivates.
	DelayMeanSec, DelayP95Sec float64
	// Hurst is the variance-time Hurst estimate of the window-count
	// series (self-similarity extension).
	Hurst float64

	// Queue summarizes the bottleneck queue occupancy over the run.
	Queue QueueStats
	// Fluid carries the mean-field solver's outcome when the run executed
	// on the fluid backend; nil for packet runs.
	Fluid *FluidStats
	// PacketLog retains the most recent bottleneck packet events when
	// Config.PacketLogCapacity was set.
	PacketLog *trace.PacketLog
	// RED carries gateway drop/mark detail when the RED discipline ran.
	RED *REDStats
	// AQM carries the generic discipline counters when any other
	// discipline that reports stats ran; FIFO and DRR report neither.
	AQM *AQMStats

	// CwndTraces holds per-client congestion-window series when tracing
	// was enabled (Figures 5–12); QueueTrace the bottleneck queue length.
	CwndTraces []*trace.Series
	QueueTrace *trace.Series
	// CwndSyncIndex quantifies the paper's "dependency between the
	// congestion-control decisions of multiple TCP streams": the mean
	// pairwise Pearson correlation of the traced flows'
	// window-*decrease* indicator series. Near 0 when flows back off
	// independently; rising toward 1 as they halve in lockstep. Zero
	// unless at least two clients were traced.
	CwndSyncIndex float64

	// SimEvents counts the discrete events the kernel executed for this
	// run — the work measure behind the runner's events/sec telemetry.
	SimEvents uint64
	// SchedOps counts scheduler slot filings — the wheel/heap traffic the
	// run generated. Burst-train batching executes the same SimEvents
	// while filing fewer slots, so SchedOps/SimEvents is the measured
	// ops-per-event reduction the batching bench reports. Not part of the
	// Summary (it is an implementation cost, not simulation behavior).
	SchedOps uint64
	// ShardWindows counts the synchronization windows of a sharded run
	// and ShardParks the barrier waits that parked their goroutine
	// instead of polling; each window has Config.Shards waits. Both are
	// zero when serial. Like SchedOps they measure the execution, not the
	// simulation, so the Summary leaves them out.
	ShardWindows, ShardParks uint64

	// Telemetry carries the registry's final counter/gauge/histogram state
	// when Config.TelemetryInterval was set; nil otherwise.
	Telemetry *telemetry.Export
	// TelemetryRecords counts the snapshot records streamed to the sink.
	TelemetryRecords uint64
	// TelemetryRing holds the in-memory snapshot buffer when telemetry ran
	// without an explicit sink; nil otherwise.
	TelemetryRing *telemetry.Ring

	// Flows holds per-client outcomes.
	Flows []FlowResult
	// ByProtocol aggregates per-protocol totals; with a homogeneous
	// Config it has a single entry, under Config.Mix one per block
	// protocol (extension: protocol-competition studies).
	ByProtocol map[Protocol]ProtocolTotals

	// Bottlenecks reports each bottleneck link and Groups each client
	// group, in topology order, when the topology has more than one
	// bottleneck: for the parking lot, hop 1 and hop 2, and the long,
	// hop-1 and hop-2 clients. Nil for the dumbbell, whose one bottleneck
	// the top-level fields report.
	Bottlenecks []BottleneckStats
	Groups      []GroupStats
}

// BottleneckStats measures one bottleneck of a multi-bottleneck topology.
type BottleneckStats struct {
	// COV is the c.o.v. of the data arrivals at the link per window.
	COV float64 `json:"cov"`
	// Drops counts the link's queue drops.
	Drops uint64 `json:"drops"`
}

// GroupStats totals one client group of a multi-bottleneck topology.
type GroupStats struct {
	Clients   int    `json:"clients"`
	Generated uint64 `json:"generated"`
	Delivered uint64 `json:"delivered"`
	Timeouts  uint64 `json:"timeouts"`
	// JainFairness is Jain's index within the group.
	JainFairness float64 `json:"jainFairness"`
}

// ProtocolTotals aggregates the flows of one protocol in a (possibly
// mixed) experiment.
type ProtocolTotals struct {
	Flows           int
	Generated       uint64
	Delivered       uint64
	DataSent        uint64
	Timeouts        uint64
	FastRetransmits uint64
	// JainFairness is computed within the protocol's own flows.
	JainFairness float64
}

// Run executes one experiment to completion and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the simulation polls ctx from
// inside the event loop (every 100 ms of virtual time) and aborts with
// ctx.Err() once it is canceled or past its deadline. The poll events are
// scheduled unconditionally so runs with and without a cancelable context
// execute identical event sequences.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backend == FluidBackend {
		return runFluidContext(ctx, cfg)
	}

	n, err := buildTopology(describe(cfg), takeArena())
	if err != nil {
		return nil, err
	}
	res, err := n.measure(ctx)
	// A run that panics never gets here, and its arena is dropped.
	idleArena(n.release())
	return res, err
}

// describe returns the topology cfg runs: the dumbbell, or the parking
// lot when cfg sets one.
func describe(cfg Config) topology {
	if cfg.ParkingLot != nil {
		return parkingLot(cfg)
	}
	return dumbbell(cfg)
}

// measure attaches the measurement taps to n, runs it to the horizon and
// collects its Result. The caller releases n afterwards, whatever the
// outcome.
func (n *network) measure(ctx context.Context) (*Result, error) {
	n.check()
	t := n.top
	cfg := t.cfg
	bottleneck := n.bottlenecks[0]
	// The shard of gateway 0 holds the first bottleneck, its taps, the
	// queue probe and (shard 0) the context watchdog.
	gw := n.place.gw[0]
	sched := n.scheds[gw]
	horizon := sim.TimeZero.Add(cfg.Duration)

	// The paper's measurement point: data packets entering each
	// bottleneck, binned per the topology's c.o.v. window.
	var pktLog *trace.PacketLog
	if cfg.PacketLogCapacity > 0 {
		pktLog = trace.NewPacketLog(cfg.PacketLogCapacity)
		bottleneck.OnDrop(func(now sim.Time, p *packet.Packet) {
			pktLog.RecordPacket(now, trace.EventDrop, bottleneck.Name(), p)
		})
	}
	counters := make([]*stats.WindowCounter, len(n.bottlenecks))
	for i, b := range n.bottlenecks {
		counter, err := stats.NewWindowCounter(t.window)
		if err != nil {
			return nil, err
		}
		counter.Open(sim.TimeZero)
		counter.Reserve(horizon)
		counters[i] = counter
		log := pktLog
		if i > 0 {
			log = nil
		}
		b.OnArrival(func(now sim.Time, p *packet.Packet) {
			if p.IsData() {
				counter.Observe(now)
			}
			if log != nil {
				log.RecordPacket(now, trace.EventArrival, b.Name(), p)
			}
		})
	}

	// Always-on queue-occupancy probe (10 ms grain) at the first
	// bottleneck; read-only, so it cannot perturb the experiment. Its
	// samples fill the arena's buffer, sized for every probe to the
	// horizon.
	a := n.arena
	if want := int(cfg.Duration/(10*time.Millisecond)) + 1; cap(a.queueSamples) < want {
		a.queueSamples = make([]float64, 0, want)
	}
	queueSamples := a.queueSamples[:0]
	var sampleQueue func()
	sampleQueue = func() {
		queueSamples = append(queueSamples, float64(bottleneck.QueueLen()))
		sched.After(10*time.Millisecond, sampleQueue)
	}
	sched.After(10*time.Millisecond, sampleQueue)

	tracer, traceRing, err := buildTracing(cfg, sched, n.flows, bottleneck)
	if err != nil {
		return nil, err
	}
	rings, err := startTelemetry(cfg, n, counters[0])
	if err != nil {
		return nil, err
	}

	for _, f := range n.flows {
		f.gen.Start()
	}
	if tracer != nil {
		if err := tracer.Start(); err != nil {
			return nil, err
		}
	}

	if err := n.run(ctx, horizon); err != nil {
		return nil, err
	}
	for _, f := range n.flows {
		f.gen.Stop()
	}
	if tracer != nil {
		tracer.Stop()
	}

	res := collect(t, n, counters, horizon, traceRing)
	res.Queue = summarizeQueue(queueSamples, cfg.BufferPackets)
	res.PacketLog = pktLog
	res.SimEvents, res.SchedOps = n.settle(horizon)
	if n.group != nil {
		res.ShardWindows, res.ShardParks = n.group.Windows(), n.group.Parks()
	}
	if err := finishTelemetry(cfg, n, rings, res); err != nil {
		return nil, err
	}
	return res, nil
}

// watchContext wires ctx into the single-threaded event loop: a recurring
// probe event checks ctx and stops the scheduler once it is done. Polling
// in virtual time keeps the kernel deterministic — the probe never touches
// simulation state or RNG streams.
func watchContext(ctx context.Context, sched *sim.Scheduler) {
	const probe = 100 * time.Millisecond // virtual time between polls
	var tick func()
	tick = func() {
		if ctx.Err() != nil {
			sched.Stop()
			return
		}
		sched.After(probe, tick)
	}
	sched.After(probe, tick)
}

// decreaseIndicator maps a congestion-window trace to a binary series that
// is 1 wherever the window shrank since the previous sample — the
// "halving events" whose cross-flow correlation the paper blames for
// aggregate burstiness.
func decreaseIndicator(values []float64) []float64 {
	out := make([]float64, len(values))
	for i := 1; i < len(values); i++ {
		if values[i] < values[i-1] {
			out[i] = 1
		}
	}
	return out
}

// summarizeQueue reduces the sampled queue lengths to summary statistics.
// It takes the percentile last, sorting samples in place.
func summarizeQueue(samples []float64, capacity int) QueueStats {
	if len(samples) == 0 {
		return QueueStats{}
	}
	w := stats.Summarize(samples)
	var max float64
	nearFull := 0
	threshold := 0.95 * float64(capacity)
	for _, s := range samples {
		if s > max {
			max = s
		}
		if s >= threshold {
			nearFull++
		}
	}
	return QueueStats{
		Mean:     w.Mean(),
		Max:      max,
		FullFrac: float64(nearFull) / float64(len(samples)),
		P95:      stats.QuantileInPlace(samples, 0.95),
	}
}

// flow bundles one client's components.
type flow struct {
	proto   Protocol
	gen     traffic.Generator
	tcpSend *tcp.Sender          // nil for UDP
	udpSend *transport.UDPSender // nil for TCP
	tcpSink *tcp.Sink
	udpSink *transport.UDPSink
	// access and reverse are the client's link pair to and from its
	// gateway.
	access, reverse *link.Link
}

// delivered returns packets received by the server application.
func (f *flow) delivered() uint64 {
	if f.tcpSink != nil {
		return f.tcpSink.Delivered()
	}
	return f.udpSink.Delivered()
}

// delays returns the flow's one-way delay distribution.
func (f *flow) delays() *stats.DelayDist {
	if f.tcpSink != nil {
		return f.tcpSink.Delays()
	}
	return f.udpSink.Delays()
}

// counters returns transport counters, synthesized for UDP.
func (f *flow) counters() tcp.Counters {
	if f.tcpSend != nil {
		return f.tcpSend.Counters()
	}
	sent := f.udpSend.Sent()
	return tcp.Counters{DataSent: sent, Submitted: sent}
}

// disciplineStats reports a gateway discipline's end-of-run counters in
// the family the summary encodes them under: RED's own fields for RED, the
// generic AQM fields for any other StatsReporter, neither for FIFO and DRR.
func disciplineStats(q queue.Discipline) (*REDStats, *AQMStats) {
	switch q := q.(type) {
	case *queue.RED:
		return &REDStats{
			EarlyDrops:  q.EarlyDrops(),
			ForcedDrops: q.ForcedDrops(),
			Marks:       q.Marks(),
			FinalAvg:    q.Average(),
		}, nil
	case queue.StatsReporter:
		st := q.DisciplineStats()
		return nil, &AQMStats{
			EarlyDrops:  st.EarlyDrops,
			ForcedDrops: st.ForcedDrops,
			Marks:       st.Marks,
			Shed:        st.Shed,
			FinalAvg:    st.FinalAvg,
		}
	}
	return nil, nil
}

// queueTraceName names the bottleneck queue-length trace; every other
// traced series is a client's congestion window, "client<i>".
const queueTraceName = "gateway_queue"

// buildTracing registers the probes behind Figures 5–12 on a private
// registry — each traced client's congestion window and, with TraceQueue,
// the bottleneck queue length — and returns a stopped sampler recording
// them every CwndSampleInterval into the returned ring.
func buildTracing(
	cfg Config,
	sched *sim.Scheduler,
	flows []*flow,
	bottleneck *link.Link,
) (*telemetry.Sampler, *telemetry.Ring, error) {
	if cfg.CwndSampleInterval <= 0 {
		return nil, nil, nil
	}
	reg := telemetry.NewRegistry()
	targets := cfg.TraceClients
	if len(targets) == 0 {
		targets = defaultTraceClients(cfg.Clients)
	}
	for _, idx := range targets {
		// UDP clients (plain or in a mix) have no window to trace.
		if sender := flows[idx-1].tcpSend; sender != nil {
			reg.Probe(fmt.Sprintf("client%d", idx), sender.Cwnd)
		}
	}
	if cfg.TraceQueue {
		reg.Probe(queueTraceName, func() float64 {
			return float64(bottleneck.QueueLen())
		})
	}
	ring := telemetry.NewRing(tickRows(cfg.Duration, cfg.CwndSampleInterval))
	sampler, err := telemetry.NewSampler(sched, reg, cfg.CwndSampleInterval, ring)
	if err != nil {
		return nil, nil, err
	}
	return sampler, ring, nil
}

// traceSeries reads the traced series back from the tracing ring. The
// sampler started at t=0, so sample i was taken at i·interval.
func traceSeries(ring *telemetry.Ring, interval sim.Duration) (cwnd []*trace.Series, queue *trace.Series) {
	if ring == nil {
		return nil, nil
	}
	for j, name := range ring.Fields() {
		s := &trace.Series{Name: name, Samples: make([]trace.Sample, ring.Len())}
		for i := range s.Samples {
			_, row := ring.At(i)
			s.Samples[i] = trace.Sample{At: sim.TimeZero.Add(sim.Duration(i) * interval), Value: row[j]}
		}
		if name == queueTraceName {
			queue = s
		} else {
			cwnd = append(cwnd, s)
		}
	}
	return cwnd, queue
}

// defaultTraceClients picks clients 1, N/2 and N, mirroring the paper's
// "client 1, 10, 20" style selections.
func defaultTraceClients(n int) []int {
	switch {
	case n <= 1:
		return []int{1}
	case n == 2:
		return []int{1, 2}
	default:
		mid := (n + 1) / 2
		return []int{1, mid, n}
	}
}

// collect assembles the Result from the finished simulation. The first
// bottleneck feeds the top-level c.o.v., drop, queue, utilization and
// discipline fields; a topology with more than one bottleneck also
// reports each one in Bottlenecks and each client group in Groups.
func collect(
	t topology,
	n *network,
	counters []*stats.WindowCounter,
	horizon sim.Time,
	traceRing *telemetry.Ring,
) *Result {
	cfg, flows, bottleneck := t.cfg, n.flows, n.bottlenecks[0]
	skip := int(cfg.Warmup / t.window)
	measure := func(c *stats.WindowCounter) ([]float64, stats.Welford) {
		counts := c.Close(horizon)
		counts = counts[min(skip, len(counts)):]
		return counts, stats.Summarize(counts)
	}
	counts, countStats := measure(counters[0])

	res := &Result{
		Config:          cfg,
		COV:             countStats.COV(),
		AnalyticCOV:     stats.PoissonAggregateCOV(t.clientsThrough(t.firstBottleneck()), cfg.Lambda(), t.window.Seconds()),
		WindowCounts:    counts,
		MeanWindowCount: countStats.Mean(),
		Hurst:           stats.HurstVarianceTime(counts),
	}
	res.CwndTraces, res.QueueTrace = traceSeries(traceRing, cfg.CwndSampleInterval)
	if len(res.CwndTraces) >= 2 {
		series := make([][]float64, len(res.CwndTraces))
		for i, s := range res.CwndTraces {
			series[i] = decreaseIndicator(s.Values())
		}
		res.CwndSyncIndex = stats.MeanPairwiseCorrelation(series)
	}

	res.Flows = make([]FlowResult, 0, len(flows))
	perFlowDelivered := make([]float64, 0, len(flows))
	res.ByProtocol = make(map[Protocol]ProtocolTotals)
	for _, f := range flows {
		pt := res.ByProtocol[f.proto]
		pt.Flows++
		res.ByProtocol[f.proto] = pt
	}
	perProtoDelivered := make(map[Protocol][]float64, len(res.ByProtocol))
	for proto, pt := range res.ByProtocol {
		perProtoDelivered[proto] = make([]float64, 0, pt.Flows)
	}
	for i, f := range flows {
		c := f.counters()
		fr := FlowResult{
			Client:    i + 1,
			Protocol:  f.proto,
			Generated: f.gen.Generated(),
			Delivered: f.delivered(),
			Counters:  c,
		}
		res.Flows = append(res.Flows, fr)
		res.Generated += fr.Generated
		res.Delivered += fr.Delivered
		res.DataSent += c.DataSent
		res.Timeouts += c.Timeouts
		res.FastRetransmits += c.FastRetransmits
		perFlowDelivered = append(perFlowDelivered, float64(fr.Delivered))

		pt := res.ByProtocol[f.proto]
		pt.Generated += fr.Generated
		pt.Delivered += fr.Delivered
		pt.DataSent += c.DataSent
		pt.Timeouts += c.Timeouts
		pt.FastRetransmits += c.FastRetransmits
		res.ByProtocol[f.proto] = pt
		perProtoDelivered[f.proto] = append(perProtoDelivered[f.proto], float64(fr.Delivered))
	}
	for proto, delivered := range perProtoDelivered {
		pt := res.ByProtocol[proto]
		pt.JainFairness = stats.JainIndex(delivered)
		res.ByProtocol[proto] = pt
	}

	a := n.arena
	res.DelayMeanSec, res.DelayP95Sec, a.delays = stats.MergeDelays(a.delays, len(flows), func(i int) *stats.DelayDist { return flows[i].delays() })

	// The bottlenecks and the links into sink hosts carry data; every
	// other fixed link carries acknowledgments back toward the clients.
	for i, l := range n.links {
		if tl := t.links[i]; tl.bottleneck || !tl.to.gateway {
			res.ForwardDrops += l.Stats().Drops + l.Stats().WireLosses
		} else {
			res.AckDrops += l.Stats().Drops
		}
	}
	res.BottleneckDrops = bottleneck.Stats().Drops
	res.WireLosses = bottleneck.Stats().WireLosses
	for _, f := range flows {
		res.ForwardDrops += f.access.Stats().Drops
		res.AckDrops += f.reverse.Stats().Drops
	}
	if res.DataSent > 0 {
		res.LossPct = 100 * float64(res.ForwardDrops) / float64(res.DataSent)
	}
	capacityBits := cfg.BottleneckRateBps * cfg.Duration.Seconds()
	if capacityBits > 0 {
		res.Utilization = float64(bottleneck.Stats().DeliveredBytes) * 8 / capacityBits
	}
	if res.FastRetransmits > 0 {
		res.TimeoutDupAckRatio = float64(res.Timeouts) / float64(res.FastRetransmits)
	}
	res.JainFairness = stats.JainIndex(perFlowDelivered)

	res.RED, res.AQM = disciplineStats(bottleneck.Queue())

	if len(n.bottlenecks) > 1 {
		for i, b := range n.bottlenecks {
			_, w := measure(counters[i])
			res.Bottlenecks = append(res.Bottlenecks, BottleneckStats{COV: w.COV(), Drops: b.Stats().Drops})
		}
		from := 0
		for _, g := range t.groups {
			res.Groups = append(res.Groups, groupStats(res.Flows[from:from+g.clients]))
			from += g.clients
		}
	}
	return res
}

// groupStats totals one client group's flows.
func groupStats(flows []FlowResult) GroupStats {
	g := GroupStats{Clients: len(flows)}
	delivered := make([]float64, len(flows))
	for i, f := range flows {
		g.Generated += f.Generated
		g.Delivered += f.Delivered
		g.Timeouts += f.Counters.Timeouts
		delivered[i] = float64(f.Delivered)
	}
	g.JainFairness = stats.JainIndex(delivered)
	return g
}

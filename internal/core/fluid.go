package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"tcpburst/internal/meanfield"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/telemetry"
)

// Backend selects the execution engine behind Run/RunBatch: the packet
// simulator (event-by-event, exact, cost grows with N) or the mean-field
// fluid model (ODE/fixed-point, cost independent of N). The zero value is
// the packet engine, so existing configurations — and their JSON
// encodings, golden digests, and cache keys — are unchanged.
type Backend int

// Execution engines.
const (
	PacketBackend Backend = iota
	FluidBackend
)

// Backends lists the engines in presentation order.
func Backends() []Backend { return []Backend{PacketBackend, FluidBackend} }

// String returns the engine's flag name.
func (b Backend) String() string {
	switch b {
	case PacketBackend:
		return "packet"
	case FluidBackend:
		return "fluid"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend converts a -backend flag value to a Backend.
func ParseBackend(s string) (Backend, error) {
	for _, b := range Backends() {
		if b.String() == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown backend %q (want packet or fluid)", s)
}

// maxFluidBuffer bounds the gateway buffer the fluid backend accepts: the
// stochastic queue closure solves a dense (B+1)-state chain, O(B³), inside
// the fixed-point loop. On a 2-vCPU x86-64 VM a Reno solve with 16,000
// flows at 100 pkts/s takes about 17 ms (drop-tail) and 45–60 ms (RED) at
// the paper's B = 50, but 1.3 s and 15–17 s at B = 512, where each of the
// RED closure's ~470 dense solves costs about 32 ms.
const maxFluidBuffer = 512

// validateFluid reports the first fluid-incompatible setting in an
// otherwise valid Config whose discipline scratch-builds to q. The fluid
// model has no packets, no per-flow state, and no reverse path, so every
// knob that observes or perturbs those is rejected loudly rather than
// silently ignored.
func (c Config) validateFluid(q queue.Discipline) error {
	switch q.(type) {
	case *queue.FIFO, *queue.RED:
	default:
		return fmt.Errorf("config: fluid backend has a mean-field law only for fifo and red; discipline %q needs -backend packet", c.Queue)
	}
	switch {
	case c.CwndSampleInterval > 0:
		return fmt.Errorf("config: fluid backend tracks window densities, not per-flow windows; use -fluid-trace instead of cwnd tracing")
	case c.TraceQueue:
		return fmt.Errorf("config: fluid backend has no sampled queue trace; use -fluid-trace for the ODE queue trajectory")
	case len(c.TraceClients) > 0:
		return fmt.Errorf("config: fluid backend has no per-client state to trace")
	case c.PacketLogCapacity > 0:
		return fmt.Errorf("config: fluid backend simulates no individual packets to log")
	case c.WireLossProb > 0:
		return fmt.Errorf("config: fluid backend models congestive loss only; WireLossProb is unsupported")
	case c.ReverseRateBps > 0 || c.ReverseBufferPackets > 0:
		return fmt.Errorf("config: fluid backend assumes an uncongested reverse path; reverse-path overrides are unsupported")
	case c.ClientDelayJitter > 0:
		return fmt.Errorf("config: fluid backend assumes exchangeable flows; per-client RTT jitter is unsupported")
	case c.Traffic != TrafficPoisson:
		return fmt.Errorf("config: fluid backend supports only Poisson sources (mean-field closure); traffic %v is unsupported", c.Traffic)
	case c.BufferPackets > maxFluidBuffer:
		return fmt.Errorf("config: fluid backend caps the gateway buffer at %d packets (got %d)", maxFluidBuffer, c.BufferPackets)
	}
	return nil
}

// fluidVariant maps a transport protocol to its mean-field window law.
func fluidVariant(p Protocol) meanfield.Variant {
	switch p {
	case UDP:
		return meanfield.UDP
	case Tahoe:
		return meanfield.Tahoe
	case Vegas:
		return meanfield.Vegas
	default: // Reno, RenoDelayAck, NewReno, Sack share the Reno law
		return meanfield.Reno
	}
}

// fluidParams maps a defaulted, validated Config onto meanfield.Params.
// The returned protocol slice names each class's transport, in class
// order, for per-protocol accounting.
func fluidParams(cfg Config) (meanfield.Params, []Protocol, error) {
	lambda := cfg.Lambda()
	var classes []meanfield.Class
	var protos []Protocol
	addClass := func(p Protocol, n int) {
		classes = append(classes, meanfield.Class{
			Flows:      n,
			Variant:    fluidVariant(p),
			Lambda:     lambda,
			DelayedAck: p == RenoDelayAck,
		})
		protos = append(protos, p)
	}
	if len(cfg.Mix) > 0 {
		for _, m := range cfg.Mix {
			addClass(m.Protocol, m.Clients)
		}
	} else {
		addClass(cfg.Protocol, cfg.Clients)
	}
	params := meanfield.Params{
		Classes:     classes,
		CapacityPPS: cfg.BottleneckRateBps / (8 * float64(cfg.PacketSize)),
		BaseRTT:     cfg.RTT().Seconds(),
		Buffer:      cfg.BufferPackets,
		MaxWindow:   float64(cfg.MaxWindow),
		MinRTO:      cfg.MinRTO.Seconds(),
		Duration:    cfg.Duration.Seconds(),
		Vegas:       meanfield.VegasParams{Alpha: cfg.Vegas.Alpha, Beta: cfg.Vegas.Beta},
	}
	q, err := cfg.scratchQueue()
	if err != nil {
		return meanfield.Params{}, nil, err
	}
	// Validation admitted only fifo and red: anything but RED is drop-tail.
	params.Queue = meanfield.FIFO
	if red, ok := q.(*queue.RED); ok {
		rc := red.Config()
		params.Queue = meanfield.RED
		params.RED = meanfield.REDParams{
			MinThreshold: rc.MinThreshold,
			MaxThreshold: rc.MaxThreshold,
			Weight:       rc.Weight,
			MaxProb:      rc.MaxProb,
			Gentle:       rc.Gentle,
			ECN:          rc.ECN,
		}
	}
	return params, protos, nil
}

// FluidStats carries the fluid backend's solver-level outcome on a Result.
type FluidStats struct {
	// Iterations and Residual report fixed-point convergence.
	Iterations int
	Residual   float64
	// DropProb and SignalProb are the equilibrium loss probabilities
	// (SignalProb includes ECN marks).
	DropProb, SignalProb float64
	// RTTSec is the equilibrium round-trip time.
	RTTSec float64
	// MeanWindow is the population mean congestion window.
	MeanWindow float64
	// Dispersion is the index of dispersion behind the c.o.v.
	Dispersion float64
	// ArrivalPPS and GoodputPPS are the equilibrium aggregate rates.
	ArrivalPPS, GoodputPPS float64
	// Counts tallies the solver's queue-closure work (dense chain solves,
	// screened RED comparisons, cache hits). It measures cost, not the
	// model, so Summary leaves it out and a cached result reads zero.
	Counts meanfield.SolveCounts
}

// runFluidContext executes cfg on the mean-field backend: the fixed point
// supplies the Summary metrics, and — when telemetry is enabled — the RK4
// integrator replays the transient through the standard sampler so the
// JSONL stream carries the same series a packet run produces.
func runFluidContext(ctx context.Context, cfg Config) (*Result, error) {
	params, protos, err := fluidParams(cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := meanfield.Solve(params)
	if err != nil {
		return nil, fmt.Errorf("fluid backend: %w", err)
	}
	res := fluidResult(cfg, params, protos, st)
	if cfg.TelemetryInterval > 0 {
		if err := runFluidTelemetry(ctx, cfg, params, res); err != nil {
			return nil, err
		}
	} else {
		res.SimEvents = uint64(st.Iterations)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// fluidResult maps the solved steady state onto the packet backend's
// Result shape, scaling equilibrium rates by the run duration wherever the
// packet engine reports totals.
func fluidResult(cfg Config, params meanfield.Params, protos []Protocol, st *meanfield.SteadyState) *Result {
	T := cfg.Duration.Seconds()
	capacity := cfg.BottleneckRateBps / (8 * float64(cfg.PacketSize))
	count := func(rate float64) uint64 {
		if rate <= 0 {
			return 0
		}
		return uint64(math.Round(rate * T))
	}

	res := &Result{
		Config:          cfg,
		COV:             st.COV,
		AnalyticCOV:     stats.PoissonAggregateCOV(cfg.Clients, cfg.Lambda(), cfg.RTT().Seconds()),
		MeanWindowCount: st.ArrivalPPS * cfg.RTT().Seconds(),
		Generated:       count(cfg.Lambda() * float64(cfg.Clients)),
		Delivered:       count(st.GoodputPPS),
		DataSent:        count(st.ArrivalPPS),
		ForwardDrops:    count(st.DropPPS),
		BottleneckDrops: count(st.DropPPS),
		Utilization:     st.Utilization,
		Timeouts:        count(st.TimeoutPPS),
		FastRetransmits: count(st.FastRecoveryPPS),
		DelayMeanSec:    (cfg.ClientDelay + cfg.BottleneckDelay).Seconds() + (st.QueueMean+1)/capacity,
		DelayP95Sec:     (cfg.ClientDelay + cfg.BottleneckDelay).Seconds() + (st.QueueP95+1)/capacity,
		Queue: QueueStats{
			Mean:     st.QueueMean,
			P95:      st.QueueP95,
			Max:      st.QueueMax,
			FullFrac: st.QueueFullFrac,
		},
		Fluid: &FluidStats{
			Iterations: st.Iterations,
			Residual:   st.Residual,
			DropProb:   st.DropProb,
			SignalProb: st.SignalProb,
			RTTSec:     st.RTT,
			MeanWindow: st.MeanWindow,
			Dispersion: st.Dispersion,
			ArrivalPPS: st.ArrivalPPS,
			GoodputPPS: st.GoodputPPS,
			Counts:     st.Counts,
		},
	}
	if res.DataSent > 0 {
		res.LossPct = 100 * float64(res.ForwardDrops) / float64(res.DataSent)
	}
	if res.FastRetransmits > 0 {
		res.TimeoutDupAckRatio = float64(res.Timeouts) / float64(res.FastRetransmits)
	}

	// Per-protocol totals and Jain fairness over per-flow goodputs: flows
	// within a class are exchangeable (identical mean rates), so the sums
	// collapse to class-weighted moments. Per-flow Result entries are
	// deliberately omitted — a million-flow run should not allocate a
	// million FlowResults.
	res.ByProtocol = make(map[Protocol]ProtocolTotals, len(protos))
	var sumG, sumG2, n float64
	for i, cs := range st.Classes {
		proto := protos[i]
		nc := float64(cs.Class.Flows)
		pt := res.ByProtocol[proto]
		pt.Flows += cs.Class.Flows
		pt.Generated += count(nc * cs.Class.Lambda)
		pt.Delivered += count(nc * cs.GoodputPPS)
		pt.DataSent += count(nc * cs.SendPPS)
		pt.Timeouts += count(nc * cs.TimeoutPPS)
		pt.JainFairness = 1 // exchangeable within a protocol block
		res.ByProtocol[proto] = pt
		sumG += nc * cs.GoodputPPS
		sumG2 += nc * cs.GoodputPPS * cs.GoodputPPS
		n += nc
	}
	if sumG2 > 0 {
		res.JainFairness = sumG * sumG / (n * sumG2)
	}
	if params.Queue == meanfield.RED {
		red := &REDStats{FinalAvg: st.REDAvgMean}
		if params.RED.ECN {
			red.Marks = count(st.MarkPPS)
			red.ForcedDrops = count(st.DropPPS)
		} else {
			red.EarlyDrops = count(st.ArrivalPPS * st.EarlyProb)
			red.ForcedDrops = count(st.ArrivalPPS * (1 - st.EarlyProb) * st.OverflowProb)
		}
		res.RED = red
	}
	return res
}

// WriteFluidTrace integrates the mean-field ODE transient for cfg and
// writes the sampled state trajectory — time, queue, RED average, per-class
// mean windows, drop probability, rates — as CSV to w. The interval is
// simulated time between samples; zero picks one sample per RK4 step. The
// config must be fluid-compatible (same validation as a fluid Run).
func WriteFluidTrace(w io.Writer, cfg Config, interval time.Duration) error {
	cfg.Backend = FluidBackend
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return err
	}
	params, _, err := fluidParams(cfg)
	if err != nil {
		return err
	}
	tr, err := meanfield.SampleTrajectory(params, interval.Seconds())
	if err != nil {
		return fmt.Errorf("fluid trace: %w", err)
	}
	if err := tr.WriteCSV(w); err != nil {
		return fmt.Errorf("fluid trace: %w", err)
	}
	return nil
}

// runFluidTelemetry integrates the ODE transient under a virtual-time
// scheduler, publishing the same series names the packet backend streams
// ("queue.depth", "gw.util", "cov.rtt", "gw.arrivals", "gw.drops",
// "gw.departures", "tcp.data_sent", "tcp.timeouts", ...) so burstreport
// and live sweep displays work unchanged.
func runFluidTelemetry(ctx context.Context, cfg Config, params meanfield.Params, res *Result) error {
	in, err := meanfield.NewIntegrator(params)
	if err != nil {
		return fmt.Errorf("fluid backend: %w", err)
	}
	sched := sim.NewScheduler()
	reg := telemetry.NewRegistry()

	// One shared snapshot per step keeps the probes cheap and mutually
	// consistent.
	var snap meanfield.Snapshot
	snapStep := ^uint64(0)
	current := func() meanfield.Snapshot {
		if in.Steps() != snapStep {
			snap = in.Snapshot()
			snapStep = in.Steps()
		}
		return snap
	}
	probe := func(name string, f func(meanfield.Snapshot) float64) {
		reg.Probe(name, func() float64 { return f(current()) })
	}
	probe("queue.depth", func(s meanfield.Snapshot) float64 { return s.Queue })
	probe("gw.util", func(s meanfield.Snapshot) float64 { return s.Utilization })
	probe("cov.rtt", func(s meanfield.Snapshot) float64 { return s.COV })
	probe("gw.arrivals", func(s meanfield.Snapshot) float64 { return s.Arrivals })
	probe("gw.drops", func(s meanfield.Snapshot) float64 { return s.Drops })
	probe("gw.departures", func(s meanfield.Snapshot) float64 { return s.Departures })
	probe("tcp.data_sent", func(s meanfield.Snapshot) float64 { return s.Arrivals })
	probe("tcp.timeouts", func(s meanfield.Snapshot) float64 { return s.Timeouts })
	probe("fluid.drop_prob", func(s meanfield.Snapshot) float64 { return s.DropProb })
	probe("fluid.mean_window", func(s meanfield.Snapshot) float64 { return s.MeanWindow })
	if params.Queue == meanfield.RED {
		probe("red.avg", func(s meanfield.Snapshot) float64 { return s.REDAvg })
		probe("aqm.marks", func(s meanfield.Snapshot) float64 { return s.Marks })
	}
	reg.Probe("sim.events", func() float64 { return float64(sched.Fired()) })

	// The integrator advances as recurring virtual-time events, so the
	// sampler interleaves with it exactly as with the packet engine.
	stepDur := sim.Duration(in.StepSize() * float64(time.Second))
	if stepDur < 1 {
		stepDur = 1
	}
	horizon := sim.TimeZero.Add(cfg.Duration)
	total := uint64(math.Ceil(cfg.Duration.Seconds() / in.StepSize()))
	var tick func()
	tick = func() {
		in.Step()
		if in.Steps() < total {
			sched.After(stepDur, tick)
		}
	}
	sched.After(stepDur, tick)

	t := &telem{reg: reg}
	if err := t.startSampler(cfg, sched, nil); err != nil {
		return err
	}
	watchContext(ctx, sched)
	if err := sched.Run(horizon); err != nil {
		if errors.Is(err, sim.ErrStopped) && ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fluid backend: %w", err)
	}
	res.SimEvents = sched.Fired()
	return t.finish(res)
}

// Package tcpburst's benchmark harness regenerates every table and figure
// of the paper at benchmark scale and reports the headline numbers as
// custom metrics. Absolute values use a shorter simulated duration than
// the paper's 200 s (pass -benchtime=1x to run each exactly once):
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Benchmarks map to the paper as follows:
//
//	BenchmarkTable1Defaults      — Table 1 (simulation parameters)
//	BenchmarkFigure2COV          — Figure 2 (c.o.v. per protocol/queue)
//	BenchmarkFigure3Throughput   — Figure 3 (packets delivered)
//	BenchmarkFigure4Loss         — Figure 4 (packet-loss percentage)
//	BenchmarkFigure5..9          — Reno congestion-window traces
//	BenchmarkFigure10..12        — Vegas congestion-window traces
//	BenchmarkFigure13TimeoutRatio — timeout / duplicate-ACK ratio
//	BenchmarkAblation*           — design-choice ablations beyond the paper
//	BenchmarkKernel*             — substrate micro-benchmarks
//	BenchmarkShardedScaling      — multi-core sharded execution speedup
//	BenchmarkShardedLargeRuns    — the sharding docs' N = 50k and 10⁵ runs
package tcpburst

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
	"tcpburst/internal/tcp"
)

// benchDuration trades fidelity for wall-clock time; the cmd/burstsweep and
// cmd/cwndtrace tools run the paper's full 200 s.
const benchDuration = 30 * time.Second

func runBench(b *testing.B, cfg core.Config) *core.Result {
	b.Helper()
	cfg.Duration = benchDuration
	var res *core.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.Run(cfg)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
	}
	return res
}

func BenchmarkTable1Defaults(b *testing.B) {
	cfg := core.DefaultConfig(39, core.Reno, core.FIFO)
	if err := cfg.Validate(); err != nil {
		b.Fatalf("Table 1 defaults invalid: %v", err)
	}
	res := runBench(b, cfg)
	b.ReportMetric(cfg.RTT().Seconds(), "rtt_s")
	b.ReportMetric(cfg.OfferedLoadBps()/cfg.BottleneckRateBps, "offered/capacity")
	b.ReportMetric(res.Utilization, "utilization")
}

// figureCells are the protocol/queue combinations of Figures 2-4 and 13.
func figureCells() []core.Cell { return core.PaperCells() }

// figureLoads samples the three congestion regimes of the sweep x-axis.
var figureLoads = []int{20, 39, 60}

func benchFigure(b *testing.B, metricName string, metric func(*core.Result) float64) {
	for _, cell := range figureCells() {
		for _, n := range figureLoads {
			b.Run(fmt.Sprintf("%s/n%d", cell, n), func(b *testing.B) {
				res := runBench(b, core.DefaultConfig(n, cell.Protocol, cell.Gateway))
				b.ReportMetric(metric(res), metricName)
				b.ReportMetric(res.AnalyticCOV, "poisson_cov")
			})
		}
	}
}

func BenchmarkFigure2COV(b *testing.B) {
	benchFigure(b, "cov", core.MetricCOV)
}

func BenchmarkFigure3Throughput(b *testing.B) {
	benchFigure(b, "delivered_pkts", core.MetricThroughput)
}

func BenchmarkFigure4Loss(b *testing.B) {
	benchFigure(b, "loss_pct", core.MetricLossPct)
}

func BenchmarkFigure13TimeoutRatio(b *testing.B) {
	benchFigure(b, "timeout_dupack_ratio", core.MetricTimeoutRatio)
}

// benchCwndTrace runs a traced experiment and reports the trace statistics
// that summarize the paper's window-evolution figures: mean window and the
// fraction of samples at a collapsed window (cwnd <= 1).
func benchCwndTrace(b *testing.B, p core.Protocol, clients int) {
	cfg := core.DefaultConfig(clients, p, core.FIFO)
	cfg.CwndSampleInterval = 100 * time.Millisecond
	res := runBench(b, cfg)
	var w stats.Welford
	collapses, total := 0, 0
	for _, s := range res.CwndTraces {
		for _, smp := range s.Samples {
			w.Add(smp.Value)
			if smp.Value <= 1 {
				collapses++
			}
			total++
		}
	}
	b.ReportMetric(w.Mean(), "mean_cwnd")
	b.ReportMetric(w.COV(), "cwnd_cov")
	if total > 0 {
		b.ReportMetric(float64(collapses)/float64(total), "collapse_frac")
	}
	b.ReportMetric(res.JainFairness, "jain")
}

func BenchmarkFigure5RenoCwnd20(b *testing.B)   { benchCwndTrace(b, core.Reno, 20) }
func BenchmarkFigure6RenoCwnd30(b *testing.B)   { benchCwndTrace(b, core.Reno, 30) }
func BenchmarkFigure7RenoCwnd38(b *testing.B)   { benchCwndTrace(b, core.Reno, 38) }
func BenchmarkFigure8RenoCwnd39(b *testing.B)   { benchCwndTrace(b, core.Reno, 39) }
func BenchmarkFigure9RenoCwnd60(b *testing.B)   { benchCwndTrace(b, core.Reno, 60) }
func BenchmarkFigure10VegasCwnd20(b *testing.B) { benchCwndTrace(b, core.Vegas, 20) }
func BenchmarkFigure11VegasCwnd30(b *testing.B) { benchCwndTrace(b, core.Vegas, 30) }
func BenchmarkFigure12VegasCwnd60(b *testing.B) { benchCwndTrace(b, core.Vegas, 60) }

// Ablations beyond the paper: how the conclusions move when design choices
// change.

// BenchmarkAblationVariants contrasts Tahoe, Reno and NewReno burstiness at
// the same heavy load — how much of the modulation is Reno-specific.
func BenchmarkAblationVariants(b *testing.B) {
	for _, p := range []core.Protocol{core.Tahoe, core.Reno, core.NewReno, core.Sack, core.Vegas} {
		b.Run(p.String(), func(b *testing.B) {
			res := runBench(b, core.DefaultConfig(60, p, core.FIFO))
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(res.LossPct, "loss_pct")
			b.ReportMetric(float64(res.Timeouts), "timeouts")
		})
	}
}

// withQueue sets cfg's gateway discipline from a registry spec string.
func withQueue(cfg core.Config, spec string) core.Config {
	s, err := queue.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	cfg.Queue = &s
	return cfg
}

// BenchmarkAblationREDMaxProb sweeps RED aggressiveness: the paper-era ns
// default (0.1) versus Floyd & Jacobson's recommended 0.02.
func BenchmarkAblationREDMaxProb(b *testing.B) {
	for _, maxP := range []float64{0.02, 0.1, 0.5} {
		b.Run(fmt.Sprintf("maxp%.2f", maxP), func(b *testing.B) {
			cfg := withQueue(core.DefaultConfig(60, core.Reno, 0), fmt.Sprintf("red?maxprob=%g", maxP))
			res := runBench(b, cfg)
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(float64(res.Delivered), "delivered_pkts")
		})
	}
}

// BenchmarkAblationBufferSize varies the gateway buffer: the closed-loop
// crossover N* = (BDP+B)/cwnd moves with B.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, buf := range []int{25, 50, 100, 200} {
		b.Run(fmt.Sprintf("B%d", buf), func(b *testing.B) {
			cfg := core.DefaultConfig(39, core.Reno, core.FIFO)
			cfg.BufferPackets = buf
			res := runBench(b, cfg)
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(res.LossPct, "loss_pct")
		})
	}
}

// BenchmarkAblationGentleRED contrasts the paper's cliff-at-maxth RED with
// Floyd's 2000 gentle refinement (extension).
func BenchmarkAblationGentleRED(b *testing.B) {
	for _, gentle := range []bool{false, true} {
		name := "cliff"
		if gentle {
			name = "gentle"
		}
		b.Run(name, func(b *testing.B) {
			cfg := withQueue(core.DefaultConfig(60, core.Reno, 0), fmt.Sprintf("red?gentle=%t", gentle))
			res := runBench(b, cfg)
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(res.LossPct, "loss_pct")
			b.ReportMetric(float64(res.Delivered), "delivered_pkts")
		})
	}
}

// BenchmarkAblationECN contrasts drop-RED against mark-ECN (extension).
func BenchmarkAblationECN(b *testing.B) {
	for _, ecn := range []bool{false, true} {
		name := "drop"
		if ecn {
			name = "mark"
		}
		b.Run(name, func(b *testing.B) {
			cfg := withQueue(core.DefaultConfig(50, core.Reno, 0), fmt.Sprintf("red?ecn=%t", ecn))
			res := runBench(b, cfg)
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(res.LossPct, "loss_pct")
		})
	}
}

// BenchmarkAblationRandomLoss reproduces the Lakshman–Madhow random-loss
// effect the paper cites as [10]: window-limited TCP goodput collapses
// under non-congestive wire loss far faster than the loss rate itself.
func BenchmarkAblationRandomLoss(b *testing.B) {
	for _, p := range []float64{0, 0.01, 0.03, 0.1} {
		for _, proto := range []core.Protocol{core.Reno, core.Sack} {
			b.Run(fmt.Sprintf("%s/p%.2f", proto, p), func(b *testing.B) {
				cfg := core.DefaultConfig(5, proto, core.FIFO)
				cfg.MeanInterval = 2 * time.Millisecond // window-limited flows
				cfg.WireLossProb = p
				res := runBench(b, cfg)
				b.ReportMetric(float64(res.Delivered), "delivered_pkts")
				b.ReportMetric(float64(res.Timeouts), "timeouts")
			})
		}
	}
}

// BenchmarkAblationAckPath chokes the reverse (acknowledgment) path — the
// paper keeps it uncongested; this measures how ACK loss and compression
// feed back into forward burstiness.
func BenchmarkAblationAckPath(b *testing.B) {
	for _, rate := range []float64{31e6, 1e6, 200e3} {
		b.Run(fmt.Sprintf("rev%.0fkbps", rate/1e3), func(b *testing.B) {
			cfg := core.DefaultConfig(20, core.Reno, core.FIFO)
			cfg.ReverseRateBps = rate
			cfg.ReverseBufferPackets = 20
			res := runBench(b, cfg)
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(float64(res.AckDrops), "ack_drops")
			b.ReportMetric(float64(res.Delivered), "delivered_pkts")
		})
	}
}

// BenchmarkAblationGatewayDiscipline compares all three disciplines at
// heavy load: the paper's FIFO/RED pair plus deficit-round-robin fair
// queueing, the scheduling answer to the paper's opening question.
func BenchmarkAblationGatewayDiscipline(b *testing.B) {
	for _, q := range []core.GatewayQueue{core.FIFO, core.RED, core.DRR} {
		b.Run(q.String(), func(b *testing.B) {
			res := runBench(b, core.DefaultConfig(60, core.Reno, q))
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(res.LossPct, "loss_pct")
			b.ReportMetric(res.JainFairness, "jain")
		})
	}
}

// BenchmarkAblationTrafficModel swaps the paper's Poisson sources for
// heavy-tailed Pareto on/off sources at the same mean rate — how much of
// the aggregate's burstiness comes from the application versus TCP.
func BenchmarkAblationTrafficModel(b *testing.B) {
	for _, tm := range []core.TrafficModel{core.TrafficPoisson, core.TrafficParetoOnOff} {
		for _, p := range []core.Protocol{core.UDP, core.Reno} {
			b.Run(fmt.Sprintf("%s/%s", tm, p), func(b *testing.B) {
				cfg := core.DefaultConfig(30, p, core.FIFO)
				cfg.Traffic = tm
				res := runBench(b, cfg)
				b.ReportMetric(res.COV, "cov")
				b.ReportMetric(res.Hurst, "hurst")
			})
		}
	}
}

// BenchmarkAblationRTTJitter spreads client access delays: identical RTTs
// maximize the lockstep window decisions the paper blames for burstiness;
// heterogeneous RTTs should desynchronize and smooth the aggregate.
func BenchmarkAblationRTTJitter(b *testing.B) {
	for _, jitter := range []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond} {
		b.Run(fmt.Sprintf("jitter%s", jitter), func(b *testing.B) {
			cfg := core.DefaultConfig(55, core.Reno, core.FIFO)
			cfg.ClientDelayJitter = jitter
			cfg.CwndSampleInterval = 100 * time.Millisecond
			cfg.TraceClients = []int{1, 28, 55}
			res := runBench(b, cfg)
			b.ReportMetric(res.COV, "cov")
			b.ReportMetric(res.CwndSyncIndex, "sync_index")
		})
	}
}

// BenchmarkAblationParkingLot extends the study to two bottlenecks: long
// flows crossing both hops versus single-hop cross traffic (the
// distributed-system topology the paper's introduction motivates). The
// long flows' share of hop 2 is the multi-bottleneck fairness headline.
func BenchmarkAblationParkingLot(b *testing.B) {
	for _, p := range []core.Protocol{core.Reno, core.Vegas} {
		b.Run(p.String(), func(b *testing.B) {
			res := runBench(b, core.Config{
				ParkingLot: &core.ParkingLot{Long: 20, Hop1: 20, Hop2: 20},
				Protocol:   p,
			})
			long, hop2 := res.Groups[0].Delivered, res.Groups[2].Delivered
			b.ReportMetric(float64(long)/float64(long+hop2), "long_share_hop2")
			b.ReportMetric(res.Bottlenecks[0].COV, "cov_hop1")
			b.ReportMetric(res.Bottlenecks[1].COV, "cov_hop2")
		})
	}
}

// Substrate micro-benchmarks: raw event and queue throughput.

func BenchmarkKernelEventThroughput(b *testing.B) {
	sched := sim.NewScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.After(time.Microsecond, func() {})
		sched.Step()
	}
}

func BenchmarkKernelTimerResetStop(b *testing.B) {
	sched := sim.NewScheduler()
	tm := sim.NewTimer(sched, func(any) {}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Second)
		tm.Stop()
	}
}

func BenchmarkREDEnqueueDequeue(b *testing.B) {
	red, err := queue.NewRED(queue.DefaultREDConfig(50, 258*time.Microsecond, sim.NewRNG(1)))
	if err != nil {
		b.Fatalf("NewRED: %v", err)
	}
	p := &packet.Packet{Kind: packet.Data, Size: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(i * 1000)
		red.Enqueue(now, p)
		red.Dequeue(now)
	}
}

func BenchmarkFIFOEnqueueDequeue(b *testing.B) {
	q := queue.NewFIFO(50)
	p := &packet.Packet{Kind: packet.Data, Size: 1000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(0, p)
		q.Dequeue(0)
	}
}

// benchSweep runs a small but non-trivial sweep (2 cells x 4 client counts)
// through the experiment runner with the given worker count, reporting the
// runner's own telemetry so serial and parallel numbers are comparable.
func benchSweep(b *testing.B, jobs int) {
	base := core.DefaultConfig(0, core.Reno, core.FIFO)
	base.Duration = 5 * time.Second
	opts := core.SweepOptions{
		Base:    base,
		Clients: []int{8, 16, 24, 32},
		Cells: []core.Cell{
			{Protocol: core.Reno, Gateway: core.FIFO},
			{Protocol: core.Vegas, Gateway: core.FIFO},
		},
		Exec: core.ExecOptions{Jobs: jobs},
	}
	var sweep *core.Sweep
	var err error
	for i := 0; i < b.N; i++ {
		sweep, err = core.RunSweepContext(context.Background(), opts)
		if err != nil {
			b.Fatalf("sweep: %v", err)
		}
	}
	b.ReportMetric(sweep.Stats.EventsPerSec(), "sim_events/s")
	b.ReportMetric(sweep.Stats.Speedup(), "speedup")
}

// BenchmarkSweepSerial and BenchmarkSweepParallel measure the experiment
// runner itself: the same sweep on one worker versus the full pool. The
// parallel run returns byte-identical results; the win is wall time.
func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// nullWire discards packets; it exists so state-accounting probes can
// construct transport endpoints without a topology.
type nullWire struct{}

func (nullWire) Send(*packet.Packet) {}

// stateBytesPerFlow reports the steady-state memory footprint of one
// flow's transport endpoints (sender + sink) under the experiment's
// advertised window — the per-flow cost that bounds large-N scaling.
func stateBytesPerFlow(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	tc := tcp.Config{
		Ends:   tcp.Ends{Out: nullWire{}},
		Params: tcp.Params{Variant: tcp.Reno, MaxWindow: cfg.MaxWindow, Sched: sim.NewScheduler()},
	}
	snd, err := tcp.NewSender(tc)
	if err != nil {
		b.Fatalf("NewSender: %v", err)
	}
	snk, err := tcp.NewSink(tc)
	if err != nil {
		b.Fatalf("NewSink: %v", err)
	}
	return float64(snd.StateBytes() + snk.StateBytes())
}

// BenchmarkScalingClients runs the paper topology at client counts far
// beyond the paper's sweep. Per-flow transport state is dense
// (index-addressed rings and bitmaps, no hash maps), so simulation speed
// and bytes of state per flow should both stay flat as N grows; this tier
// is the regression guard for that property.
func BenchmarkScalingClients(b *testing.B) {
	for _, n := range []int{100, 500, 2000, 5000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig(n, core.Reno, core.FIFO)
			cfg.Duration = 2 * time.Second
			var total uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatalf("run: %v", err)
				}
				total += res.DataSent
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim_pkts/s")
			}
			b.ReportMetric(stateBytesPerFlow(b, cfg), "state_bytes/flow")
		})
	}
}

// BenchmarkShardedScaling measures the window-barrier sharded executor on
// one large packet simulation. The aggregate offered load is pinned at
// 0.9x the bottleneck (the convergence-gate operating point), so every N
// simulates the same event volume and the sweep isolates two effects: how
// per-event cost grows with resident flow state (shards=1 column), and how
// much of it sharding wins back (speedup = sharded rate / serial rate at
// the same N, only reported when the serial cell ran first). Results are
// bit-identical across the shards axis — the golden and determinism suites
// pin that — so this tier measures time, not behavior. Speedup needs a
// core per shard. On a 2-vCPU x86-64 VM, two runs per cell, K=2 gave
// 1.07–1.10× at N=5k, 1.20–1.35× at 20k and 1.16–1.40× at 100k, while
// K=4 and K=8 gave 0.72–1.17×: with more shards than cores the barrier
// parks at every window.
func BenchmarkShardedScaling(b *testing.B) {
	serial := make(map[int]float64)
	for _, n := range []int{5_000, 20_000, 100_000} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("N=%d/shards=%d", n, shards), func(b *testing.B) {
				cfg := core.DefaultConfig(n, core.Reno, core.FIFO)
				cfg.Duration = 20 * time.Second
				cfg.BufferPackets = 20
				capacity := cfg.BottleneckRateBps / (8 * float64(cfg.PacketSize))
				cfg.MeanInterval = time.Duration(float64(time.Second) * float64(n) / (0.9 * capacity))
				cfg.Shards = shards
				var total uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Run(cfg)
					if err != nil {
						b.Fatalf("run: %v", err)
					}
					total += res.DataSent
				}
				b.StopTimer()
				if b.Elapsed() <= 0 {
					return
				}
				rate := float64(total) / b.Elapsed().Seconds()
				b.ReportMetric(rate, "sim_pkts/s")
				if shards == 1 {
					serial[n] = rate
				} else if base := serial[n]; base > 0 {
					b.ReportMetric(rate/base, "speedup")
				}
			})
		}
	}
}

// BenchmarkShardedLargeRuns times the two large single runs the sharding
// docs quote (README, EXPERIMENTS.md, DESIGN.md §11) at K = 1..4 shards:
// perfbench's flows-50k configuration (N = 50k Poisson clients at 0.9×
// load behind CoDel, buffer 20, 100 s) and the EXPERIMENTS N = 10⁵ recipe
// (20 s, 1/λ = 28.67 s, paper defaults otherwise). Take medians over
//
//	go test -bench=ShardedLargeRuns -benchtime=1x -count=5 -run '^$' .
//
// Next to the time it reports the barrier's window count and the share of
// barrier waits that parked.
func BenchmarkShardedLargeRuns(b *testing.B) {
	codel, err := queue.ParseSpec("codel")
	if err != nil {
		b.Fatal(err)
	}
	flows := core.DefaultConfig(50_000, core.Reno, core.FIFO)
	flows.Gateway, flows.Queue = 0, &codel
	flows.Duration = 100 * time.Second
	flows.BufferPackets = 20
	capacity := flows.BottleneckRateBps / (8 * float64(flows.PacketSize))
	flows.MeanInterval = time.Duration(float64(time.Second) * float64(flows.Clients) / (0.9 * capacity))
	recipe := core.DefaultConfig(100_000, core.Reno, core.FIFO)
	recipe.Duration = 20 * time.Second
	recipe.MeanInterval = 28670 * time.Millisecond
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"flows-50k", flows}, {"N=100000", recipe}} {
		for shards := 1; shards <= 4; shards++ {
			b.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(b *testing.B) {
				cfg := c.cfg
				cfg.Shards = shards
				var res *core.Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = core.Run(cfg); err != nil {
						b.Fatalf("run: %v", err)
					}
				}
				if res.ShardWindows > 0 {
					b.ReportMetric(float64(res.ShardWindows), "windows")
					b.ReportMetric(float64(res.ShardParks)/float64(res.ShardWindows*uint64(shards)), "park_frac")
				}
			})
		}
	}
}

// BenchmarkAQMDisciplines prices the registry-built AQM control laws
// against FIFO at scaling client counts. CoDel consults the sojourn clock
// and PIE runs its probability update on a 15 ms virtual timer, all on the
// gateway's per-packet path; this tier pins that overhead so a discipline
// refactor cannot quietly tax every simulated packet. Reported as
// sim_pkts/s per discipline, gated like the scaling tier.
func BenchmarkAQMDisciplines(b *testing.B) {
	for _, spec := range []string{"fifo", "codel", "pie"} {
		for _, n := range []int{2_000, 5_000} {
			b.Run(fmt.Sprintf("%s/N=%d", spec, n), func(b *testing.B) {
				cfg := core.DefaultConfig(n, core.Reno, core.FIFO)
				s, err := queue.ParseSpec(spec)
				if err != nil {
					b.Fatalf("ParseSpec: %v", err)
				}
				cfg.Gateway = 0
				cfg.Queue = &s
				cfg.Duration = 2 * time.Second
				var total uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Run(cfg)
					if err != nil {
						b.Fatalf("run: %v", err)
					}
					total += res.DataSent
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim_pkts/s")
				}
			})
		}
	}
}

// BenchmarkBurstBatching measures what burst-train coalescing buys on the
// post-crossover scaling cells, where the workload emits the back-to-back
// packet trains the batching targets: heavy-tailed Pareto on/off sources
// whose in-burst interval equals the access-link serialization time, so
// every burst leaves its client at line rate (the self-similar regime of
// Willinger et al. layered over the paper's dumbbell, offered load pinned
// at 1.11x the bottleneck). Each N runs with batching off (one scheduler
// op per packet hop) and on (train delivery, serialization pipelining);
// both execute the exact same event schedule — the
// golden digests and the batching equivalence matrix pin that — so
// speedup is pure kernel-overhead reduction. The
// sched_ops/evt metric is the measured ops-per-event ratio: slot filings
// per executed event, which batching pushes well below 1.
func BenchmarkBurstBatching(b *testing.B) {
	off := make(map[int]float64)
	for _, n := range []int{2_000, 5_000, 20_000} {
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"off", true}, {"on", false}} {
			b.Run(fmt.Sprintf("N=%d/batch=%s", n, mode.name), func(b *testing.B) {
				cfg := core.DefaultConfig(n, core.Reno, core.FIFO)
				cfg.Duration = 300 * time.Second
				cfg.BufferPackets = 20
				capacity := cfg.BottleneckRateBps / (8 * float64(cfg.PacketSize))
				cfg.MeanInterval = time.Duration(float64(time.Second) * float64(n) / (0.9 * capacity))
				cfg.Traffic = core.TrafficParetoOnOff
				// Duty cycle such that the derived in-burst interval is the
				// access serialization time (bursts leave clients at line
				// rate); off periods short enough that every client bursts
				// a handful of times inside the run, with the on period
				// following from the duty cycle. Larger N therefore means
				// rarer, shorter bursts per client at the same aggregate
				// load — the scaling axis the tier sweeps.
				ser := sim.SerializationDelay(cfg.PacketSize, cfg.ClientRateBps)
				duty := float64(ser) / float64(cfg.MeanInterval)
				cfg.MeanOffTime = cfg.Duration / 5
				cfg.MeanOnTime = time.Duration(float64(cfg.MeanOffTime) * duty / (1 - duty))
				cfg.DisableBatching = mode.disable
				var total, ops, evts uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := core.Run(cfg)
					if err != nil {
						b.Fatalf("run: %v", err)
					}
					total += res.DataSent
					ops += res.SchedOps
					evts += res.SimEvents
				}
				b.StopTimer()
				if b.Elapsed() <= 0 {
					return
				}
				rate := float64(total) / b.Elapsed().Seconds()
				b.ReportMetric(rate, "sim_pkts/s")
				if evts > 0 {
					b.ReportMetric(float64(ops)/float64(evts), "sched_ops/evt")
				}
				if mode.disable {
					off[n] = rate
				} else if base := off[n]; base > 0 {
					b.ReportMetric(rate/base, "speedup")
				}
			})
		}
	}
}

// BenchmarkFluidBackend measures the mean-field solver across client counts
// the packet engine cannot touch. The aggregate offered load is pinned at
// 0.9x the bottleneck so every N solves the same operating point; solve
// cost must stay flat in N (the state is per-class window densities plus a
// (B+1)-state queue chain, never per-flow).
func BenchmarkFluidBackend(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig(n, core.Reno, core.FIFO)
			cfg.Backend = core.FluidBackend
			cfg.Duration = 60 * time.Second
			capacity := cfg.BottleneckRateBps / (8 * float64(cfg.PacketSize))
			cfg.MeanInterval = time.Duration(float64(time.Second) * float64(n) / (0.9 * capacity))
			var res *core.Result
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = core.Run(cfg)
				if err != nil {
					b.Fatalf("run: %v", err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Fluid.Iterations), "iterations")
			b.ReportMetric(res.Fluid.DropProb, "drop_prob")
			b.ReportMetric(res.COV, "cov")
		})
	}
}

// BenchmarkTelemetryOverhead measures what the telemetry subsystem costs a
// large run: the same 2000-client experiment with telemetry disabled and
// with 100 ms snapshots into an in-memory ring. The counter handles on
// every hot path are supposed to be near-free and the sampler
// allocation-free, so the enabled sim_pkts/s must stay within a few
// percent of disabled (CI enforces 5%).
func BenchmarkTelemetryOverhead(b *testing.B) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"disabled", false}, {"enabled", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := core.DefaultConfig(2000, core.Reno, core.FIFO)
			cfg.Duration = 2 * time.Second
			if mode.enabled {
				cfg.TelemetryInterval = 100 * time.Millisecond
			}
			var total uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatalf("run: %v", err)
				}
				total += res.DataSent
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim_pkts/s")
			}
		})
	}
}

// BenchmarkExperimentPacketsPerSecond measures the simulator's own speed:
// simulated packets processed per wall-clock second for a full experiment.
func BenchmarkExperimentPacketsPerSecond(b *testing.B) {
	cfg := core.DefaultConfig(39, core.Reno, core.FIFO)
	cfg.Duration = 10 * time.Second
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		total += res.DataSent
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "sim_pkts/s")
	}
}

// Command burstsim runs a single burstiness experiment — N Poisson clients
// over a chosen transport protocol and gateway discipline — and prints the
// metrics the paper reports.
//
// Usage:
//
//	burstsim -clients 39 -proto reno -queue fifo -duration 200s
//	burstsim -clients 39 -cache -stats     # reuse/store the result on disk
//	burstsim -backend fluid -clients 1000000 -mean-interval 286.7s
//
// With -backend fluid the run solves the mean-field model instead of
// simulating packets: cost independent of N, same summary and telemetry
// shapes, and -fluid-trace FILE dumps the ODE state trajectory as CSV.
//
// With -cache the run is served from the persistent result store when the
// same configuration has been simulated before (-flows always simulates:
// the per-flow breakdown is not part of the cached digest). With
// -telemetry-out FILE the run streams periodic snapshot records — queue
// depth, per-RTT c.o.v., per-flow windows, drop and retransmit counters —
// to FILE (JSONL, or CSV by extension) while a live line on stderr shows
// the run's pulse; -telemetry alone shows only the line. Telemetry runs
// always simulate, never touching the cache.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tcpburst/cmd/internal/cli"
	"tcpburst/internal/core"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "burstsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("burstsim", flag.ContinueOnError)
	var (
		clients  = fs.Int("clients", 20, "number of Poisson client streams")
		proto    = fs.String("proto", "reno", "transport protocol: udp, reno, reno-delayack, vegas, tahoe, newreno, sack")
		qdisc    = fs.String("queue", "fifo", "gateway discipline spec: fifo, red, drr, codel, pie, tokenbucket, leakybucket — with ?key=value params, e.g. red?min=5&max=20&weight=0.01&maxprob=0.2 or codel?target=5ms&interval=100ms")
		perFlow  = fs.Bool("flows", false, "print per-flow breakdown")
		asJSON   = fs.Bool("json", false, "emit the result summary as JSON")
		minRTO   = fs.Duration("minrto", 0, "minimum TCP retransmission timeout (0 = default)")
		wireLoss = fs.Float64("wireloss", 0, "random loss probability on the bottleneck wire")
		revRate  = fs.Float64("revrate", 0, "reverse (ACK) path rate in bps (0 = bottleneck rate)")

		fluidTrace         = fs.String("fluid-trace", "", "write the fluid backend's ODE state trajectory as CSV to this file (requires -backend fluid)")
		fluidTraceInterval = fs.Duration("fluid-trace-interval", 0, "simulated time between fluid-trace samples (0 = every integrator step)")
	)
	runFlags := cli.NewRun(fs, cli.Shards|cli.MeanInterval)
	execFlags := cli.NewExec(fs, cli.Cache)
	telemetryFlags := cli.NewTelemetry(fs, 0)
	profFlags := cli.NewProfile(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	p, err := core.ParseProtocol(*proto)
	if err != nil {
		return err
	}
	qopt, err := core.ParseDiscipline(*qdisc)
	if err != nil {
		return err
	}
	b, opts, err := runFlags.Options()
	if err != nil {
		return err
	}
	if *fluidTrace != "" && b != core.FluidBackend {
		return fmt.Errorf("-fluid-trace requires -backend fluid")
	}
	if *perFlow && b == core.FluidBackend {
		return fmt.Errorf("-flows requires the packet backend: the fluid model tracks window densities, not individual flows")
	}

	opts = append(opts,
		core.WithClients(*clients),
		core.WithProtocol(p),
		qopt,
		core.WithWireLoss(*wireLoss),
		core.WithReverseRate(*revRate),
	)
	if *minRTO > 0 {
		opts = append(opts, core.WithMinRTO(*minRTO))
	}
	telOpts, err := telemetryFlags.Open()
	if err != nil {
		return err
	}
	cfg, err := core.NewConfig(append(opts, telOpts...)...)
	if err != nil {
		return telemetryFlags.Close(err)
	}

	// The per-flow breakdown is not part of the cached digest.
	ctx, exec := execFlags.Start(!*perFlow)
	results, batchStats, err := core.RunBatch(ctx, []core.Config{cfg}, exec)
	execFlags.Finish()
	if err := telemetryFlags.Close(err); err != nil {
		return err
	}
	res := results[0]
	if *fluidTrace != "" {
		f, err := os.Create(*fluidTrace)
		if err != nil {
			return err
		}
		err = core.WriteFluidTrace(f, cfg, *fluidTraceInterval)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if execFlags.Stats {
		fmt.Fprint(os.Stderr, batchStats.Table())
		fmt.Fprint(os.Stderr, barrierStats(res))
		fmt.Fprint(os.Stderr, solverStats(res))
	}
	if *asJSON {
		raw, err := res.MarshalSummaryJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(raw))
		return nil
	}
	printResult(w, res, *perFlow)
	return nil
}

// barrierStats describes a sharded run's window barrier: its window
// count, the events per window and the share of barrier waits that
// parked. It is empty for serial and cached runs.
func barrierStats(res *core.Result) string {
	if res.ShardWindows == 0 {
		return ""
	}
	w := float64(res.ShardWindows)
	return fmt.Sprintf("shard barrier: %d windows, %.1f events/window, %.1f%% of waits parked\n",
		res.ShardWindows, float64(res.SimEvents)/w, 100*float64(res.ShardParks)/(w*float64(res.Config.Shards)))
}

// solverStats describes a fluid run's queue-closure work: dense chain
// solves, RED comparisons the cut recursion screened, and cache hits. It
// is empty for packet and cached runs.
func solverStats(res *core.Result) string {
	if res.Fluid == nil || res.Fluid.Counts.DenseSolves == 0 {
		return ""
	}
	c := res.Fluid.Counts
	return fmt.Sprintf("fluid solver: %d dense chain solves, %d screened comparisons, %d cache hits\n",
		c.DenseSolves, c.Screened, c.CacheHits)
}

func printResult(w io.Writer, res *core.Result, perFlow bool) {
	cfg := res.Config
	fmt.Fprintf(w, "experiment: %d clients, %s, %s gateway, %s (%s)\n",
		cfg.Clients, cfg.Protocol, cfg.QueueName(), cfg.Duration, cfg.CongestionLevel())
	fmt.Fprintf(w, "  offered load        %.2f Mbps of %.2f Mbps bottleneck\n",
		cfg.OfferedLoadBps()/1e6, cfg.BottleneckRateBps/1e6)
	fmt.Fprintf(w, "  c.o.v. (measured)   %.4f\n", res.COV)
	fmt.Fprintf(w, "  c.o.v. (Poisson)    %.4f\n", res.AnalyticCOV)
	fmt.Fprintf(w, "  modulation ratio    %.2fx\n", safeRatio(res.COV, res.AnalyticCOV))
	fmt.Fprintf(w, "  generated           %d packets\n", res.Generated)
	fmt.Fprintf(w, "  delivered           %d packets\n", res.Delivered)
	fmt.Fprintf(w, "  data sent           %d packets (%d retransmits)\n",
		res.DataSent, res.DataSent-minu(res.DataSent, res.Generated))
	fmt.Fprintf(w, "  loss                %.3f%% (%d forward drops, %d at bottleneck)\n",
		res.LossPct, res.ForwardDrops, res.BottleneckDrops)
	fmt.Fprintf(w, "  utilization         %.1f%%\n", res.Utilization*100)
	fmt.Fprintf(w, "  timeouts            %d\n", res.Timeouts)
	fmt.Fprintf(w, "  fast retransmits    %d\n", res.FastRetransmits)
	fmt.Fprintf(w, "  timeout/dupack      %.3f\n", res.TimeoutDupAckRatio)
	fmt.Fprintf(w, "  Jain fairness       %.4f\n", res.JainFairness)
	fmt.Fprintf(w, "  Hurst (var-time)    %.3f\n", res.Hurst)
	fmt.Fprintf(w, "  queue mean/p95/max  %.1f / %.1f / %.0f pkts (near-full %.1f%%)\n",
		res.Queue.Mean, res.Queue.P95, res.Queue.Max, res.Queue.FullFrac*100)
	fmt.Fprintf(w, "  one-way delay       %.1f ms mean, %.1f ms p95\n",
		res.DelayMeanSec*1000, res.DelayP95Sec*1000)
	if res.WireLosses > 0 {
		fmt.Fprintf(w, "  wire losses         %d\n", res.WireLosses)
	}
	if res.AckDrops > 0 {
		fmt.Fprintf(w, "  ack drops           %d\n", res.AckDrops)
	}
	if res.RED != nil {
		fmt.Fprintf(w, "  RED: %d early drops, %d forced drops, %d marks, final avg %.1f\n",
			res.RED.EarlyDrops, res.RED.ForcedDrops, res.RED.Marks, res.RED.FinalAvg)
	}
	if res.AQM != nil {
		fmt.Fprintf(w, "  AQM: %d early drops, %d forced drops, %d marks, %d shed, final %.3f\n",
			res.AQM.EarlyDrops, res.AQM.ForcedDrops, res.AQM.Marks, res.AQM.Shed, res.AQM.FinalAvg)
	}
	if res.Fluid != nil {
		fmt.Fprintf(w, "  fluid: %d iterations, residual %.2e, drop prob %.4f, mean window %.2f, rtt %.1f ms\n",
			res.Fluid.Iterations, res.Fluid.Residual, res.Fluid.DropProb,
			res.Fluid.MeanWindow, res.Fluid.RTTSec*1000)
	}
	if perFlow {
		fmt.Fprintln(w, "  per-flow:")
		for _, f := range res.Flows {
			fmt.Fprintf(w, "    client %2d: generated %5d delivered %5d timeouts %3d fastrtx %3d\n",
				f.Client, f.Generated, f.Delivered, f.Counters.Timeouts, f.Counters.FastRetransmits)
		}
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func minu(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

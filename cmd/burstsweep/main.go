// Command burstsweep regenerates the paper's sweep figures: for every
// protocol/gateway combination (UDP, Reno, Reno/RED, Vegas, Vegas/RED,
// Reno/DelayAck) and a range of client counts it runs the full experiment
// and emits the series behind Figure 2 (c.o.v.), Figure 3 (throughput),
// Figure 4 (packet-loss percentage) and Figure 13 (timeout/duplicate-ACK
// ratio) as CSV, plus Table 1 (the simulation parameters).
//
// Usage:
//
//	burstsweep -fig 2 > fig2.csv          # one figure
//	burstsweep -all -out results/          # all figures into a directory
//	burstsweep -table1                     # print Table 1
//	burstsweep -fig 3 -duration 50s -step 8  # faster, coarser sweep
//	burstsweep -fig 2 -progress -stats    # live progress + telemetry table
//
// Every (cell, clients) job fans out across a worker pool (-jobs) and
// completed runs land in a persistent result cache (-cache, -cache-dir),
// so re-running a sweep after one warm pass is near-instant. With
// -telemetry every job additionally streams labeled snapshot records into
// one shared JSONL file (-telemetry-out), each line tagged with the run's
// label so concurrent jobs interleave safely; telemetry jobs bypass the
// cache.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/prof"
	"tcpburst/internal/queue"
	"tcpburst/internal/runcache"
	"tcpburst/internal/runner"
	"tcpburst/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "burstsweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("burstsweep", flag.ContinueOnError)
	var (
		fig      = fs.Int("fig", 0, "figure to regenerate: 2 (cov), 3 (throughput), 4 (loss), 13 (timeout ratio)")
		queues   = fs.String("queue", "", "comma-separated discipline specs to sweep instead of the paper's six cells, e.g. fifo,red,codel,pie?ecn=true,tokenbucket?rate=4000&burst=50")
		qproto   = fs.String("proto", "reno", "transport protocol for -queue cells")
		all      = fs.Bool("all", false, "regenerate every sweep figure")
		table1   = fs.Bool("table1", false, "print Table 1 (simulation parameters)")
		outDir   = fs.String("out", "", "directory for CSV output (default stdout; required with -all)")
		seed     = fs.Int64("seed", 1, "random seed")
		backend  = fs.String("backend", "packet", "execution engine: packet (event-level simulation) or fluid (mean-field model)")
		shards   = fs.Int("shards", 1, "partition each packet run over this many cores (bit-identical results; best with -jobs 1 on large -max-clients sweeps)")
		interarr = fs.Duration("mean-interval", 0, "mean packet inter-generation time per client (0 = paper default; lower it to hold aggregate load fixed on large -max-clients fluid sweeps)")
		duration = fs.Duration("duration", 200*time.Second, "simulated test time per point")
		step     = fs.Int("step", 4, "client-count step for the sweep")
		maxN     = fs.Int("max-clients", 60, "largest client count")
		jobs     = fs.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache    = fs.Bool("cache", true, "reuse cached results from previous runs")
		cacheDir = fs.String("cache-dir", "", "result cache directory (default ~/.cache/tcpburst)")
		progress = fs.Bool("progress", false, "render a live progress line on stderr")
		stats    = fs.Bool("stats", false, "print run telemetry on stderr when done")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")

		telemetryOn       = fs.Bool("telemetry", false, "stream per-run labeled telemetry records (requires -telemetry-out)")
		telemetryInterval = fs.Duration("telemetry-interval", 100*time.Millisecond, "telemetry snapshot period (simulated time)")
		telemetryOut      = fs.String("telemetry-out", "", "shared JSONL file receiving every run's labeled records")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *telemetryOn && *telemetryOut == "" {
		return fmt.Errorf("-telemetry requires -telemetry-out FILE")
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	if *table1 {
		printTable1()
		return nil
	}
	if !*all && *fig == 0 {
		return fmt.Errorf("specify -fig N, -all, or -table1")
	}
	if *all && *outDir == "" {
		return fmt.Errorf("-all requires -out DIR")
	}
	if *step < 1 {
		return fmt.Errorf("-step %d < 1", *step)
	}
	// An empty list would make RunSweep fall back to the default axis.
	clients := core.SweepClients(*step, *maxN)
	if len(clients) == 0 {
		return fmt.Errorf("no client counts up to -max-clients %d at -step %d", *maxN, *step)
	}

	b, err := core.ParseBackend(*backend)
	if err != nil {
		return err
	}
	cells, err := sweepCells(*queues, *qproto)
	if err != nil {
		return err
	}

	// A sweep template: Clients stays zero and protocol/gateway are filled
	// per cell, so the base skips defaulting and validation until each job.
	baseOpts := []core.Option{
		core.WithSeed(*seed),
		core.WithBackend(b),
		core.WithDuration(*duration),
		core.WithShards(*shards),
	}
	if *interarr > 0 {
		baseOpts = append(baseOpts, core.WithMeanInterval(*interarr))
	}
	var closeTelemetry func() error
	if *telemetryOn {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<16)
		sw := telemetry.NewSyncWriter(bw)
		closeTelemetry = func() error {
			if err := bw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		baseOpts = append(baseOpts,
			core.WithTelemetry(*telemetryInterval),
			// The JSONL sink gives each job its own sink labeling records
			// with the run's identity; SyncWriter keeps concurrent lines
			// whole.
			core.WithTelemetrySink(telemetry.NewJSONL(sw)),
		)
	}
	base := core.BaseConfig(baseOpts...)

	figures := map[int]struct {
		name    string
		metric  func(*core.Result) float64
		poisson bool
	}{
		2:  {"fig2_cov", core.MetricCOV, true},
		3:  {"fig3_throughput", core.MetricThroughput, false},
		4:  {"fig4_loss_pct", core.MetricLossPct, false},
		13: {"fig13_timeout_ratio", core.MetricTimeoutRatio, false},
	}
	if !*all {
		// Reject unknown figures before spending minutes on the sweep.
		if _, ok := figures[*fig]; !ok {
			return fmt.Errorf("unknown figure %d (have 2, 3, 4, 13)", *fig)
		}
	}

	exec := core.ExecOptions{Jobs: *jobs}
	if *cache {
		store, err := runcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "burstsweep: cache disabled:", err)
		} else {
			exec.Cache = store
		}
	}
	var prog *runner.Progress
	if *progress {
		prog = runner.NewProgress(os.Stderr)
		exec.OnEvent = prog.Observe
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	nCells := len(cells)
	if nCells == 0 {
		nCells = len(core.PaperCells())
	}
	fmt.Fprintf(os.Stderr, "sweeping %d client counts x %d cells (%s each)...\n",
		len(clients), nCells, *duration)
	sweep, err := core.RunSweepContext(ctx, core.SweepOptions{Base: base, Clients: clients, Cells: cells, Exec: exec})
	if prog != nil {
		prog.Finish()
	}
	if closeTelemetry != nil {
		if cerr := closeTelemetry(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if *telemetryOn {
		fmt.Fprintln(os.Stderr, "wrote telemetry stream to", *telemetryOut)
	}
	if *stats {
		fmt.Fprint(os.Stderr, sweep.Stats.Table())
	}

	emit := func(figNo int) error {
		f, ok := figures[figNo]
		if !ok {
			return fmt.Errorf("unknown figure %d (have 2, 3, 4, 13)", figNo)
		}
		csv := sweep.CSV(f.metric, f.poisson)
		if *outDir == "" {
			fmt.Print(csv)
			return nil
		}
		path := filepath.Join(*outDir, f.name+".csv")
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
		return nil
	}

	if *all {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for _, n := range []int{2, 3, 4, 13} {
			if err := emit(n); err != nil {
				return err
			}
		}
		return nil
	}
	return emit(*fig)
}

// sweepCells turns a comma-separated -queue list into spec cells for one
// protocol; an empty list means nil (the paper's six cells). Each spec is
// parsed up front so a typo fails before the sweep spends minutes running.
func sweepCells(queues, proto string) ([]core.Cell, error) {
	if queues == "" {
		return nil, nil
	}
	p, err := core.ParseProtocol(proto)
	if err != nil {
		return nil, err
	}
	var cells []core.Cell
	for _, spec := range strings.Split(queues, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if _, err := core.ParseDiscipline(spec); err != nil {
			return nil, fmt.Errorf("-queue %q: %w", spec, err)
		}
		cells = append(cells, core.Cell{Protocol: p, Queue: spec})
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("-queue: no discipline specs in %q", queues)
	}
	return cells, nil
}

func printTable1() {
	cfg := core.MustConfig(core.WithClients(1), core.WithProtocol(core.Reno))
	red := queue.DefaultREDConfig(cfg.BufferPackets, 0, nil)
	fmt.Println("Table 1. Simulation parameters (reconstructed; see DESIGN.md).")
	rows := [][2]string{
		{"client link bandwidth (mu_c)", fmt.Sprintf("%.0f Mbps", cfg.ClientRateBps/1e6)},
		{"client link delay (tau_c)", cfg.ClientDelay.String()},
		{"bottleneck link bandwidth (mu_s)", fmt.Sprintf("%.0f Mbps", cfg.BottleneckRateBps/1e6)},
		{"bottleneck link delay (tau_s)", cfg.BottleneckDelay.String()},
		{"TCP max advertised window", fmt.Sprintf("%d packets", cfg.MaxWindow)},
		{"gateway buffer size (B)", fmt.Sprintf("%d packets", cfg.BufferPackets)},
		{"packet size", fmt.Sprintf("%d bytes", cfg.PacketSize)},
		{"mean packet intergeneration time (1/lambda)", cfg.MeanInterval.String()},
		{"total test time", cfg.Duration.String()},
		{"TCP Vegas alpha / beta / gamma", fmt.Sprintf("%g / %g / %g", cfg.Vegas.Alpha, cfg.Vegas.Beta, cfg.Vegas.Gamma)},
		{"RED min / max threshold", fmt.Sprintf("%g / %g packets", red.MinThreshold, red.MaxThreshold)},
		{"RED weight / max drop probability", fmt.Sprintf("%g / %g", red.Weight, red.MaxProb)},
		{"round-trip propagation delay (cov window)", cfg.RTT().String()},
	}
	for _, r := range rows {
		fmt.Printf("  %-44s %s\n", r[0], r[1])
	}
}

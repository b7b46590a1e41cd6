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
// -telemetry-out FILE every job additionally streams labeled snapshot
// records into FILE, one shared JSONL file, each line tagged with the
// run's label so concurrent jobs interleave safely; telemetry jobs bypass
// the cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tcpburst/cmd/internal/cli"
	"tcpburst/internal/core"
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
		fig    = fs.Int("fig", 0, "figure to regenerate: 2 (cov), 3 (throughput), 4 (loss), 13 (timeout ratio)")
		queues = fs.String("queue", "", "comma-separated discipline specs to sweep instead of the paper's six cells, e.g. fifo,red,codel,pie?ecn=true,tokenbucket?rate=4000&burst=50")
		qproto = fs.String("proto", "reno", "transport protocol for -queue cells")
		all    = fs.Bool("all", false, "regenerate every sweep figure")
		table1 = fs.Bool("table1", false, "print Table 1 (simulation parameters)")
		outDir = fs.String("out", "", "directory for CSV output (default stdout; required with -all)")
	)
	runFlags := cli.NewRun(fs, cli.Shards|cli.MeanInterval)
	sweepFlags := cli.NewSweep(fs)
	execFlags := cli.NewExec(fs, cli.Jobs|cli.CacheOn|cli.Progress)
	telemetryFlags := cli.NewTelemetry(fs, cli.Batch)
	profFlags := cli.NewProfile(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := profFlags.Start()
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
	clients, err := sweepFlags.Clients()
	if err != nil {
		return err
	}

	// A sweep template: Clients stays zero and protocol/gateway are filled
	// per cell, so the base skips defaulting and validation until each job.
	_, baseOpts, err := runFlags.Options()
	if err != nil {
		return err
	}
	cells, err := sweepCells(*queues, *qproto)
	if err != nil {
		return err
	}

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
	telOpts, err := telemetryFlags.Open()
	if err != nil {
		return err
	}
	base := core.BaseConfig(append(baseOpts, telOpts...)...)

	nCells := len(cells)
	if nCells == 0 {
		nCells = len(core.PaperCells())
	}
	fmt.Fprintf(os.Stderr, "sweeping %d client counts x %d cells (%s each)...\n",
		len(clients), nCells, runFlags.Duration)
	ctx, exec := execFlags.Start(true)
	sweep, err := core.RunSweepContext(ctx, core.SweepOptions{Base: base, Clients: clients, Cells: cells, Exec: exec})
	execFlags.Finish()
	if err := telemetryFlags.Close(err); err != nil {
		return err
	}
	if execFlags.Stats {
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
	fmt.Println("Table 1. Simulation parameters (reconstructed; see DESIGN.md).")
	for _, r := range cli.Table1(core.MustConfig(core.WithClients(1), core.WithProtocol(core.Reno))) {
		fmt.Printf("  %-44s %s\n", r[0], r[1])
	}
}

// Command burstreport runs the paper's entire evaluation and renders one
// self-contained markdown report: Table 1, the four sweep figures with
// per-regime summary tables and crossover analysis, and the
// window-evolution figures as stability summaries. It is the single
// command that regenerates everything EXPERIMENTS.md documents.
//
// Usage:
//
//	burstreport > report.md             # full fidelity (several minutes)
//	burstreport -duration 30s -step 10  # quick look
//	burstreport -progress -stats        # live progress + telemetry
//
// All sweep points and window-trace runs fan out across a worker pool
// (-jobs); sweep points additionally reuse the persistent result cache
// (-cache), so regenerating a report after a warm pass only re-simulates
// the traced figures.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"tcpburst/cmd/internal/cli"
	"tcpburst/internal/core"
	"tcpburst/internal/runner"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "burstreport:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("burstreport", flag.ContinueOnError)
	runFlags := cli.NewRun(fs, cli.Shards)
	sweepFlags := cli.NewSweep(fs)
	execFlags := cli.NewExec(fs, cli.Jobs|cli.CacheOn|cli.Progress)
	telemetryFlags := cli.NewTelemetry(fs, cli.Batch)
	if err := fs.Parse(args); err != nil {
		return err
	}
	clients, err := sweepFlags.Clients()
	if err != nil {
		return err
	}
	// A sweep/trace template: Clients stays zero and is filled per job, so
	// the base skips defaulting and validation until each run.
	_, baseOpts, err := runFlags.Options()
	if err != nil {
		return err
	}
	telOpts, err := telemetryFlags.Open()
	if err != nil {
		return err
	}
	base := core.BaseConfig(append(baseOpts, telOpts...)...)

	fmt.Fprintf(os.Stderr, "sweep: %d client counts x %d cells at %s each...\n",
		len(clients), len(core.PaperCells()), runFlags.Duration)
	ctx, exec := execFlags.Start(true)
	stats, err := writeReport(ctx, w, base, clients, sweepFlags.MaxClients, exec)
	execFlags.Finish()
	if err := telemetryFlags.Close(err); err != nil {
		return err
	}
	if execFlags.Stats {
		fmt.Fprint(os.Stderr, stats.Table())
	}
	return nil
}

// writeReport runs the sweep and the traced runs and writes the report,
// returning the batch telemetry of both.
func writeReport(ctx context.Context, w io.Writer, base core.Config, clients []int, maxN int, exec core.ExecOptions) (runner.Stats, error) {
	sweep, err := core.RunSweepContext(ctx, core.SweepOptions{Base: base, Clients: clients, Exec: exec})
	if err != nil {
		return runner.Stats{}, err
	}
	fmt.Fprintf(w, "# TCP burstiness report (seed %d, %s per point)\n\n", base.Seed, base.Duration)
	writeTable1(w, base)
	writeSweepSection(w, sweep)
	if base.Backend == core.FluidBackend {
		// The window-evolution figures need per-flow cwnd samples, which the
		// mean-field model deliberately does not carry.
		fmt.Fprintf(w, "## Figures 5–12 — window evolution\n\n")
		fmt.Fprintf(w, "_Skipped on the fluid backend: the mean-field model tracks window densities, "+
			"not per-flow windows. Re-run with `-backend packet`, or use `burstsim -backend fluid "+
			"-fluid-trace FILE` for the ODE state trajectory._\n\n")
		return sweep.Stats, nil
	}
	traceStats, err := writeTraceSection(ctx, w, base, maxN, exec)
	return sweep.Stats.Add(traceStats), err
}

func writeTable1(w io.Writer, base core.Config) {
	cfg := base
	cfg.Clients = 1
	fmt.Fprintf(w, "## Table 1 — parameters\n\n| parameter | value |\n|---|---|\n")
	for _, r := range cli.Table1(cfg.WithDefaults()) {
		fmt.Fprintf(w, "| %s | %s |\n", r[0], r[1])
	}
	fmt.Fprintln(w)
}

func writeSweepSection(w io.Writer, sweep *core.Sweep) {
	fmt.Fprintf(w, "## Figures 2–4 and 13 — sweep\n\n")
	for _, n := range pickSummaryPoints(sweep.Clients) {
		fmt.Fprintf(w, "### %d clients\n\n```\n%s```\n\n", n, sweep.SummaryTable(n))
	}

	fmt.Fprintf(w, "### Crossover analysis (loss > 1%%)\n\n")
	for _, cell := range sweep.Cells {
		if n, ok := sweep.CrossoverClients(cell, 1.0); ok {
			fmt.Fprintf(w, "- %s crosses at %d clients\n", cell, n)
		} else {
			fmt.Fprintf(w, "- %s never crosses\n", cell)
		}
	}
	fmt.Fprintf(w, "\n### Peak modulation (measured / Poisson c.o.v.)\n\n")
	for _, cell := range sweep.Cells {
		n, f := sweep.PeakModulation(cell)
		fmt.Fprintf(w, "- %s peaks at %.2fx (%d clients)\n", cell, f, n)
	}
	fmt.Fprintln(w)
}

func writeTraceSection(ctx context.Context, w io.Writer, base core.Config, maxN int, exec core.ExecOptions) (runner.Stats, error) {
	fmt.Fprintf(w, "## Figures 5–12 — window evolution\n\n")
	fmt.Fprintf(w, "| figure | protocol | clients | mean cwnd | timeouts | fast rtx | sync idx | Jain |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
	allRows := []struct {
		fig     int
		proto   core.Protocol
		clients int
	}{
		{5, core.Reno, 20}, {6, core.Reno, 30}, {7, core.Reno, 38},
		{8, core.Reno, 39}, {9, core.Reno, 60},
		{10, core.Vegas, 20}, {11, core.Vegas, 30}, {12, core.Vegas, 60},
	}
	rows := allRows[:0]
	cfgs := make([]core.Config, 0, len(allRows))
	for _, row := range allRows {
		if row.clients > maxN {
			continue
		}
		cfg := base
		cfg.Clients = row.clients
		cfg.Protocol = row.proto
		cfg.CwndSampleInterval = 100 * time.Millisecond
		// Per-flow tracing samples cross-shard state, so traced figures run
		// serially even when -shards accelerates the sweep points.
		cfg.Shards = 0
		rows = append(rows, row)
		cfgs = append(cfgs, cfg)
	}
	// Traced runs bypass the cache (the digest has no series), but they
	// still fan out across the worker pool.
	results, stats, err := core.RunBatch(ctx, cfgs, exec)
	if err != nil {
		return stats, fmt.Errorf("window-evolution figures: %w", err)
	}
	for i, row := range rows {
		res := results[i]
		var sum float64
		var count int
		for _, s := range res.CwndTraces {
			for _, smp := range s.Samples {
				sum += smp.Value
				count++
			}
		}
		mean := 0.0
		if count > 0 {
			mean = sum / float64(count)
		}
		fmt.Fprintf(w, "| %d | %s | %d | %.2f | %d | %d | %.3f | %.4f |\n",
			row.fig, row.proto, row.clients, mean,
			res.Timeouts, res.FastRetransmits, res.CwndSyncIndex, res.JainFairness)
	}
	fmt.Fprintln(w)
	return stats, nil
}

// pickSummaryPoints selects representative client counts: the smallest,
// one mid-sweep, the 38/39 crossover when present, and the largest.
func pickSummaryPoints(clients []int) []int {
	if len(clients) == 0 {
		return nil
	}
	out := []int{clients[0]}
	mid := clients[len(clients)/2]
	for _, n := range []int{mid, 38, 39, clients[len(clients)-1]} {
		if slices.Contains(clients, n) && !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

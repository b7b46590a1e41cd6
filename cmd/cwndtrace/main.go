// Command cwndtrace regenerates the congestion-window evolution data behind
// the paper's Figures 5–9 (TCP Reno at 20, 30, 38, 39 and 60 clients) and
// Figures 10–12 (TCP Vegas at 20, 30 and 60 clients): it runs one
// experiment with window tracing enabled and emits the sampled series as
// CSV, plus an optional per-interval stability summary.
//
// Usage:
//
//	cwndtrace -proto reno -clients 39 -trace-clients 1,20,39 > fig8.csv
//	cwndtrace -proto reno -clients 38 -summary
//
// Traced runs always simulate — window series are not part of the
// persistent result cache's digest — but the run still reports its
// telemetry (-stats) and honors Ctrl-C cancellation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"tcpburst/cmd/internal/cli"
	"tcpburst/internal/core"
	"tcpburst/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cwndtrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cwndtrace", flag.ContinueOnError)
	var (
		clients  = fs.Int("clients", 20, "number of Poisson client streams")
		proto    = fs.String("proto", "reno", "transport protocol (TCP variants only)")
		qdisc    = fs.String("queue", "fifo", "gateway discipline spec: fifo, red, drr, codel, pie, tokenbucket, leakybucket — with ?key=value params")
		interval = fs.Duration("interval", 100*time.Millisecond, "sampling interval (paper: 0.1s)")
		traceArg = fs.String("trace-clients", "", "comma-separated 1-based client indices (default: 1, N/2, N)")
		summary  = fs.Bool("summary", false, "print per-20s stability summary instead of CSV")
		withQ    = fs.Bool("qlen", false, "also trace the gateway queue length")
	)
	runFlags := cli.NewRun(fs, 0)
	execFlags := cli.NewExec(fs, cli.Progress)
	telemetryFlags := cli.NewTelemetry(fs, 0)
	if err := fs.Parse(args); err != nil {
		return err
	}

	b, opts, err := runFlags.Options()
	if err != nil {
		return err
	}
	if b != core.PacketBackend {
		return fmt.Errorf("backend %s has no per-flow windows to trace; use burstsim -backend fluid -fluid-trace FILE for the ODE trajectory", b)
	}
	p, err := core.ParseProtocol(*proto)
	if err != nil {
		return err
	}
	if !p.IsTCP() {
		return fmt.Errorf("protocol %s has no congestion window to trace", p)
	}
	qopt, err := core.ParseDiscipline(*qdisc)
	if err != nil {
		return err
	}
	traceClients, err := parseClientList(*traceArg)
	if err != nil {
		return err
	}

	opts = append(opts,
		core.WithClients(*clients),
		core.WithProtocol(p),
		qopt,
		core.WithCwndTracing(*interval, traceClients...),
	)
	if *withQ {
		opts = append(opts, core.WithQueueTrace())
	}
	telOpts, err := telemetryFlags.Open()
	if err != nil {
		return err
	}
	cfg, err := core.NewConfig(append(opts, telOpts...)...)
	if err != nil {
		return telemetryFlags.Close(err)
	}

	ctx, exec := execFlags.Start(false)
	results, batchStats, err := core.RunBatch(ctx, []core.Config{cfg}, exec)
	execFlags.Finish()
	if err := telemetryFlags.Close(err); err != nil {
		return err
	}
	res := results[0]
	if execFlags.Stats {
		fmt.Fprint(os.Stderr, batchStats.Table())
	}

	if *summary {
		printSummary(res)
		return nil
	}
	series := res.CwndTraces
	if res.QueueTrace != nil {
		series = append(series, res.QueueTrace)
	}
	var sb strings.Builder
	trace.WriteCSV(&sb, series)
	fmt.Print(sb.String())
	return nil
}

// parseClientList parses "1,10,20" into []int{1, 10, 20}.
func parseClientList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("trace-clients: %w", err)
		}
		out = append(out, n)
	}
	return out, nil
}

// printSummary reports, per traced client and 20-second interval, the mean
// congestion window and the number of collapses (samples at cwnd <= 1),
// which makes the paper's "stabilizes after t" vs "never stabilizes"
// distinction readable without plotting.
func printSummary(res *core.Result) {
	const bucket = 20.0 // seconds
	fmt.Printf("%d clients, %s/%s: cwnd stability per %gs interval\n",
		res.Config.Clients, res.Config.Protocol, res.Config.QueueName(), bucket)
	for _, s := range res.CwndTraces {
		fmt.Printf("  %s:\n", s.Name)
		i := 0
		for start := 0.0; i < len(s.Samples); start += bucket {
			var sum float64
			var n, collapses int
			for i < len(s.Samples) && s.Samples[i].At.Seconds() < start+bucket {
				v := s.Samples[i].Value
				sum += v
				if v <= 1 {
					collapses++
				}
				n++
				i++
			}
			if n == 0 {
				continue
			}
			fmt.Printf("    [%3.0fs-%3.0fs) mean cwnd %5.2f  collapses %3d/%d\n",
				start, start+bucket, sum/float64(n), collapses, n)
		}
	}
	fmt.Printf("  aggregate: %d timeouts, %d fast retransmits, Jain fairness %.4f, sync index %.3f\n",
		res.Timeouts, res.FastRetransmits, res.JainFairness, res.CwndSyncIndex)
}

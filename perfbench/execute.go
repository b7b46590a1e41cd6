package main

import (
	"context"
	"runtime"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/runcache"
	"tcpburst/internal/runner"
	"tcpburst/internal/sim"
)

// outcome is one execution of a workload.
type outcome struct {
	// results holds one Result per run, in sweep point order.
	results []*core.Result
	// stats is the runner's account of a sweep; zero for single runs.
	stats runner.Stats
	// wall is the host time of the whole execution.
	wall time.Duration
	// alloc is the bytes the Go heap allocated during the execution.
	alloc uint64
}

// events sums the simulated events over the outcome's runs.
func (o outcome) events() uint64 {
	var n uint64
	for _, r := range o.results {
		if r != nil {
			n += r.SimEvents
		}
	}
	return n
}

// execOptions carries what varies between executions of one workload.
type execOptions struct {
	// jobs is the sweep worker-pool width.
	jobs int
	// cacheDir, when set, backs the sweep with a result cache there.
	cacheDir string
	// telemetry, when positive, samples the run's counters at this
	// virtual-time interval.
	telemetry sim.Duration
}

// execute runs the workload once after a full garbage collection, so one
// execution's heap never slows the next.
func execute(ctx context.Context, w workload, opt execOptions) (outcome, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := executeRuns(ctx, w, opt)
	out.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	return out, err
}

func executeRuns(ctx context.Context, w workload, opt execOptions) (outcome, error) {
	if w.sweep == nil {
		cfg := w.single
		cfg.TelemetryInterval = opt.telemetry
		res, err := core.Run(cfg)
		if err != nil {
			return outcome{}, err
		}
		return outcome{results: []*core.Result{res}}, nil
	}
	sweep := *w.sweep
	sweep.Base.TelemetryInterval = opt.telemetry
	sweep.Exec = core.ExecOptions{Jobs: opt.jobs}
	if opt.cacheDir != "" {
		store, err := runcache.Open(opt.cacheDir)
		if err != nil {
			return outcome{}, err
		}
		sweep.Exec.Cache = store
	}
	s, err := core.RunSweepContext(ctx, sweep)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{stats: s.Stats, results: make([]*core.Result, len(s.Points))}
	for i, p := range s.Points {
		out.results[i] = p.Result
	}
	return out, nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/runcache"
	"tcpburst/internal/telemetry"
)

// telemetryInterval is the virtual-time sampling period of traced runs.
const telemetryInterval = time.Second

// blockProfileRate samples one blocking event per this many nanoseconds
// blocked (see runtime.SetBlockProfileRate).
const blockProfileRate = 1000

// traced is the traced pass. After a warm-up it makes one untraced
// execution (the base for the exact counts and the runner figures) and
// the workload's extra measurements (cache timings, serial speedup, heap
// per flow), then one execution with a CPU profile, a block profile and
// telemetry on, whose profiles give the per-module table, then a second
// untraced execution for trace_overhead. No end-to-end metric comes from
// this pass.
func (b *bench) traced(ctx context.Context) (map[string]metric, error) {
	m := make(map[string]metric)
	if _, err := b.run(ctx, b.w, b.chk, "warm-up", execOptions{}); err != nil {
		return nil, err
	}
	var cacheDir string
	if b.w.cache {
		d, err := os.MkdirTemp(b.dir, "runcache-")
		if err != nil {
			return nil, err
		}
		cacheDir = d
	}
	base, err := b.run(ctx, b.w, b.chk, "untraced", execOptions{cacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	resultCounts(m, base.results)
	runnerStats(m, base, b.jobs)

	m["runcache.warm_s"] = metric{0, "s"}
	m["runcache.put_s"] = metric{0, "s"}
	m["runcache.get_s"] = metric{0, "s"}
	m["runcache.bytes"] = metric{0, "bytes"}
	if cacheDir != "" {
		// Replaying the sweep against the cache the untraced execution
		// filled serves every run from disk.
		warm, err := b.run(ctx, b.w, b.chk, "warm replay", execOptions{cacheDir: cacheDir})
		if err != nil {
			return nil, err
		}
		m["runcache.warm_s"] = metric{warm.wall.Seconds(), "s"}
		if err := b.cacheTimes(m, base.results); err != nil {
			return nil, err
		}
	}

	m["shard.speedup"] = metric{0, "ratio"}
	if b.w.single.Shards > 1 {
		// The serial run is held to the same reference digests, so it
		// also proves the sharded result equals the serial one.
		serial := b.w
		serial.single.Shards = 0
		s, err := b.run(ctx, serial, b.chk, "serial", execOptions{})
		if err != nil {
			return nil, err
		}
		m["shard.speedup"] = metric{s.wall.Seconds() / base.wall.Seconds(), "ratio"}
	}

	m["core.heap_bytes_per_flow"] = metric{0, "bytes"}
	if b.w.packet() {
		m["core.heap_bytes_per_flow"] = metric{b.heapPerFlow(), "bytes"}
	}

	cpuPath, blockPath := b.path("cpu.pprof"), b.path("block.pprof")
	tr, err := b.profiled(ctx, cpuPath, blockPath)
	if err != nil {
		return nil, err
	}
	telemetryCounts(m, tr.results)
	// A second untraced execution brackets the traced one in time, so a
	// host slowing down or speeding up during the pass cancels out.
	after, err := b.run(ctx, b.w, b.chk, "untraced after", execOptions{})
	if err != nil {
		return nil, err
	}
	untraced := (base.wall.Seconds() + after.wall.Seconds()) / 2
	m["trace_overhead"] = metric{tr.wall.Seconds()/untraced - 1, "ratio"}

	cpu, err := profileStacks(cpuPath, "")
	if err != nil {
		return nil, err
	}
	self := foldSelf(cpu)
	for _, mod := range append(modules, runtimeBucket, otherBucket) {
		m[mod+".self_s"] = metric{self[mod], "s"}
	}
	m["sim.rng_fork_s"] = metric{timeUnder(cpu, func(fn string) bool {
		return fn == modulePrefix+"sim.NewRNG" || fn == modulePrefix+"sim.(*RNG).Fork"
	}), "s"}
	m["core.setup_s"] = metric{timeUnder(cpu, func(fn string) bool {
		return strings.HasPrefix(fn, modulePrefix+"core.build")
	}), "s"}
	m["meanfield.solve_s"] = metric{timeUnder(cpu, func(fn string) bool {
		return fn == modulePrefix+"meanfield.Solve"
	}), "s"}

	block, err := profileStacks(blockPath, "delay")
	if err != nil {
		return nil, err
	}
	m["shard.block_s"] = metric{timeUnder(block, func(fn string) bool {
		return strings.HasPrefix(fn, modulePrefix+"shard.")
	}), "s"}
	return m, nil
}

// profiled executes the workload under a CPU and a block profile, written
// to the given paths, with telemetry on for packet workloads.
func (b *bench) profiled(ctx context.Context, cpuPath, blockPath string) (outcome, error) {
	f, err := os.Create(cpuPath)
	if err != nil {
		return outcome{}, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return outcome{}, err
	}
	var opt execOptions
	if b.w.packet() {
		// Fluid telemetry replays the transient through an RK4
		// integrator, which would cost many times the solve itself.
		opt.telemetry = telemetryInterval
	}
	runtime.SetBlockProfileRate(blockProfileRate)
	o, runErr := b.run(ctx, b.w, b.newChecker(nil), "traced", opt)
	runtime.SetBlockProfileRate(0)
	pprof.StopCPUProfile()
	if runErr != nil {
		return outcome{}, runErr
	}
	if err := f.Close(); err != nil {
		return outcome{}, err
	}
	bf, err := os.Create(blockPath)
	if err != nil {
		return outcome{}, err
	}
	defer bf.Close()
	if err := pprof.Lookup("block").WriteTo(bf, 0); err != nil {
		return outcome{}, err
	}
	return o, bf.Close()
}

// cacheTimes times a Store.Put and a Store.Get of every run's summary in
// a fresh store.
func (b *bench) cacheTimes(m map[string]metric, results []*core.Result) error {
	d, err := os.MkdirTemp(b.dir, "store-")
	if err != nil {
		return err
	}
	store, err := runcache.Open(d)
	if err != nil {
		return err
	}
	keys := make([]string, len(results))
	data := make([][]byte, len(results))
	var bytes int
	for i, r := range results {
		if keys[i], err = runcache.Key("perfbench", r.Config); err != nil {
			return err
		}
		if data[i], err = json.Marshal(r.Summary()); err != nil {
			return err
		}
		bytes += len(data[i])
	}
	start := time.Now()
	for i := range results {
		if err := store.Put(keys[i], data[i]); err != nil {
			return err
		}
	}
	put := time.Since(start)
	start = time.Now()
	for i := range results {
		got, ok, err := store.Get(keys[i])
		if err != nil {
			return err
		}
		if !ok || string(got) != string(data[i]) {
			return fmt.Errorf("runcache: entry %d did not read back", i)
		}
	}
	get := time.Since(start)
	m["runcache.put_s"] = metric{put.Seconds(), "s"}
	m["runcache.get_s"] = metric{get.Seconds(), "s"}
	m["runcache.bytes"] = metric{float64(bytes), "bytes"}
	return nil
}

// heapProbe is a telemetry sink that measures the live heap when the
// sampler starts, which is after the topology is built and before the
// first event runs.
type heapProbe struct{ live uint64 }

func (h *heapProbe) Begin([]string) error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.live = ms.HeapAlloc
	return nil
}

func (h *heapProbe) Record(float64, []float64) error { return nil }
func (h *heapProbe) Flush() error                    { return nil }

var _ telemetry.Sink = (*heapProbe)(nil)

// heapPerFlow is the live heap the workload's largest run holds after
// set-up, per client; 0 if the run fails. It runs that configuration
// serially to a one-RTT horizon with a heapProbe sink.
func (b *bench) heapPerFlow() float64 {
	var cfg core.Config
	for _, c := range b.w.setupVariant().configs() {
		if c.Clients > cfg.Clients {
			cfg = c
		}
	}
	cfg.Shards = 0
	cfg.TelemetryInterval = cfg.Duration
	probe := &heapProbe{}
	cfg.TelemetrySink = probe
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res, err := core.Run(cfg)
	b.newChecker(nil).check("heap probe", []*core.Result{res}, 1, err)
	if err != nil || probe.live < ms.HeapAlloc {
		return 0
	}
	return float64(probe.live-ms.HeapAlloc) / float64(cfg.Clients)
}

// resultCounts records the exact per-layer counts the runs report.
func resultCounts(m map[string]metric, results []*core.Result) {
	var events, ops, gen, sent, delivered, timeouts, fastRtx, marks uint64
	var iterations int
	var queueLen, util float64
	for _, r := range results {
		if r == nil {
			continue
		}
		events += r.SimEvents
		ops += r.SchedOps
		gen += r.Generated
		sent += r.DataSent
		delivered += r.Delivered
		timeouts += r.Timeouts
		fastRtx += r.FastRetransmits
		if r.RED != nil {
			marks += r.RED.Marks
		}
		if r.AQM != nil {
			marks += r.AQM.Marks
		}
		if r.Fluid != nil {
			iterations += r.Fluid.Iterations
		}
		queueLen += r.Queue.Mean
		util += r.Utilization
	}
	n := float64(len(results))
	m["sim.events"] = metric{float64(events), "count"}
	m["sim.sched_ops"] = metric{float64(ops), "count"}
	m["sim.ops_per_event"] = metric{ratio(float64(ops), float64(events)), "ratio"}
	m["traffic.generated"] = metric{float64(gen), "count"}
	m["tcp.data_sent"] = metric{float64(sent), "count"}
	m["tcp.delivered"] = metric{float64(delivered), "count"}
	m["tcp.goodput_ratio"] = metric{ratio(float64(delivered), float64(sent)), "ratio"}
	m["tcp.timeouts"] = metric{float64(timeouts), "count"}
	m["tcp.fast_rtx"] = metric{float64(fastRtx), "count"}
	m["queue.marks"] = metric{float64(marks), "count"}
	m["queue.mean_len"] = metric{ratio(queueLen, n), "packets"}
	m["link.utilization"] = metric{ratio(util, n), "ratio"}
	m["meanfield.iterations"] = metric{float64(iterations), "count"}
}

// telemetryCounts records the gateway counters and telemetry volume of
// the traced execution.
func telemetryCounts(m map[string]metric, results []*core.Result) {
	var arrivals, drops, records uint64
	for _, r := range results {
		if r == nil {
			continue
		}
		records += r.TelemetryRecords
		if r.Telemetry != nil {
			arrivals += r.Telemetry.Counters["gw.arrivals"]
			drops += r.Telemetry.Counters["gw.drops"]
		}
	}
	m["queue.arrivals"] = metric{float64(arrivals), "count"}
	m["queue.drops"] = metric{float64(drops), "count"}
	m["queue.drop_ratio"] = metric{ratio(float64(drops), float64(arrivals)), "ratio"}
	m["telemetry.records"] = metric{float64(records), "count"}
}

// runnerStats records the worker pool's account of a sweep execution;
// single runs do not go through the runner and report zeros.
func runnerStats(m map[string]metric, o outcome, jobs int) {
	busy := o.stats.JobWall.Seconds()
	capacity := o.stats.Wall.Seconds() * float64(jobs)
	m["runner.jobs"] = metric{float64(o.stats.Total), "count"}
	m["runner.parallel_eff"] = metric{ratio(busy, capacity), "ratio"}
	m["runner.idle_s"] = metric{capacity - busy, "s"}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Package cli holds the flag groups the simulator's commands share. Each
// group registers its flags on a command's flag.FlagSet and turns their
// values into what the command runs with: Run into core options, Exec
// into core.ExecOptions, Telemetry into a sink, Profile into profiles and
// Sweep into client counts. A flag means the same on every command that
// has it; a Flag argument picks a group's optional flags.
package cli

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/queue"
	"tcpburst/internal/runcache"
	"tcpburst/internal/runner"
	"tcpburst/internal/telemetry"
)

// A Flag picks a group's optional flags, or its shape.
type Flag uint

const (
	Shards       Flag = 1 << iota // run: -shards
	MeanInterval                  // run: -mean-interval
	Jobs                          // exec: -jobs; without it jobs run one at a time
	Progress                      // exec: -progress
	Cache                         // exec: -cache (off by default) and -cache-dir
	CacheOn                       // exec: -cache (on by default) and -cache-dir
	Batch                         // telemetry: every run into one labelled JSONL file
)

// Run is the run group: -seed, -backend, -duration, and -shards and
// -mean-interval where has asks for them.
type Run struct {
	Seed         int64
	Duration     time.Duration
	backend      string
	shards       int
	meanInterval time.Duration
}

// NewRun registers the run group on fs.
func NewRun(fs *flag.FlagSet, has Flag) *Run {
	r := &Run{}
	fs.Int64Var(&r.Seed, "seed", 1, "random seed (identical seeds replay identically)")
	fs.StringVar(&r.backend, "backend", "packet", "execution engine: packet (event-level simulation) or fluid (mean-field model)")
	fs.DurationVar(&r.Duration, "duration", 200*time.Second, "simulated test time (per point on sweeps)")
	if has&Shards != 0 {
		fs.IntVar(&r.shards, "shards", 1, "partition each packet run over this many cores (results are bit-identical to -shards 1)")
	}
	if has&MeanInterval != 0 {
		fs.DurationVar(&r.meanInterval, "mean-interval", 0, "mean packet inter-generation time per client (0 = paper default)")
	}
	return r
}

// Options parses -backend and returns it with the group's core options.
func (r *Run) Options() (core.Backend, []core.Option, error) {
	b, err := core.ParseBackend(r.backend)
	if err != nil {
		return b, nil, err
	}
	opts := []core.Option{core.WithSeed(r.Seed), core.WithBackend(b), core.WithDuration(r.Duration), core.WithShards(r.shards)}
	if r.meanInterval > 0 {
		opts = append(opts, core.WithMeanInterval(r.meanInterval))
	}
	return b, opts, nil
}

// Exec is the exec group: -stats, and -jobs, -cache/-cache-dir and
// -progress where has asks for them.
type Exec struct {
	Stats    bool // -stats: print the batch telemetry table on stderr
	name     string
	jobs     int
	cache    bool
	cacheDir string
	progress bool
	prog     *runner.Progress
	stop     context.CancelFunc
}

// NewExec registers the exec group on fs.
func NewExec(fs *flag.FlagSet, has Flag) *Exec {
	e := &Exec{name: fs.Name(), jobs: 1}
	if has&Jobs != 0 {
		fs.IntVar(&e.jobs, "jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	}
	if has&(Cache|CacheOn) != 0 {
		fs.BoolVar(&e.cache, "cache", has&CacheOn != 0, "reuse/store results in the persistent cache")
		fs.StringVar(&e.cacheDir, "cache-dir", "", "result cache directory (default ~/.cache/tcpburst)")
	}
	if has&Progress != 0 {
		fs.BoolVar(&e.progress, "progress", false, "render a live progress line on stderr")
	}
	fs.BoolVar(&e.Stats, "stats", false, "print run telemetry on stderr when done")
	return e
}

// Start returns the context and execution options for the command's
// batches: SIGINT cancels the context, -progress renders the jobs, and
// -cache serves and stores results unless cacheable is false; a cache
// that cannot be opened is reported and skipped. Call Finish after the
// batches.
func (e *Exec) Start(cacheable bool) (context.Context, core.ExecOptions) {
	opts := core.ExecOptions{Jobs: e.jobs}
	if e.cache && cacheable {
		store, err := runcache.Open(e.cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: cache disabled: %v\n", e.name, err)
		} else {
			opts.Cache = store
		}
	}
	if e.progress {
		e.prog = runner.NewProgress(os.Stderr)
		opts.OnEvent = e.prog.Observe
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	e.stop = stop
	return ctx, opts
}

// Finish ends the progress line and stops catching SIGINT.
func (e *Exec) Finish() {
	if e.prog != nil {
		e.prog.Finish()
	}
	e.stop()
}

// liveFields are the series the live stderr line shows.
var liveFields = []string{"queue.depth", "cov.rtt", "gw.drops", "tcp.timeouts"}

// Telemetry is the telemetry group. -telemetry-out FILE turns telemetry
// on. One run streams into FILE (CSV for a .csv name, JSONL otherwise)
// with a live line on stderr, and -telemetry without a file gives the
// line alone. A Batch writes every run's records into FILE as JSONL, each
// line labelled with its run, and refuses -telemetry without a file and a
// .csv name, since CSV has no column for the label.
type Telemetry struct {
	on       bool
	interval time.Duration
	out      string
	batch    bool
	close    func() error
}

// NewTelemetry registers the telemetry group on fs.
func NewTelemetry(fs *flag.FlagSet, has Flag) *Telemetry {
	t := &Telemetry{batch: has&Batch != 0}
	fs.BoolVar(&t.on, "telemetry", false, "stream periodic metric snapshots (implied by -telemetry-out)")
	fs.DurationVar(&t.interval, "telemetry-interval", 100*time.Millisecond, "telemetry snapshot period (simulated time)")
	fs.StringVar(&t.out, "telemetry-out", "", "telemetry stream file: one run as CSV (.csv) or JSONL, a batch as labelled JSONL")
	return t
}

// Open returns the core options that send the runs' telemetry to its
// sink, none when telemetry is off. Close the sink after the runs.
func (t *Telemetry) Open() ([]core.Option, error) {
	if !t.on && t.out == "" {
		return nil, nil
	}
	var sink telemetry.Sink
	var err error
	if t.batch {
		sink, err = t.openShared()
	} else {
		sink, t.close, err = telemetry.OpenLiveSink(os.Stderr, t.out, liveFields...)
	}
	if err != nil {
		return nil, err
	}
	return []core.Option{core.WithTelemetry(t.interval), core.WithTelemetrySink(sink)}, nil
}

// openShared creates a batch's file. The JSONL sink gives each run its
// own sink labelling records with the run, and the SyncWriter keeps
// concurrent runs' lines whole.
func (t *Telemetry) openShared() (telemetry.Sink, error) {
	if t.out == "" {
		return nil, fmt.Errorf("-telemetry requires -telemetry-out FILE")
	}
	if filepath.Ext(t.out) == ".csv" {
		return nil, fmt.Errorf("-telemetry-out %s: a batch writes labelled JSONL, and CSV has no run-label column", t.out)
	}
	f, err := os.Create(t.out)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	t.close = func() error {
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote telemetry stream to", t.out)
		return nil
	}
	return telemetry.NewJSONL(telemetry.NewSyncWriter(bw)), nil
}

// Close closes the sink Open made, if any, and returns err, or else the
// error from closing.
func (t *Telemetry) Close(err error) error {
	if t.close == nil {
		return err
	}
	if cerr := t.close(); err == nil {
		err = cerr
	}
	return err
}

// Profile is the profile group: -cpuprofile and -memprofile.
type Profile struct{ cpu, mem string }

// NewProfile registers the profile group on fs.
func NewProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins the CPU profile if one is asked for. The returned stop
// function ends it and writes the heap profile; defer it once at the top
// of the command. Failures inside stop go to stderr: by then the
// command's work has succeeded, and a lost profile should not change its
// exit status.
func (p *Profile) Start() (stop func(), err error) {
	var cpuFile *os.File
	if p.cpu != "" {
		if cpuFile, err = os.Create(p.cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpu profile:", err)
			}
		}
		if p.mem == "" {
			return
		}
		f, err := os.Create(p.mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "heap profile:", err)
			return
		}
		runtime.GC() // settle the heap so the snapshot reflects live state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "heap profile:", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "heap profile:", err)
		}
	}, nil
}

// Sweep is the sweep group: -step and -max-clients.
type Sweep struct {
	step       int
	MaxClients int // -max-clients
}

// NewSweep registers the sweep group on fs.
func NewSweep(fs *flag.FlagSet) *Sweep {
	s := &Sweep{}
	fs.IntVar(&s.step, "step", 4, "client-count step for the sweep")
	fs.IntVar(&s.MaxClients, "max-clients", 60, "largest client count")
	return s
}

// Clients returns the client counts the sweep visits. It refuses a step
// below 1, which would never advance, and an empty range, which
// core.RunSweep would replace by its default axis.
func (s *Sweep) Clients() ([]int, error) {
	if s.step < 1 {
		return nil, fmt.Errorf("-step %d < 1", s.step)
	}
	clients := core.SweepClients(s.step, s.MaxClients)
	if len(clients) == 0 {
		return nil, fmt.Errorf("no client counts up to -max-clients %d at -step %d", s.MaxClients, s.step)
	}
	return clients, nil
}

// Table1 returns the paper's Table 1, the simulation parameters, as
// name/value rows read from cfg, a defaulted configuration.
func Table1(cfg core.Config) [][2]string {
	red := queue.DefaultREDConfig(cfg.BufferPackets, 0, nil)
	return [][2]string{
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
}

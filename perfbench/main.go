// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's public entry points (core.Run,
// core.RunSweepContext, runcache.Store), checks every run's output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer table)
// as the last line of standard output:
//
//	go run . -workload burst-20k -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// A run takes the median of at least minSetupReps set-up executions,
// repeating them until setupBudget of host time is spent.
const (
	minSetupReps = 3
	setupBudget  = 1500 * time.Millisecond
)

// minTimedReps is the fewest timed executions a run makes, however short
// its time budget.
const minTimedReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the build and host a report was measured on. An
// untraced run adds the unscaled medians behind its time metrics.
type stamp struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Trace     bool   `json:"trace"`
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	hostTimes
}

// hostTimes are an untraced run's unscaled medians: host seconds of one
// execution and of one set-up execution, and of the calibration kernel.
type hostTimes struct {
	WallS  float64 `json:"host_wall_s,omitempty"`
	SetupS float64 `json:"host_setup_s,omitempty"`
	CalibS float64 `json:"calib_s,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-sweep, burst-20k, flows-50k or fluid-sweep")
		seed    = flag.Int64("seed", pinSeed, "seed every run of the workload derives from")
		seconds = flag.Float64("seconds", 20, "host seconds of timed executions to measure")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer table")
		workdir = flag.String("workdir", ".bench_build/work", "directory for result caches and profiles")
		pin     = flag.Bool("pin", false, "print the workload's digests at the seed as a digests.json entry")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workdir, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, workdir string, pin bool) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	w, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, jobs: nproc, dir: dir}
	ctx := context.Background()
	if pin {
		return b.pin(ctx)
	}
	pins, err := loadPins()
	if err != nil {
		return err
	}
	var want []string
	if seed == pinSeed {
		if want = pins[name]; want == nil {
			return fmt.Errorf("digests.json has no pins for %s", name)
		}
	}
	b.chk = b.newChecker(want)

	var metrics map[string]metric
	var host hostTimes
	if trace == 1 {
		metrics, err = b.traced(ctx)
	} else {
		metrics, host, err = b.measure(ctx, time.Duration(seconds*float64(time.Second)))
	}
	if err != nil {
		return err
	}
	var attempted, failed int
	for _, c := range b.checkers {
		attempted += c.attempted
		failed += c.failed
	}
	if trace == 0 {
		metrics["ok_frac"] = metric{1 - float64(failed)/float64(attempted), "ratio"}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(stamp{name, seed, trace == 1, commit(), runtime.Version(), nproc, host}); err != nil {
		return err
	}
	return enc.Encode(report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
}

// bench runs one workload.
type bench struct {
	w    workload
	jobs int
	dir  string
	// chk checks the full-horizon untraced executions against the
	// workload's reference digests.
	chk *checker
	// checkers lists every checker the run made, for the totals.
	checkers []*checker
}

// newChecker returns a checker whose counts enter the run's totals.
func (b *bench) newChecker(want []string) *checker {
	c := newChecker(want, os.Stderr)
	b.checkers = append(b.checkers, c)
	return c
}

// run executes the workload once, checks every run, and returns the
// outcome. A run error is counted by the checker, not returned. A cached
// sweep given no cache directory gets a fresh, empty one, removed
// afterwards.
func (b *bench) run(ctx context.Context, w workload, chk *checker, label string, opt execOptions) (outcome, error) {
	opt.jobs = b.jobs
	if w.cache && opt.cacheDir == "" {
		d, err := os.MkdirTemp(b.dir, "runcache-")
		if err != nil {
			return outcome{}, err
		}
		defer os.RemoveAll(d)
		opt.cacheDir = d
	}
	o, err := execute(ctx, w, opt)
	chk.check(label, o.results, len(w.configs()), err)
	return o, nil
}

// measure is the untraced pass: one discarded warm-up execution, the
// set-up executions, then timed executions until the budget is spent (at
// least minTimedReps), all reported as medians. Every set-up and timed
// execution follows a calibration measurement, and its time is reported
// in reference-host seconds (see calib.go).
func (b *bench) measure(ctx context.Context, budget time.Duration) (map[string]metric, hostTimes, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, hostTimes{}, err
	}
	defer cal.close()
	if _, err := b.run(ctx, b.w, b.chk, "warm-up", execOptions{}); err != nil {
		return nil, hostTimes{}, err
	}
	var kernels []float64
	setup, setupChk := b.w.setupVariant(), b.newChecker(nil)
	var setups, hostSetups []float64
	start := time.Now()
	for i := 0; len(setups) < minSetupReps || time.Since(start) < setupBudget; i++ {
		k := cal.measure()
		o, err := b.run(ctx, setup, setupChk, fmt.Sprintf("set-up %d", i), execOptions{})
		if err != nil {
			return nil, hostTimes{}, err
		}
		kernels = append(kernels, k.Seconds())
		setups = append(setups, scaled(o.wall, k))
		hostSetups = append(hostSetups, o.wall.Seconds())
	}
	var walls, hostWalls, rates, allocs []float64
	start = time.Now()
	for i := 0; len(walls) < minTimedReps || time.Since(start) < budget; i++ {
		k := cal.measure()
		o, err := b.run(ctx, b.w, b.chk, fmt.Sprintf("timed %d", i), execOptions{})
		if err != nil {
			return nil, hostTimes{}, err
		}
		wall := scaled(o.wall, k)
		fmt.Fprintf(os.Stderr, "timed %d: wall %.3fs (host %.3fs, kernel %.1fms), %d events, %.1f MB allocated\n",
			i, wall, o.wall.Seconds(), 1e3*k.Seconds(), o.events(), float64(o.alloc)/1e6)
		kernels = append(kernels, k.Seconds())
		walls = append(walls, wall)
		hostWalls = append(hostWalls, o.wall.Seconds())
		rates = append(rates, float64(o.events())/wall)
		allocs = append(allocs, float64(o.alloc)/1e6)
	}
	return map[string]metric{
		"wall_s":       {median(walls), "s"},
		"setup_s":      {median(setups), "s"},
		"events_per_s": {median(rates), "1/s"},
		"alloc_mb":     {median(allocs), "MB"},
		// The calibration buffer is resident throughout; leave it out.
		"peak_rss_mb": {peakRSSMB() - calibBytes/1e6, "MB"},
	}, hostTimes{median(hostWalls), median(hostSetups), median(kernels)}, nil
}

// pin prints the workload's digests at the given seed. flows-50k is
// pinned from a serial run.
func (b *bench) pin(ctx context.Context) error {
	w := b.w
	w.single.Shards = 0
	chk := b.newChecker(nil)
	if _, err := b.run(ctx, w, chk, "pin", execOptions{}); err != nil {
		return err
	}
	if chk.failed > 0 {
		return fmt.Errorf("pin run failed its checks")
	}
	out, err := json.MarshalIndent(map[string][]string{w.name: chk.want}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// commit is the VCS revision the binary was built from, as the go
// command stamped it, or "unknown" outside a repository.
func commit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// path names a file in the run's scratch directory.
func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

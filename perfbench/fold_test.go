package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// total sums every sample.
func total(stacks []stack) float64 {
	var t float64
	for _, s := range stacks {
		t += s.seconds
	}
	return t
}

// headerTotal reads "Total samples = 1.50s" from a -traces header.
func headerTotal(t *testing.T, text string) float64 {
	t.Helper()
	m := regexp.MustCompile(`Total samples = (\S+)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no Total samples in header")
	}
	v, err := parseDuration(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFoldFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "cpu.traces"))
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := parseTraces(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 9 {
		t.Fatalf("parsed %d stacks, want 9", len(stacks))
	}
	self := foldSelf(stacks)
	want := map[string]float64{
		"sim":         0.5,
		"other":       0.38, // math/rand leaf + runcache, which is not a listed module
		"go_runtime":  0.24,
		"tcp":         0.15,
		"runner":      0.12,
		"meanfield":   0.1,
		"core":        0.01,
		"link":        0,
		"telemetry":   0,
		"transport":   0,
		"shard":       0,
		"packet":      0,
		"queue":       0,
		"traffic":     0,
		"node":        0,
		"stats":       0,
		"nonexistent": 0,
	}
	for mod, w := range want {
		if !near(self[mod], w) {
			t.Errorf("self[%s] = %v, want %v", mod, self[mod], w)
		}
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if tot := headerTotal(t, string(raw)); !near(sum, tot) || !near(total(stacks), tot) {
		t.Errorf("module shares sum to %v (stacks %v), profile total %v", sum, total(stacks), tot)
	}
	fork := timeUnder(stacks, func(fn string) bool { return fn == modulePrefix+"sim.(*RNG).Fork" })
	if !near(fork, 0.3) {
		t.Errorf("time under Fork = %v, want 0.3", fork)
	}
	build := timeUnder(stacks, func(fn string) bool { return strings.HasPrefix(fn, modulePrefix+"core.build") })
	if !near(build, 0.5) {
		t.Errorf("time under core.build* = %v, want 0.5", build)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tcpburst/internal/sim.(*Scheduler).Run":              "sim",
		"tcpburst/internal/runner.Run[go.shape.*uint8].func2": "runner",
		"tcpburst/internal/analysis/callgraph.Build":          "other",
		"tcpburst/internal/simx.F":                            "other",
		"runtime.mallocgc":                                    "go_runtime",
		"internal/runtime/atomic.(*Uint32).Load":              "go_runtime",
		"runtime/internal/syscall.Syscall6":                   "go_runtime",
		"runtime/pprof.(*profileBuilder).addCPUData":          "other",
		"main.main": "other",
		"tcpburst/internal/core.RunContext.(*buildEnv).x.func8": "core",
		"tcpburst/internal/queue.(*CoDel).Enqueue":              "queue",
		"tcpburst/internal/meanfield.(*solver).step":            "meanfield",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for s, want := range map[string]float64{
		"10ms": 0.01, "1.73s": 1.73, "195.19us": 195.19e-6, "7ns": 7e-9, "1.50hrs": 5400,
	} {
		got, err := parseDuration(s)
		if err != nil || !near(got, want) {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"10", "ms", "x1s"} {
		if _, err := parseDuration(s); err == nil {
			t.Errorf("parseDuration(%q) succeeded", s)
		}
	}
}

// TestFoldRealProfile folds a CPU profile of a short simulation through
// `go tool pprof` and checks every sample lands in one bucket.
func TestFoldRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation under the CPU profiler")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(200, core.Reno, core.FIFO)
	cfg.Duration = 20 * time.Second
	_, runErr := core.Run(cfg)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	stacks, err := profileStacks(path, "")
	if err != nil {
		t.Fatal(err)
	}
	self := foldSelf(stacks)
	var sum float64
	for _, v := range self {
		sum += v
	}
	if tot := total(stacks); tot <= 0 || math.Abs(sum-tot) > 1e-9*tot {
		t.Fatalf("module shares sum to %v, profile total %v", sum, tot)
	}
	if self["sim"] <= 0 {
		t.Errorf("no self time in sim: %v", self)
	}
	t.Logf("folded %d stacks, %s s total", len(stacks), strconv.FormatFloat(sum, 'f', 2, 64))
}

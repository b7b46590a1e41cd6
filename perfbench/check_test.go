package main

import (
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/core"
)

func smallRun(t *testing.T, seed int64) *core.Result {
	t.Helper()
	cfg := core.DefaultConfig(8, core.Reno, core.FIFO)
	cfg.Seed = seed
	cfg.Duration = 2 * time.Second
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPerturbedSeedFails runs a point at another seed than the one its
// digest was pinned at: the checker must count and report the mismatch,
// not panic.
func TestPerturbedSeedFails(t *testing.T) {
	pinned, err := digest(smallRun(t, pinSeed))
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	c := newChecker([]string{pinned}, &log)
	c.check("pinned", []*core.Result{smallRun(t, pinSeed)}, 1, nil)
	if c.failed != 0 {
		t.Fatalf("pinned seed failed: %s", log.String())
	}
	c.check("perturbed", []*core.Result{smallRun(t, pinSeed+1)}, 1, nil)
	if c.attempted != 2 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", c.attempted, c.failed)
	}
	if !strings.Contains(log.String(), "FAIL perturbed run 0") || !strings.Contains(log.String(), "summary digest") {
		t.Errorf("mismatch not reported: %q", log.String())
	}
}

// TestFirstExecutionIsReference pins the unpinned-seed rule: the first
// checked execution sets the digests later executions must reproduce.
func TestFirstExecutionIsReference(t *testing.T) {
	c := newChecker(nil, io.Discard)
	a, b := smallRun(t, 5), smallRun(t, 6)
	c.check("first", []*core.Result{a}, 1, nil)
	c.check("same", []*core.Result{a}, 1, nil)
	c.check("other", []*core.Result{b}, 1, nil)
	if c.attempted != 3 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
}

func TestFailuresCounted(t *testing.T) {
	c := newChecker(nil, io.Discard)
	c.check("error", nil, 3, errors.New("boom"))
	if c.attempted != 3 || c.failed != 3 {
		t.Fatalf("run error: attempted %d failed %d, want 3 and 3", c.attempted, c.failed)
	}
	ok := smallRun(t, pinSeed)
	c = newChecker(nil, io.Discard)
	c.check("short", []*core.Result{ok, nil}, 3, nil)
	if c.attempted != 3 || c.failed != 2 {
		t.Fatalf("missing results: attempted %d failed %d, want 3 and 2", c.attempted, c.failed)
	}
}

func TestAccounting(t *testing.T) {
	good := core.Result{Generated: 10, DataSent: 12, Delivered: 9, ForwardDrops: 3, COV: 0.5}
	if err := accounting(&good); err != nil {
		t.Fatalf("consistent result rejected: %v", err)
	}
	for name, mutate := range map[string]func(*core.Result){
		"delivered > sent":      func(r *core.Result) { r.Delivered = 13 },
		"drops > sent":          func(r *core.Result) { r.ForwardDrops = 13 },
		"delivered > generated": func(r *core.Result) { r.Generated = 8 },
		"cov NaN":               func(r *core.Result) { r.COV = math.NaN() },
		"cov Inf":               func(r *core.Result) { r.COV = math.Inf(1) },
	} {
		r := good
		mutate(&r)
		if accounting(&r) == nil {
			t.Errorf("%s: accepted", name)
		}
		c := newChecker(nil, io.Discard)
		c.check(name, []*core.Result{&r}, 1, nil)
		if c.failed != 1 {
			t.Errorf("%s: failed %d, want 1", name, c.failed)
		}
	}
}

// TestPinsCoverWorkloads checks digests.json has one digest per run of
// every workload.
func TestPinsCoverWorkloads(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, pinSeed)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(pins[name]), len(w.configs()); got != want {
			t.Errorf("%s: %d pinned digests, want %d", name, got, want)
		}
	}
}

// TestFluidSweepMatchesPins replays the cheapest workload at the pinned
// seed, so a change to the simulator's results shows here first.
func TestFluidSweepMatchesPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fluid-sweep workload")
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	w, err := buildWorkload("fluid-sweep", pinSeed)
	if err != nil {
		t.Fatal(err)
	}
	o, runErr := execute(context.Background(), w, execOptions{jobs: 2})
	var log strings.Builder
	c := newChecker(pins["fluid-sweep"], &log)
	c.check("fluid-sweep", o.results, len(w.configs()), runErr)
	if c.failed != 0 {
		t.Fatalf("%d of %d runs failed:\n%s", c.failed, c.attempted, log.String())
	}
}

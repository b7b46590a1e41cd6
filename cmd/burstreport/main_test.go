package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestHelpers(t *testing.T) {
	if got, want := pickSummaryPoints([]int{4, 8, 38, 39, 60}), []int{4, 38, 39, 60}; !slices.Equal(got, want) {
		t.Errorf("pickSummaryPoints = %v, want %v", got, want)
	}
	if got, want := pickSummaryPoints([]int{10, 20, 30, 40, 50}), []int{10, 30, 50}; !slices.Equal(got, want) {
		t.Errorf("pickSummaryPoints = %v, want %v", got, want)
	}
	if pickSummaryPoints(nil) != nil {
		t.Error("empty input should yield nil")
	}
}

func TestReportQuick(t *testing.T) {
	var sb strings.Builder
	// -cache-dir keeps the test hermetic: nothing lands in the user cache.
	err := run(&sb, []string{
		"-duration", "5s", "-step", "30", "-max-clients", "30",
		"-cache-dir", t.TempDir(),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TCP burstiness report",
		"## Table 1",
		"| gateway buffer size (B) | 50 packets |",
		"| total test time | 5s |",
		"## Figures 2–4 and 13",
		"Crossover analysis",
		"## Figures 5–12",
		"| 5 | reno | 20 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportFluidBackend(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{
		"-backend", "fluid", "-duration", "5s", "-step", "30", "-max-clients", "30",
		"-cache-dir", t.TempDir(),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TCP burstiness report",
		"## Figures 2–4 and 13",
		// The window-evolution figures need per-flow state; the fluid
		// report must say so instead of running them.
		"Skipped on the fluid backend",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fluid report missing %q", want)
		}
	}
	if strings.Contains(out, "| 5 | reno | 20 |") {
		t.Error("fluid report should not contain window-evolution rows")
	}
	if err := run(&sb, []string{"-backend", "bogus"}); err == nil {
		t.Error("bogus backend accepted")
	}
}

// TestRunRejectsEmptyClientRange: a step below 1 would never advance the
// client-count loop, and a range with no client counts would sweep the
// default axis instead.
func TestRunRejectsEmptyClientRange(t *testing.T) {
	for _, args := range [][]string{
		{"-step", "0"},
		{"-step", "4", "-max-clients", "3"},
	} {
		var sb strings.Builder
		err := run(&sb, append([]string{"-duration", "1ms", "-cache=false"}, args...))
		if err == nil || !strings.Contains(err.Error(), "-step") {
			t.Errorf("%v: run = %v, want a -step error", args, err)
		}
	}
}

// TestTelemetryOutAlone: -telemetry-out FILE turns telemetry on by itself
// and writes every sweep job's records into FILE, each line labelled with
// its run; a .csv name is refused because CSV has no run-label column.
func TestTelemetryOutAlone(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.jsonl")
	args := []string{"-step", "4", "-max-clients", "4", "-duration", "1s", "-cache=false"}
	if err := run(io.Discard, append(args, "-telemetry-out", out)); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("telemetry file: %v", err)
	}
	labels := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Run string `json:"run"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Run == "" {
			t.Fatalf("line without a run label (%v): %s", err, line)
		}
		labels[rec.Run] = true
	}
	if len(labels) < 2 {
		t.Errorf("run labels %v, want one per sweep job", labels)
	}

	csv := filepath.Join(t.TempDir(), "report.csv")
	if err := run(io.Discard, append(args, "-telemetry-out", csv)); err == nil || !strings.Contains(err.Error(), "JSONL") {
		t.Errorf("-telemetry-out %s: run = %v, want an error naming JSONL", csv, err)
	}
	if err := run(io.Discard, append(args, "-telemetry")); err == nil || !strings.Contains(err.Error(), "-telemetry-out") {
		t.Errorf("-telemetry without a file: run = %v, want an error naming -telemetry-out", err)
	}
}

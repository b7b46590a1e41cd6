package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tcpburst/internal/core"
)

// The sweep's x-axis comes from core.SweepClients; these pin what
// burstsweep's -step/-max-clients flags produce.
func TestSweepClientsIncludesCrossover(t *testing.T) {
	got := core.SweepClients(4, 60)
	for _, n := range []int{4, 38, 39, 40, 60} {
		if !slices.Contains(got, n) {
			t.Errorf("SweepClients missing %d: %v", n, got)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
}

func TestSweepClientsSmallMax(t *testing.T) {
	got := core.SweepClients(10, 20)
	// Crossover points above max are omitted.
	if slices.Contains(got, 38) || slices.Contains(got, 39) {
		t.Errorf("crossover beyond max included: %v", got)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("SweepClients(10,20) = %v", got)
	}
}

func TestSweepCells(t *testing.T) {
	cells, err := sweepCells("fifo, codel?target=2ms,pie", "reno")
	if err != nil {
		t.Fatalf("sweepCells: %v", err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3: %v", len(cells), cells)
	}
	if cells[1].Queue != "codel?target=2ms" || cells[1].Protocol.String() != "reno" {
		t.Errorf("cell 1 = %+v", cells[1])
	}
	if cells[0].Gateway != 0 {
		t.Errorf("spec cells must leave the enum zero: %+v", cells[0])
	}
}

func TestSweepCellsEmptyMeansPaper(t *testing.T) {
	cells, err := sweepCells("", "reno")
	if err != nil || cells != nil {
		t.Errorf("empty -queue: cells=%v err=%v", cells, err)
	}
}

func TestSweepCellsRejectsBadInput(t *testing.T) {
	if _, err := sweepCells("codel?", "reno"); err == nil {
		t.Error("dangling '?' accepted")
	}
	if _, err := sweepCells("fifo", "quic"); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := sweepCells(" , ,", "reno"); err == nil {
		t.Error("blank spec list accepted")
	}
}

func TestRunRequiresMode(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no mode accepted")
	}
	if err := run([]string{"-fig", "7"}); err == nil {
		t.Error("non-sweep figure accepted")
	}
	if err := run([]string{"-all"}); err == nil {
		t.Error("-all without -out accepted")
	}
}

// TestRunRejectsEmptyClientRange: a step below 1 would never advance the
// client-count loop, and a range with no client counts would sweep the
// default axis instead.
func TestRunRejectsEmptyClientRange(t *testing.T) {
	for _, args := range [][]string{
		{"-step", "0"},
		{"-step", "-4"},
		{"-step", "4", "-max-clients", "3"},
	} {
		err := run(append([]string{"-fig", "2", "-duration", "1ms", "-cache=false"}, args...))
		if err == nil || !strings.Contains(err.Error(), "-step") {
			t.Errorf("%v: run = %v, want a -step error", args, err)
		}
	}
}

func TestRunRejectsUnknownBackend(t *testing.T) {
	if err := run([]string{"-fig", "2", "-backend", "bogus"}); err == nil {
		t.Error("bogus backend accepted")
	}
}

// TestTelemetryOutAlone: -telemetry-out FILE turns telemetry on by itself
// and writes every job's records into FILE, each line labelled with its
// run; a .csv name is refused because CSV has no run-label column.
func TestTelemetryOutAlone(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep.jsonl")
	args := []string{"-fig", "2", "-max-clients", "4", "-duration", "1s", "-cache=false"}
	if err := run(append(args, "-telemetry-out", out)); err != nil {
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
	if want := len(core.PaperCells()); len(labels) != want {
		t.Errorf("%d run labels, want one per cell (%d): %v", len(labels), want, labels)
	}

	csv := filepath.Join(t.TempDir(), "sweep.csv")
	if err := run(append(args, "-telemetry-out", csv)); err == nil || !strings.Contains(err.Error(), "JSONL") {
		t.Errorf("-telemetry-out %s: run = %v, want an error naming JSONL", csv, err)
	}
	if _, err := os.Stat(csv); !os.IsNotExist(err) {
		t.Errorf("refused .csv path was created: %v", err)
	}
}

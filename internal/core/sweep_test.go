package core

import (
	"strings"
	"testing"
	"time"
)

func miniSweep(t *testing.T) *Sweep {
	t.Helper()
	base := Config{Duration: 15 * time.Second}
	sweep, err := RunSweep(SweepOptions{
		Base:    base,
		Clients: []int{8, 50},
		Cells: []Cell{
			{Protocol: UDP, Gateway: FIFO},
			{Protocol: Reno, Gateway: FIFO},
		},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	return sweep
}

func TestRunSweepProducesAllPoints(t *testing.T) {
	sweep := miniSweep(t)
	if len(sweep.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(sweep.Points))
	}
	for _, n := range sweep.Clients {
		for _, c := range sweep.Cells {
			p := sweep.Point(c, n)
			if p == nil {
				t.Fatalf("missing point %s n=%d", c, n)
			}
			if p.Result.Config.Clients != n || p.Result.Config.Protocol != c.Protocol {
				t.Errorf("point %s n=%d carries config %+v", c, n, p.Result.Config)
			}
		}
	}
	if sweep.Point(Cell{Protocol: Vegas, Gateway: RED}, 8) != nil {
		t.Error("Point returned a result for an absent cell")
	}
}

func TestSweepColumnOrder(t *testing.T) {
	sweep := miniSweep(t)
	col := sweep.Column(Cell{Protocol: UDP, Gateway: FIFO}, MetricThroughput)
	if len(col) != 2 {
		t.Fatalf("column = %v", col)
	}
	// 50 clients deliver more than 8 clients.
	if col[1] <= col[0] {
		t.Errorf("throughput column %v not increasing with offered load", col)
	}
}

func TestSweepCSVShape(t *testing.T) {
	sweep := miniSweep(t)
	csv := sweep.CSV(MetricCOV, true)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv = %q", csv)
	}
	if lines[0] != "clients,poisson,udp,reno" {
		t.Errorf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if n := strings.Count(line, ","); n != 3 {
			t.Errorf("row %q has %d commas, want 3", line, n)
		}
	}
	// Without the Poisson column.
	csv = sweep.CSV(MetricLossPct, false)
	if !strings.HasPrefix(csv, "clients,udp,reno\n") {
		t.Errorf("csv without poisson = %q", csv)
	}
}

func TestSweepDefaultsToPaperCells(t *testing.T) {
	// Zero-valued options must fall back to the paper's cells and sweep
	// x-axis; verify without running (construct only).
	opts := SweepOptions{}
	if len(opts.Cells) != 0 || len(opts.Clients) != 0 {
		t.Fatal("test setup")
	}
	// RunSweep with one tiny client list to keep runtime bounded, but
	// default cells.
	sweep, err := RunSweep(SweepOptions{
		Base:    Config{Duration: 5 * time.Second},
		Clients: []int{4},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(sweep.Cells) != 6 {
		t.Errorf("default cells = %d, want 6 (paper)", len(sweep.Cells))
	}
	if len(sweep.Points) != 6 {
		t.Errorf("points = %d, want 6", len(sweep.Points))
	}
}

func TestCellString(t *testing.T) {
	if got := (Cell{Protocol: Reno, Gateway: FIFO}).String(); got != "reno" {
		t.Errorf("Cell string = %q, want reno", got)
	}
	if got := (Cell{Protocol: Vegas, Gateway: RED}).String(); got != "vegas/red" {
		t.Errorf("Cell string = %q, want vegas/red", got)
	}
	if got := (Cell{Protocol: Reno, Gateway: DRR}).String(); got != "reno/drr" {
		t.Errorf("Cell string = %q, want reno/drr", got)
	}
}

package core

import (
	"strings"
	"testing"
	"time"
)

// TestFluidRejectsRegistryDisciplines checks the fluid guard: the
// mean-field backend models only fifo and red, so any other discipline
// must fail validation with an error that names the discipline and the
// fix.
func TestFluidRejectsRegistryDisciplines(t *testing.T) {
	for _, spec := range []string{"codel", "pie", "tokenbucket?rate=4000"} {
		opt, err := ParseDiscipline(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewConfig(WithClients(10), WithProtocol(Reno), WithBackend(FluidBackend), opt)
		if err == nil {
			t.Errorf("fluid backend accepted discipline %q", spec)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "mean-field law") || !strings.Contains(msg, "-backend packet") {
			t.Errorf("fluid rejection of %q = %q, want the discipline and the packet-backend fix named", spec, msg)
		}
	}
	// The modeled disciplines pass, with any RED parameters.
	for _, spec := range []string{"fifo", "red", "red?ecn=true&gentle=true&maxprob=0.2"} {
		opt, err := ParseDiscipline(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewConfig(WithClients(10), WithProtocol(Reno), WithBackend(FluidBackend), opt); err != nil {
			t.Errorf("fluid backend rejected %q: %v", spec, err)
		}
	}
}

// TestSweepOverSpecCells runs a miniature sweep mixing enum and spec cells
// and checks each point runs its own discipline end-to-end.
func TestSweepOverSpecCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sweep, err := RunSweep(SweepOptions{
		Base:    Config{Duration: 10 * time.Second},
		Clients: []int{12},
		Cells: []Cell{
			{Protocol: Reno, Gateway: FIFO},
			{Protocol: Reno, Queue: "codel?interval=40ms&target=2ms"},
			{Protocol: Reno, Queue: "tokenbucket?burst=25&rate=2000"},
		},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if len(sweep.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(sweep.Points))
	}

	fifo := sweep.Point(Cell{Protocol: Reno, Gateway: FIFO}, 12)
	if fifo == nil || fifo.Result.AQM != nil || fifo.Result.RED != nil ||
		fifo.Result.Config.Gateway != 0 || fifo.Result.Config.QueueName() != "fifo" {
		t.Error("enum cell did not default to the fifo spec with no discipline stats")
	}

	codel := sweep.Point(Cell{Protocol: Reno, Queue: "codel?interval=40ms&target=2ms"}, 12)
	if codel == nil {
		t.Fatal("missing codel point")
	}
	if codel.Result.Config.Gateway != 0 || codel.Result.Config.QueueName() != "codel?interval=40ms&target=2ms" {
		t.Errorf("codel point config: gateway=%v queue=%q",
			codel.Result.Config.Gateway, codel.Result.Config.QueueName())
	}
	if codel.Result.AQM == nil {
		t.Error("codel point has no AQM stats")
	}
	if s := codel.Result.Summary(); s.Gateway != "codel?interval=40ms&target=2ms" {
		t.Errorf("codel summary gateway = %q", s.Gateway)
	}

	tb := sweep.Point(Cell{Protocol: Reno, Queue: "tokenbucket?burst=25&rate=2000"}, 12)
	if tb == nil {
		t.Fatal("missing tokenbucket point")
	}
	// 12 clients offer ~1200 pkts/s against a 2000 pkts/s bucket, but TCP
	// bursts overrun it: the policer must have shed something while the
	// overall run still delivers most packets.
	if tb.Result.AQM == nil {
		t.Fatal("tokenbucket point has no AQM stats")
	}
	if tb.Result.AQM.Shed == 0 {
		t.Error("tokenbucket policer shed nothing under bursty TCP arrivals")
	}
	if tb.Result.Delivered == 0 {
		t.Error("tokenbucket run delivered nothing")
	}
}

// TestSweepRejectsMalformedSpecCell checks that a bad cell surfaces as a
// sweep error naming the cell rather than a panic mid-run.
func TestSweepRejectsMalformedSpecCell(t *testing.T) {
	_, err := RunSweep(SweepOptions{
		Base:    Config{Duration: 5 * time.Second},
		Clients: []int{4},
		Cells:   []Cell{{Protocol: Reno, Queue: "codel?target"}},
	})
	if err == nil || !strings.Contains(err.Error(), "cell") {
		t.Errorf("RunSweep = %v, want cell-naming spec error", err)
	}
}

// TestRunRegistryDisciplinesEndToEnd exercises each genuinely new
// discipline through a short full simulation, serial and sharded, checking
// the sharded replay stays bit-identical — the registry path must not
// disturb the shard fork schedule.
func TestRunRegistryDisciplinesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	for _, spec := range []string{
		"codel?interval=40ms&target=2ms",
		"pie?target=5ms&tupdate=5ms",
		"codel?ecn=true&interval=40ms&target=2ms",
		"pie?ecn=true&target=5ms&tupdate=5ms",
		"tokenbucket?burst=25&rate=3000",
		"leakybucket?depth=40&rate=3000",
	} {
		opt, err := ParseDiscipline(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := NewConfig(
			WithClients(10), WithProtocol(Reno), opt,
			WithDuration(8*time.Second),
		)
		if err != nil {
			t.Fatalf("NewConfig(%q): %v", spec, err)
		}
		serial, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%q): %v", spec, err)
		}
		if serial.Delivered == 0 {
			t.Errorf("%q delivered nothing", spec)
		}
		if serial.AQM == nil {
			t.Errorf("%q has no AQM stats", spec)
		}

		sharded := cfg
		sharded.Shards = 2
		res2, err := Run(sharded)
		if err != nil {
			t.Fatalf("Run(%q, shards=2): %v", spec, err)
		}
		a, err := serial.MarshalSummaryJSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := res2.MarshalSummaryJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%q sharded summary differs from serial:\n%s\n%s", spec, a, b)
		}
	}
}

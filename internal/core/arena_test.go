package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// runOnArena runs cfg on arena a, as RunContext does on an idle one, and
// returns the SHA-256 of its summary JSON, encoded as the golden table
// pins it.
func runOnArena(t *testing.T, cfg Config, a *arena) string {
	t.Helper()
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := buildTopology(describe(cfg), a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.measure(context.Background())
	if n.release() != a {
		t.Fatal("release returned another arena")
	}
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	s.SchemaVersion = 0
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestArenaReuseMatchesFreshRun runs, on one goroutine and one arena, a
// sequence whose shape shrinks and grows: client counts, protocols,
// disciplines, traffic models, topology and shard count all change from
// run to run, so each run inherits blocks, rings, chunks, schedulers and
// pools shaped by another. Every run's summary digest must equal its
// golden row, or, where the table has none, the digest of the same config
// run first on a fresh arena.
func TestArenaReuseMatchesFreshRun(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	at := func(cfg Config) Config {
		cfg.Duration = goldenDuration
		return cfg
	}
	pareto := DefaultConfig(40, Reno, FIFO)
	pareto.Traffic = TrafficParetoOnOff
	pareto.MeanOnTime, pareto.MeanOffTime = 50*time.Millisecond, 150*time.Millisecond
	lot := Config{ParkingLot: &ParkingLot{Long: 20, Hop1: 20, Hop2: 20}, Protocol: Reno, Gateway: DRR}
	sharded := DefaultConfig(200, Reno, FIFO)
	sharded.Shards = 2
	steps := []struct {
		name   string
		golden string // the golden row, or "" to compare with a fresh arena
		cfg    Config
	}{
		{"reno/red n60", "reno/red/n60", DefaultConfig(60, Reno, RED)},
		{"vegas n4", "", DefaultConfig(4, Vegas, FIFO)},
		{"pareto n40", "", pareto},
		{"parking lot", "", lot},
		{"n200 shards2", "", sharded},
		{"reno/red n60 again", "reno/red/n60", DefaultConfig(60, Reno, RED)},
	}
	want := make([]string, len(steps))
	for i, s := range steps {
		if want[i] = golden[s.golden]; s.golden == "" {
			want[i] = runOnArena(t, at(s.cfg), new(arena))
		} else if want[i] == "" {
			t.Fatalf("%s: no golden row %q", s.name, s.golden)
		}
	}
	a := new(arena)
	for i, s := range steps {
		if got := runOnArena(t, at(s.cfg), a); got != want[i] {
			t.Errorf("%s on a reused arena: digest %s, want %s", s.name, got, want[i])
		}
	}
	if len(a.clients) < 200 || len(a.scheds) < 2 {
		t.Errorf("arena kept %d client slots and %d schedulers, want the sequence's 200 and 2", len(a.clients), len(a.scheds))
	}
}

// TestNetworkUseAfterReleasePanics: a released network's blocks belong to
// its arena's next run, so every entry point refuses it.
func TestNetworkUseAfterReleasePanics(t *testing.T) {
	cfg := DefaultConfig(3, Reno, FIFO).WithDefaults()
	cfg.Duration = time.Second
	for name, use := range map[string]func(n *network){
		"measure": func(n *network) { _, _ = n.measure(context.Background()) },
		"run":     func(n *network) { _ = n.run(context.Background(), 0) },
		"settle":  func(n *network) { n.settle(0) },
		"release": func(n *network) { n.release() },
	} {
		n, err := buildTopology(describe(cfg), new(arena))
		if err != nil {
			t.Fatal(err)
		}
		n.release()
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "network used after release") {
					t.Errorf("%s after release: panic %q, want the release check", name, r)
				}
			}()
			use(n)
		}()
	}
}

// TestReleaseEmptiesArena: a released arena keeps no pending event, and
// no link or queue of the run holds a packet, so an idle arena keeps only
// what its pools hold for reuse alive.
func TestReleaseEmptiesArena(t *testing.T) {
	cfg := DefaultConfig(30, Reno, FIFO)
	cfg.Duration = time.Second
	a := new(arena)
	runOnArena(t, cfg, a)
	for s, sched := range a.scheds {
		if sched.Pending() != 0 || sched.Now() != 0 || sched.Fired() != 0 {
			t.Errorf("scheduler %d: %d pending, clock %v, %d fired after release", s, sched.Pending(), sched.Now(), sched.Fired())
		}
	}
	slots := append([]linkSlot(nil), a.fixed...)
	for i := range a.clients {
		slots = append(slots, a.clients[i].access, a.clients[i].reverse)
	}
	for i := range slots {
		if l := &slots[i].link; l.Queue() != nil || slots[i].fifo.Len() != 0 {
			t.Errorf("link slot %d kept queue %v, %d queued after release", i, l.Queue(), slots[i].fifo.Len())
		}
	}
}

// TestIdleArenasConcurrent: runner workers take and return arenas from
// several goroutines while the collector ages the idle list; no arena is
// ever handed to two holders at once.
func TestIdleArenasConcurrent(t *testing.T) {
	var held sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a := takeArena()
				if _, dup := held.LoadOrStore(a, true); dup {
					t.Error("an arena was handed out while another holder had it")
				}
				if i%100 == 0 {
					runtime.GC()
				}
				held.Delete(a)
				idleArena(a)
			}
		}()
	}
	wg.Wait()
}

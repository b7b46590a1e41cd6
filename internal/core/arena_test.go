package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tcpburst/internal/queue"
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
// run to run, so each run inherits blocks, rings, chunks, tables,
// schedulers and pools shaped by another. Every run's summary digest must equal its
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
		{"udp n60", "udp/n60", DefaultConfig(60, UDP, FIFO)},
		{"pareto n40", "", pareto},
		{"parking lot", "", lot},
		{"n200 shards2", "", sharded},
		{"udp n39 after", "udp/n39", DefaultConfig(39, UDP, FIFO)},
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

// TestReleaseReturnsEveryPacket: release puts every packet still in
// flight at the horizon back into a pool exactly once (a second Put of one
// packet panics), so after release the pools have taken back every packet
// they handed out, and a serial run repeated on the same arena allocates
// no packet. In a serial run that holds pool by pool; in a sharded run
// packets cross shards and go back to the pool of the shard that
// consumes them, so it holds over the run's pools together. Each run
// leaves packets in serialization, in trains, in its queues, the
// bottleneck discipline's among them, or, sharded, in crossing
// deliveries; the canceled ones stop between windows with crossings
// still in the shard outboxes.
func TestReleaseReturnsEveryPacket(t *testing.T) {
	spec := func(s string) *queue.Spec {
		q, err := queue.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		return &q
	}
	congested := func(p Protocol, g GatewayQueue) Config {
		cfg := DefaultConfig(60, p, g)
		cfg.Duration = 2 * time.Second
		return cfg
	}
	cases := map[string]Config{
		"reno/fifo":    congested(Reno, FIFO),
		"reno/red":     congested(Reno, RED),
		"reno/drr":     congested(Reno, DRR),
		"sack/fifo":    congested(Sack, FIFO),
		"vegas/fifo":   congested(Vegas, FIFO),
		"delayack/red": congested(RenoDelayAck, RED),
		"udp/fifo":     congested(UDP, FIFO),
	}
	for name, q := range map[string]string{"codel": "codel", "pie": "pie", "tokenbucket": "tokenbucket?rate=2000"} {
		cfg := congested(Reno, FIFO)
		cfg.Gateway, cfg.Queue = 0, spec(q)
		cases["reno/"+name] = cfg
	}
	lossy := congested(Reno, FIFO)
	lossy.WireLossProb = 0.01
	cases["reno/fifo lossy"] = lossy
	eager := congested(Reno, FIFO)
	eager.DisableBatching = true
	cases["reno/fifo unbatched"] = eager
	sharded := congested(Reno, FIFO)
	sharded.Clients, sharded.Shards = 400, 2
	cases["reno/fifo shards2"] = sharded
	lot := Config{ParkingLot: &ParkingLot{Long: 20, Hop1: 20, Hop2: 20}, Protocol: Reno, Duration: 2 * time.Second}
	cases["parking lot"] = lot
	lot.Shards = 2
	cases["parking lot shards2"] = lot
	canceled := sharded
	canceled.Duration = 30 * time.Second
	cases["reno/fifo shards2 canceled"] = canceled
	cases["parking lot shards2 canceled"] = lot

	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg = cfg.WithDefaults()
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if strings.HasSuffix(name, "canceled") {
				c, cancel := context.WithCancel(ctx)
				cancel()
				ctx = c
			}
			a := new(arena)
			run := func() *network {
				n, err := buildTopology(describe(cfg), a)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := n.measure(ctx); (err != nil) != (ctx.Err() != nil) {
					t.Fatalf("measure: %v", err)
				}
				return n
			}
			n := run()
			live := func() (sum int) {
				for _, p := range n.pools {
					sum += p.Live()
				}
				return sum
			}
			if live() <= 0 {
				t.Fatalf("%d packets in flight at the horizon, want some to return", live())
			}
			n.release()
			if got := live(); got != 0 {
				t.Errorf("after release the pools miss %d packets", got)
			}
			if len(n.pools) == 1 {
				if ctx.Err() == nil {
					// Its pool now holds every packet the run allocated, so
					// the same run again on the arena allocates none.
					again := run()
					if _, _, allocs := again.pools[0].Stats(); allocs != 0 {
						t.Errorf("the same run again on the arena allocated %d packets", allocs)
					}
					again.release()
				}
				return
			}
			for s, p := range n.pools {
				if gets, puts, _ := p.Stats(); gets == 0 || puts == 0 {
					t.Errorf("shard %d pool: %d gets, %d puts", s, gets, puts)
				}
			}
		})
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

// TestIdleArenaSurvivesTwoCollections: an arena released and then left
// idle through two collections is still there for the next run, as it
// must be for a benchmark that forces a collection between its warm-up
// and its timed runs; after a third it is dropped. dropAged stands in for
// the finalizer, which runs at some point after each collection.
func TestIdleArenaSurvivesTwoCollections(t *testing.T) {
	isIdle := func(a *arena) bool {
		idle.Lock()
		defer idle.Unlock()
		return slices.Contains(idle.arenas, a)
	}
	a := takeArena()
	// Finish any collection under way, so the two below are whole ones.
	runtime.GC()
	idleArena(a)
	runtime.GC()
	runtime.GC()
	dropAged(gcCycles())
	if !isIdle(a) {
		t.Fatal("an arena idle through two collections was dropped")
	}
	runtime.GC()
	dropAged(gcCycles())
	if isIdle(a) {
		t.Fatal("an arena idle through three collections was kept")
	}
	b := takeArena()
	if b == a {
		t.Fatal("takeArena handed out a dropped arena")
	}
	idleArena(b)
}

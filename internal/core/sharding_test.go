package core

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestPlanShardsPlacement pins the topology compiler's one placement rule
// on both topologies: gateways first, sink hosts with the gateway feeding
// them, and clients in contiguous blocks over all shards when there are
// more shards than gateways (with their attach gateway otherwise).
func TestPlanShardsPlacement(t *testing.T) {
	place := buildPlacement
	clientShards := func(p placement) []int {
		s := make([]int, p.clients)
		for j := range s {
			s[j] = p.client(j)
		}
		return s
	}
	cfg := DefaultConfig(10, Reno, FIFO)

	p := place(dumbbell(cfg)) // Shards unset: serial
	if p.k != 1 || p.gw[0] != 0 || p.host[0] != 0 {
		t.Errorf("serial placement = %+v, want everything on shard 0", p)
	}

	// K=2 balances the dumbbell: the gateway, the server and the first
	// half of the clients on shard 0, the other half on shard 1.
	cfg.Shards = 2
	p = place(dumbbell(cfg))
	if p.gw[0] != 0 || p.host[0] != 0 {
		t.Errorf("K=2: gateway/server on %d/%d, want colocated on 0", p.gw[0], p.host[0])
	}
	if got, want := clientShards(p), []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("K=2: clients on %v, want %v", got, want)
	}

	cfg.Shards = 5
	p = place(dumbbell(cfg))
	if p.gw[0] != 0 || p.host[0] != 0 {
		t.Errorf("K=5: gateway/server on %d/%d, want colocated on 0", p.gw[0], p.host[0])
	}
	if got, want := clientShards(p), []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("K=5: clients on %v, want %v", got, want)
	}

	// The chain's K=2 cut: gw1 and its long and hop-1 clients | gw2, the
	// server, exit1 and the hop-2 clients.
	lot := Config{ParkingLot: &ParkingLot{Long: 4, Hop1: 3, Hop2: 3}, Shards: 2}.WithDefaults()
	p = place(parkingLot(lot))
	if !reflect.DeepEqual(p.gw, []int{0, 1}) || !reflect.DeepEqual(p.host, []int{1, 1}) {
		t.Errorf("chain K=2: gateways on %v, server/exit1 on %v; want [0 1] and [1 1]", p.gw, p.host)
	}
	if got, want := clientShards(p), []int{0, 0, 0, 0, 0, 0, 0, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("chain K=2: clients on %v, want %v", got, want)
	}
}

// TestColocatedAccessLinksStayLocal pins which access links cross shards
// at K=2: only those of clients placed away from the gateway. A client on
// the gateway's shard delivers straight into it, so its access link keeps
// burst trains and serialization pipelining.
func TestColocatedAccessLinksStayLocal(t *testing.T) {
	cfg := DefaultConfig(8, Reno, FIFO)
	cfg.Shards = 2
	n, err := buildTopology(dumbbell(cfg.WithDefaults()), new(arena))
	if err != nil {
		t.Fatalf("buildTopology: %v", err)
	}
	for j, f := range n.flows {
		remote := n.place.client(j) != n.place.gw[0]
		if got := f.access.CrossesShards(); got != remote {
			t.Errorf("client %d on shard %d: access link crosses = %v, want %v", j+1, n.place.client(j), got, remote)
		}
		if got := f.access.Pipelined(); got == remote {
			t.Errorf("client %d on shard %d: access link pipelined = %v, want %v", j+1, n.place.client(j), got, !remote)
		}
		if f.reverse.CrossesShards() || !f.reverse.Pipelined() {
			t.Errorf("client %d: reverse link crosses = %v, pipelined = %v; want a local pipelined link",
				j+1, f.reverse.CrossesShards(), f.reverse.Pipelined())
		}
	}
	if n.flows[0].access.CrossesShards() || !n.flows[len(n.flows)-1].access.CrossesShards() {
		t.Error("K=2 did not split the clients between the gateway's shard and the other")
	}
}

// TestLookaheadFromCrossingLinks pins the compiler's lookahead: the
// minimum delay over the links that actually cross shards. The dumbbell's
// access links cross at every K (2 ms); the chain's K=2 cut crosses only
// the two inter-gateway links (20 ms), and its clients cross from K=3 on.
func TestLookaheadFromCrossingLinks(t *testing.T) {
	for _, tc := range []struct {
		name string
		top  topology
		want time.Duration
	}{
		{"dumbbell/K=1", dumbbell(DefaultConfig(8, Reno, FIFO).WithDefaults()), 0},
		{"dumbbell/K=2", dumbbell(Config{Clients: 8, Shards: 2}.WithDefaults()), 2 * time.Millisecond},
		{"dumbbell/K=4", dumbbell(Config{Clients: 8, Shards: 4}.WithDefaults()), 2 * time.Millisecond},
		{"chain/K=2", parkingLot(Config{ParkingLot: &ParkingLot{Long: 2, Hop2: 2}, Shards: 2}.WithDefaults()), 20 * time.Millisecond},
		{"chain/K=3", parkingLot(Config{ParkingLot: &ParkingLot{Long: 2, Hop2: 2}, Shards: 3}.WithDefaults()), 2 * time.Millisecond},
	} {
		n, err := buildTopology(tc.top, new(arena))
		if err != nil {
			t.Fatalf("%s: buildTopology: %v", tc.name, err)
		}
		if n.lookahead != tc.want {
			t.Errorf("%s: lookahead %v, want %v", tc.name, n.lookahead, tc.want)
		}
	}
}

func TestShardsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"negative", func(c *Config) { c.Shards = -1 }, "< 0"},
		{"fluid", func(c *Config) { c.Shards = 2; c.Backend = FluidBackend }, "fluid"},
		{"too many", func(c *Config) { c.Shards = 64 }, "hosts"},
		{"cwnd tracing", func(c *Config) {
			c.Shards = 2
			c.CwndSampleInterval = 10 * time.Millisecond
		}, "tracing"},
		{"queue tracing", func(c *Config) { c.Shards = 2; c.TraceQueue = true }, "tracing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(8, Reno, FIFO)
			cfg.Duration = time.Second
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatalf("Run accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Sharded telemetry must merge to the serial stream: same columns, same
// tick grid, same values — except sim.events, which honestly reports the
// extra per-shard sampler events. The registry export (counters and
// histograms summed across shards) must match serial exactly.
func TestShardedTelemetryMatchesSerial(t *testing.T) {
	run := func(shards int) *Result {
		t.Helper()
		cfg := DefaultConfig(16, Reno, FIFO)
		cfg.Duration = 2 * time.Second
		cfg.TelemetryInterval = 100 * time.Millisecond
		cfg.Shards = shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(shards=%d): %v", shards, err)
		}
		if res.TelemetryRing == nil {
			t.Fatalf("Run(shards=%d): no telemetry ring", shards)
		}
		return res
	}
	serial, sharded := run(1), run(3)

	sr, hr := serial.TelemetryRing, sharded.TelemetryRing
	if !reflect.DeepEqual(sr.Fields(), hr.Fields()) {
		t.Fatalf("field sets differ:\nserial:  %v\nsharded: %v", sr.Fields(), hr.Fields())
	}
	if sr.Len() != hr.Len() {
		t.Fatalf("row counts differ: serial %d, sharded %d", sr.Len(), hr.Len())
	}
	if serial.TelemetryRecords != sharded.TelemetryRecords {
		t.Errorf("record counts differ: serial %d, sharded %d",
			serial.TelemetryRecords, sharded.TelemetryRecords)
	}
	events := sr.FieldIndex("sim.events")
	if events < 0 {
		t.Fatal("sim.events column missing")
	}
	for i := 0; i < sr.Len(); i++ {
		st, srow := sr.At(i)
		ht, hrow := hr.At(i)
		if st != ht { //burst:floateq-ok identical tick grids produce identical float timestamps
			t.Fatalf("row %d: tick %v vs %v", i, st, ht)
		}
		for j := range srow {
			if j == events {
				continue
			}
			if srow[j] != hrow[j] { //burst:floateq-ok merged shard columns must be bit-identical to serial
				t.Errorf("row %d, column %s: serial %v, sharded %v",
					i, sr.Fields()[j], srow[j], hrow[j])
			}
		}
	}

	// The export snapshots the last sampled value of every gauge;
	// sim.events again differs by the extra sampler pops, nothing else may.
	se, he := *serial.Telemetry, *sharded.Telemetry
	delete(se.Gauges, "sim.events")
	delete(he.Gauges, "sim.events")
	if !reflect.DeepEqual(se, he) {
		t.Errorf("registry exports differ:\nserial:  %+v\nsharded: %+v", se, he)
	}
}

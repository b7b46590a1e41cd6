package core

import (
	"strings"
	"testing"
	"time"

	"tcpburst/internal/stats"
)

// lotConfig is a parking-lot run of the given counts and duration.
func lotConfig(long, hop1, hop2 int, p Protocol, d time.Duration) Config {
	return Config{
		ParkingLot: &ParkingLot{Long: long, Hop1: hop1, Hop2: hop2},
		Protocol:   p,
		Duration:   d,
	}
}

// runLot runs cfg and fails the test on an error.
func runLot(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Label(), err)
	}
	return res
}

func TestChainValidation(t *testing.T) {
	short := lotConfig(2, 1, 1, Reno, time.Second)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string // "" when the config must run
	}{
		{"no long clients", func(c *Config) { c.ParkingLot = &ParkingLot{Hop1: 2} }, "long clients 0 < 1"},
		{"negative cross traffic", func(c *Config) { c.ParkingLot = &ParkingLot{Long: 2, Hop1: -1} }, "hop clients"},
		{"clients mismatch", func(c *Config) { c.Clients = 5 }, "totals 4 clients but Clients = 5"},
		// Fields the parking lot cannot honor are rejected by name.
		{"Backend", func(c *Config) { c.Backend = FluidBackend }, "Backend is not supported"},
		{"Mix", func(c *Config) { c.Mix = []MixEntry{{Protocol: Reno, Clients: 4}} }, "Mix is not supported"},
		{"WireLossProb", func(c *Config) { c.WireLossProb = 0.01 }, "WireLossProb is not supported"},
		{"ReverseRateBps", func(c *Config) { c.ReverseRateBps = 1e6 }, "ReverseRateBps is not supported"},
		{"ReverseBufferPackets", func(c *Config) { c.ReverseBufferPackets = 8 }, "ReverseBufferPackets is not supported"},
		{"TelemetryInterval", func(c *Config) { c.TelemetryInterval = 100 * time.Millisecond }, "TelemetryInterval is not supported"},
		// Fields the shared run path carries for every topology run.
		{"Warmup", func(c *Config) { c.Warmup = 200 * time.Millisecond }, ""},
		{"ClientDelayJitter", func(c *Config) { c.ClientDelayJitter = time.Millisecond }, ""},
		{"tracing", func(c *Config) {
			c.CwndSampleInterval = 100 * time.Millisecond
			c.TraceClients = []int{1, 4}
			c.TraceQueue = true
		}, ""},
		{"PacketLogCapacity", func(c *Config) { c.PacketLogCapacity = 10 }, ""},
		// Any shard count up to one per client runs; beyond that is
		// rejected.
		{"3 shards", func(c *Config) { c.Shards = 3 }, ""},
		{"4 shards", func(c *Config) { c.Shards = 4 }, ""},
		{"4 shards for 1 client", func(c *Config) { c.ParkingLot = &ParkingLot{Long: 1}; c.Shards = 4 }, "hosts"},
	} {
		cfg := short
		tc.mut(&cfg)
		res, err := Run(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		case tc.want == "" && len(res.Groups) != 3:
			t.Errorf("%s: %d groups, want 3", tc.name, len(res.Groups))
		}
		if tc.name == "tracing" && err == nil && (len(res.CwndTraces) != 2 || res.QueueTrace == nil) {
			t.Errorf("tracing: %d cwnd traces and queue trace %v, want 2 and one", len(res.CwndTraces), res.QueueTrace)
		}
		if tc.name == "PacketLogCapacity" && err == nil && res.PacketLog == nil {
			t.Error("PacketLogCapacity: no packet log")
		}
	}
}

func TestChainUncongestedDeliversEverything(t *testing.T) {
	res := runLot(t, lotConfig(4, 4, 4, Reno, 20*time.Second))
	for i, name := range []string{"long", "hop1", "hop2"} {
		g := res.Groups[i]
		if g.Clients != 4 {
			t.Errorf("%s has %d clients, want 4", name, g.Clients)
		}
		if g.Generated == 0 {
			t.Fatalf("%s generated nothing", name)
		}
		// Uncongested: nearly everything delivered (residue in flight).
		if g.Delivered < g.Generated*95/100 {
			t.Errorf("%s delivered %d of %d", name, g.Delivered, g.Generated)
		}
		if g.Timeouts != 0 {
			t.Errorf("%s timeouts = %d on an uncongested chain", name, g.Timeouts)
		}
	}
	if d1, d2 := res.Bottlenecks[0].Drops, res.Bottlenecks[1].Drops; d1 != 0 || d2 != 0 {
		t.Errorf("drops = %d/%d on an uncongested chain", d1, d2)
	}
}

func TestChainLongFlowsDisadvantaged(t *testing.T) {
	// The classic parking-lot outcome: flows crossing both congested
	// bottlenecks receive less than equal-count single-hop competitors
	// on the shared hop.
	res := runLot(t, lotConfig(20, 20, 20, Reno, 40*time.Second))
	if res.Bottlenecks[0].Drops == 0 && res.Bottlenecks[1].Drops == 0 {
		t.Fatal("no congestion anywhere; test regime wrong")
	}
	long, hop2 := res.Groups[0].Delivered, res.Groups[2].Delivered
	if share := float64(long) / float64(long+hop2); share >= 0.5 {
		t.Errorf("long flows took %.3f of hop 2; multi-bottleneck flows should get less than half", share)
	}
	if long >= hop2 {
		t.Errorf("long delivered %d >= hop2-only %d", long, hop2)
	}
}

// TestChainBothBottlenecksMeasured checks that each bottleneck is
// measured and that the first one, and the groups' totals, feed the
// top-level fields exactly as the dumbbell's only bottleneck does.
func TestChainBothBottlenecksMeasured(t *testing.T) {
	res := runLot(t, lotConfig(15, 25, 25, Reno, 30*time.Second))
	if len(res.Bottlenecks) != 2 {
		t.Fatalf("%d bottlenecks, want 2", len(res.Bottlenecks))
	}
	if c1, c2 := res.Bottlenecks[0].COV, res.Bottlenecks[1].COV; c1 <= 0 || c2 <= 0 {
		t.Errorf("cov measurements missing: %.4f / %.4f", c1, c2)
	}
	if res.COV != res.Bottlenecks[0].COV || res.BottleneckDrops != res.Bottlenecks[0].Drops {
		t.Errorf("top level cov %v drops %d, want bottleneck 0's %+v", res.COV, res.BottleneckDrops, res.Bottlenecks[0])
	}
	if want := res.Bottlenecks[0].Drops + res.Bottlenecks[1].Drops; res.ForwardDrops < want {
		t.Errorf("forward drops %d < bottleneck drops %d", res.ForwardDrops, want)
	}
	var generated, delivered uint64
	for _, g := range res.Groups {
		generated += g.Generated
		delivered += g.Delivered
	}
	if generated != res.Generated || delivered != res.Delivered {
		t.Errorf("groups total %d/%d, run %d/%d", generated, delivered, res.Generated, res.Delivered)
	}
}

func TestChainDeterministic(t *testing.T) {
	cfg := lotConfig(5, 5, 5, Vegas, 10*time.Second)
	a, b := runLot(t, cfg), runLot(t, cfg)
	sa, err := a.MarshalSummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.MarshalSummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(sa) != string(sb) {
		t.Errorf("identical chain configs produced different results:\n%s\n%s", sa, sb)
	}
}

func TestChainWithREDAndDRR(t *testing.T) {
	for _, q := range []GatewayQueue{RED, DRR} {
		cfg := lotConfig(15, 20, 20, Reno, 20*time.Second)
		cfg.Gateway = q
		res := runLot(t, cfg)
		if res.Groups[0].Delivered == 0 || res.Groups[1].Delivered == 0 {
			t.Errorf("%v: no delivery", q)
		}
	}
}

// TestChainAnalyticCOVCountsFirstHop pins the Poisson reference of a lot
// to the clients that cross its first bottleneck: hop 1 carries the long
// and hop-1 clients, not the hop-2 ones, so N is Long+Hop1, and the
// dumbbell's one bottleneck carries every client.
func TestChainAnalyticCOVCountsFirstHop(t *testing.T) {
	cfg := lotConfig(4, 3, 5, Reno, time.Second).WithDefaults()
	res := runLot(t, cfg)
	window := 2 * (2*cfg.ClientDelay + 2*cfg.BottleneckDelay)
	if want := stats.PoissonAggregateCOV(4+3, cfg.Lambda(), window.Seconds()); res.AnalyticCOV != want {
		t.Errorf("lot AnalyticCOV = %v, want %v (N = long + hop1 = 7)", res.AnalyticCOV, want)
	}
	lot := parkingLot(cfg)
	for i, want := range map[int]int{0: 7, 1: 9} {
		if got := lot.clientsThrough(i); got != want {
			t.Errorf("clients through %s = %d, want %d", lot.links[i].name, got, want)
		}
	}
	bell := dumbbell(DefaultConfig(12, Reno, FIFO).WithDefaults())
	if got := bell.clientsThrough(bell.firstBottleneck()); got != 12 {
		t.Errorf("clients through the dumbbell bottleneck = %d, want 12", got)
	}
}

package core

import (
	"context"
	"fmt"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
)

// The parking-lot topology generalizes the paper's single gateway to a
// two-hop distributed system — the multi-bottleneck shape of computational
// grids the paper's introduction motivates:
//
//	long clients ──► gw1 ══hop1══► gw2 ══hop2══► server
//	hop1 clients ──► gw1 ══hop1══► exit1 (host at gw2)
//	hop2 clients ────────────────► gw2 ══hop2══► server
//
// Long flows cross both bottlenecks and compete with single-hop cross
// traffic on each; the classic outcome is that multi-hop flows receive
// less than their single-hop competitors.

// ChainConfig describes one parking-lot experiment. Zero-valued tunables
// inherit the paper's Table-1 defaults.
type ChainConfig struct {
	// LongClients cross both hops; Hop1Clients and Hop2Clients cross
	// only their own bottleneck.
	LongClients, Hop1Clients, Hop2Clients int
	// Protocol is the transport for every client.
	Protocol Protocol
	// Seed and Duration as in Config.
	Seed     int64
	Duration sim.Duration
	// Base supplies link rates, delays, buffer sizes, packet sizes,
	// transport and traffic parameters, and the discipline at both
	// bottlenecks (Base.Queue or Base.Gateway; fifo when neither is set).
	// Base.Clients and Base.Protocol are ignored.
	// Dumbbell-only fields the parking lot cannot honor — Mix, jitter,
	// wire loss, the reverse-path overrides, warm-up, tracing, the packet
	// log and telemetry — are rejected by name rather than ignored.
	Base Config
	// Shards runs the topology across this many schedulers (0 or 1:
	// serial), placed by the topology compiler's rule (DESIGN.md §11): at
	// 2, gw1 and its attached clients against everything downstream; from
	// 3 on, the clients spread over the shards beyond the two gateways'.
	// At most one shard per host (clients plus the server and exit1).
	// Inherits Base.Shards when zero. Sharded runs are bit-identical to
	// serial ones (the chain golden digests are replayed at 2 and 4
	// shards), so like Config.Shards the field is excluded from JSON and
	// cache keys.
	Shards int `json:"-"`
}

// withDefaults fills the embedded base config.
func (c ChainConfig) withDefaults() ChainConfig {
	if c.Protocol == 0 {
		c.Protocol = Reno
	}
	c.Base.Protocol = c.Protocol
	c.Base = c.Base.WithDefaults()
	if c.Seed == 0 {
		c.Seed = c.Base.Seed
	}
	if c.Duration == 0 {
		c.Duration = c.Base.Duration
	}
	if c.Shards == 0 {
		c.Shards = c.Base.Shards
	}
	// The chain validates its own shard count against its own topology;
	// the dumbbell rules in Base.Validate do not apply.
	c.Base.Shards = 0
	return c
}

// validate reports the first configuration error.
func (c ChainConfig) validate() error {
	hosts := c.LongClients + c.Hop1Clients + c.Hop2Clients + 2
	switch {
	case c.LongClients < 1:
		return fmt.Errorf("chain: long clients %d < 1", c.LongClients)
	case c.Hop1Clients < 0 || c.Hop2Clients < 0:
		return fmt.Errorf("chain: negative cross-traffic counts")
	case c.Duration <= 0:
		return fmt.Errorf("chain: duration %v <= 0", c.Duration)
	case c.Shards < 0:
		return fmt.Errorf("chain: shards %d < 0", c.Shards)
	case c.Shards > hosts:
		return fmt.Errorf("chain: shards %d > %d hosts; use at most one shard per host", c.Shards, hosts)
	}
	b := c.Base
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Backend", b.Backend != PacketBackend},
		{"Mix", len(b.Mix) > 0},
		{"Warmup", b.Warmup != 0},
		{"ClientDelayJitter", b.ClientDelayJitter != 0},
		{"WireLossProb", b.WireLossProb > 0},
		{"ReverseRateBps", b.ReverseRateBps > 0},
		{"ReverseBufferPackets", b.ReverseBufferPackets != 0},
		{"CwndSampleInterval", b.CwndSampleInterval != 0},
		{"TraceClients", len(b.TraceClients) > 0},
		{"TraceQueue", b.TraceQueue},
		{"PacketLogCapacity", b.PacketLogCapacity != 0},
		{"TelemetryInterval", b.TelemetryInterval != 0},
	} {
		if f.set {
			return fmt.Errorf("chain: Base.%s is not supported by the parking lot", f.name)
		}
	}
	// The base rules apply with the chain's own client count (withDefaults
	// moved the shard count out of Base; it was checked above).
	b.Clients = hosts - 2
	return b.Validate()
}

// ChainGroupResult aggregates one client group's outcome.
type ChainGroupResult struct {
	Clients   int
	Generated uint64
	Delivered uint64
	Timeouts  uint64
	// PerFlowJain is Jain's index within the group.
	PerFlowJain float64
}

// ChainResult is the outcome of a parking-lot experiment.
type ChainResult struct {
	// SchemaVersion stamps the serialized encoding (SummarySchemaVersion);
	// the run cache rejects entries stored under a different version.
	SchemaVersion int `json:"schemaVersion,omitempty"`

	Config ChainConfig

	Long, Hop1, Hop2 ChainGroupResult

	// COVHop1 and COVHop2 are the per-RTT-window arrival c.o.v. at each
	// bottleneck.
	COVHop1, COVHop2 float64
	// DropsHop1 and DropsHop2 count bottleneck-queue drops per hop.
	DropsHop1, DropsHop2 uint64
	// LongShareHop2 is the long flows' fraction of hop-2 deliveries —
	// the multi-bottleneck fairness headline.
	LongShareHop2 float64
	// SimEvents counts the kernel events executed — run telemetry.
	SimEvents uint64
}

// RunParkingLot executes the two-hop experiment.
func RunParkingLot(cfg ChainConfig) (*ChainResult, error) {
	return RunParkingLotContext(context.Background(), cfg)
}

// RunParkingLotContext is RunParkingLot with cancellation, polled from
// inside the event loop exactly as in RunContext.
func RunParkingLotContext(ctx context.Context, cfg ChainConfig) (*ChainResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n, err := buildTopology(cfg.topology())
	if err != nil {
		return nil, err
	}
	hop1, hop2 := n.links[0], n.links[1]

	// Measurement taps at both bottlenecks.
	base := cfg.Base
	rttWindow := 2 * (2*base.ClientDelay + 2*base.BottleneckDelay)
	wc1, err := stats.NewWindowCounter(rttWindow)
	if err != nil {
		return nil, err
	}
	wc2, err := stats.NewWindowCounter(rttWindow)
	if err != nil {
		return nil, err
	}
	wc1.Open(sim.TimeZero)
	wc2.Open(sim.TimeZero)
	hop1.OnArrival(func(now sim.Time, p *packet.Packet) {
		if p.IsData() {
			wc1.Observe(now)
		}
	})
	hop2.OnArrival(func(now sim.Time, p *packet.Packet) {
		if p.IsData() {
			wc2.Observe(now)
		}
	})

	for _, f := range n.flows {
		f.gen.Start()
	}
	horizon := sim.TimeZero.Add(cfg.Duration)
	if err := n.run(ctx, horizon); err != nil {
		return nil, err
	}

	res := &ChainResult{SchemaVersion: SummarySchemaVersion, Config: cfg}
	res.SimEvents, _ = n.settle(horizon)
	long, rest := n.flows[:cfg.LongClients], n.flows[cfg.LongClients:]
	res.Long = summarizeChainGroup(long)
	res.Hop1 = summarizeChainGroup(rest[:cfg.Hop1Clients])
	res.Hop2 = summarizeChainGroup(rest[cfg.Hop1Clients:])
	c1 := stats.Summarize(wc1.Close(horizon))
	c2 := stats.Summarize(wc2.Close(horizon))
	res.COVHop1, res.COVHop2 = c1.COV(), c2.COV()
	res.DropsHop1 = hop1.Stats().Drops
	res.DropsHop2 = hop2.Stats().Drops
	if total := res.Long.Delivered + res.Hop2.Delivered; total > 0 {
		res.LongShareHop2 = float64(res.Long.Delivered) / float64(total)
	}
	return res, nil
}

// topology describes the parking lot. Both bottlenecks run the configured
// discipline on their own fork of the root stream (1<<23 and 1<<24); the
// long, hop-1 and hop-2 groups draw traffic streams from 1000, 2000 and
// 3000. The reverse path and the hop-1 exit are amply provisioned.
func (c ChainConfig) topology() topology {
	b := c.Base
	b.Seed, b.Duration, b.Shards = c.Seed, c.Duration, c.Shards
	const (
		gw1, gw2      = 0, 1
		server, exit1 = 0, 1
	)
	fixed := func(name string, from, to nodeRef) topoLink {
		return topoLink{name: name, from: from, to: to, rateBps: b.BottleneckRateBps,
			delay: b.BottleneckDelay, buffer: b.AccessBufferPackets}
	}
	hop1 := fixed("gw1->gw2", gatewayRef(gw1), gatewayRef(gw2))
	hop1.bottleneck, hop1.queueStream = true, 1<<23
	hop2 := fixed("gw2->server", gatewayRef(gw2), hostRef(server))
	hop2.bottleneck, hop2.queueStream = true, 1<<24
	toExit1 := fixed("gw2->exit1", gatewayRef(gw2), hostRef(exit1))
	toExit1.rateBps, toExit1.delay = b.ClientRateBps, b.ClientDelay
	return topology{
		cfg:      b,
		hosts:    2,
		gateways: 2,
		links: []topoLink{
			hop1,
			hop2,
			fixed("server->gw2", hostRef(server), gatewayRef(gw2)),
			fixed("gw2->gw1", gatewayRef(gw2), gatewayRef(gw1)),
			fixed("exit1->gw2", hostRef(exit1), gatewayRef(gw2)),
			toExit1,
		},
		groups: []topoGroup{
			{clients: c.LongClients, proto: c.Protocol, attach: gw1, dst: server, stream: 1000},
			{clients: c.Hop1Clients, proto: c.Protocol, attach: gw1, dst: exit1, stream: 2000},
			{clients: c.Hop2Clients, proto: c.Protocol, attach: gw2, dst: server, stream: 3000},
		},
	}
}

func summarizeChainGroup(flows []*flow) ChainGroupResult {
	g := ChainGroupResult{Clients: len(flows)}
	delivered := make([]float64, 0, len(flows))
	for _, f := range flows {
		g.Generated += f.gen.Generated()
		g.Delivered += f.delivered()
		g.Timeouts += f.counters().Timeouts
		delivered = append(delivered, float64(f.delivered()))
	}
	g.PerFlowJain = stats.JainIndex(delivered)
	return g
}

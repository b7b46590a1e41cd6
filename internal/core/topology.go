package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"tcpburst/internal/link"
	"tcpburst/internal/node"
	"tcpburst/internal/packet"
	"tcpburst/internal/queue"
	"tcpburst/internal/shard"
	"tcpburst/internal/sim"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/traffic"
	"tcpburst/internal/transport"
)

// Topologies are data. Config.ParkingLot selects a description, the
// paper's dumbbell or the two-gateway parking lot, and buildTopology
// compiles it into schedulers, pools, links, routes and transport
// endpoints; RunContext then measures every topology with the same taps.
// The compiler alone owns the rules that keep a sharded run bit-identical
// to the serial one (DESIGN.md §11): placement, lookahead, lane and RNG
// fork order, cross-shard delivery hooks, the overprovisioning proofs
// behind serialization pipelining, and FinishVirtual settlement over every
// link.

// nodeRef names a sink host or a gateway of a topology.
type nodeRef struct {
	gateway bool
	index   int
}

func hostRef(i int) nodeRef    { return nodeRef{index: i} }
func gatewayRef(i int) nodeRef { return nodeRef{gateway: true, index: i} }

// topoLink is a fixed link: any link but a client's access pair, which the
// compiler derives from the client groups.
type topoLink struct {
	name     string
	from, to nodeRef
	rateBps  float64
	delay    sim.Duration
	// buffer sizes the link's FIFO. A bottleneck link runs the configured
	// gateway discipline and publishes the gateway telemetry instead.
	buffer     int
	bottleneck bool
	// queueStream, when nonzero, is the root-stream fork the bottleneck
	// discipline draws from; zero hands it the root stream itself.
	queueStream int64
	// lossProb, when positive, loses packets on the wire with coin flips
	// from root stream 1<<21.
	lossProb float64
}

// topoGroup is a block of clients that share a protocol, attach to one
// gateway and send to one sink host. Its client c draws its traffic from
// root stream stream+c.
type topoGroup struct {
	clients int
	proto   Protocol
	attach  int // gateway index
	dst     int // sink host index
	stream  int64
}

// topology describes a network. Every sink host has one link in, from the
// gateway that serves it, and one link out, which carries its sinks'
// acknowledgments. Sink host h has address 1+h and clients follow densely
// in group order, so routing tables stay indexed slices; client j
// (0-based across groups) sends flow j+1. A gateway reaches a node it does
// not serve over its direct link to the gateway that does.
//
// sim.RNG.Fork consumes a parent draw, so fork order is part of the digest
// contract. The root stream (cfg.Seed) forks in this order: each link's
// discipline stream, then its loss stream, in link order; the access-delay
// jitter stream 1<<22 when cfg.ClientDelayJitter is positive; then every
// client's traffic stream in group order. Lanes are drawn in the same
// order: the links, then each client's access and reverse link.
type topology struct {
	// cfg supplies the client links (rate, delay, jitter, buffer), the
	// transport and traffic parameters, the gateway discipline, the shard
	// count and the debug knobs.
	cfg      Config
	hosts    int
	gateways int
	// links lists the fixed links. The first bottleneck among them leaves
	// gateway 0: its shard holds the queue probe and the watchdog.
	links  []topoLink
	groups []topoGroup
	// window bins the data arrivals at every bottleneck for the c.o.v.
	window sim.Duration
}

// dumbbell describes the paper's Figure 1: N clients on one gateway,
// sending over the bottleneck to one server. Mix blocks become client
// groups; client i always draws traffic stream i+1. The c.o.v. window is
// the round-trip propagation delay.
func dumbbell(cfg Config) topology {
	// The reverse bottleneck carries the acknowledgments. The paper keeps
	// it uncongested, but its rate and buffer are overridable for
	// ACK-compression studies.
	reverseRate := cfg.BottleneckRateBps
	if cfg.ReverseRateBps > 0 {
		reverseRate = cfg.ReverseRateBps
	}
	reverseBuf := cfg.AccessBufferPackets
	if cfg.ReverseBufferPackets > 0 {
		reverseBuf = cfg.ReverseBufferPackets
	}
	server, gateway := hostRef(0), gatewayRef(0)
	t := topology{
		cfg:      cfg,
		hosts:    1,
		gateways: 1,
		links: []topoLink{
			{name: "gw->server", from: gateway, to: server, rateBps: cfg.BottleneckRateBps,
				delay: cfg.BottleneckDelay, bottleneck: true, lossProb: cfg.WireLossProb},
			{name: "server->gw", from: server, to: gateway, rateBps: reverseRate,
				delay: cfg.BottleneckDelay, buffer: reverseBuf},
		},
		window: cfg.RTT(),
	}
	mix := cfg.Mix
	if len(mix) == 0 {
		mix = []MixEntry{{Protocol: cfg.Protocol, Clients: cfg.Clients}}
	}
	stream := int64(1)
	for _, m := range mix {
		t.groups = append(t.groups, topoGroup{clients: m.Clients, proto: m.Protocol, stream: stream})
		stream += int64(m.Clients)
	}
	return t
}

// parkingLot generalizes the paper's single gateway to a two-hop
// distributed system, the multi-bottleneck shape of the computational
// grids the paper's introduction motivates:
//
//	long clients ──► gw1 ══hop1══► gw2 ══hop2══► server
//	hop1 clients ──► gw1 ══hop1══► exit1 (host at gw2)
//	hop2 clients ────────────────► gw2 ══hop2══► server
//
// Long flows cross both bottlenecks and compete with single-hop cross
// traffic on each; the classic outcome is that multi-hop flows receive
// less than their single-hop competitors. Both bottlenecks run the
// configured discipline on their own fork of the root stream (1<<23 and
// 1<<24); the long, hop-1 and hop-2 groups draw traffic streams from 1000,
// 2000 and 3000. The reverse path and the hop-1 exit are amply
// provisioned. The c.o.v. window is 2·(2τc+2τs).
func parkingLot(cfg Config) topology {
	const (
		gw1, gw2      = 0, 1
		server, exit1 = 0, 1
	)
	fixed := func(name string, from, to nodeRef) topoLink {
		return topoLink{name: name, from: from, to: to, rateBps: cfg.BottleneckRateBps,
			delay: cfg.BottleneckDelay, buffer: cfg.AccessBufferPackets}
	}
	hop1 := fixed("gw1->gw2", gatewayRef(gw1), gatewayRef(gw2))
	hop1.bottleneck, hop1.queueStream = true, 1<<23
	hop2 := fixed("gw2->server", gatewayRef(gw2), hostRef(server))
	hop2.bottleneck, hop2.queueStream = true, 1<<24
	toExit1 := fixed("gw2->exit1", gatewayRef(gw2), hostRef(exit1))
	toExit1.rateBps, toExit1.delay = cfg.ClientRateBps, cfg.ClientDelay
	lot, p := cfg.ParkingLot, cfg.Protocol
	return topology{
		cfg:      cfg,
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
			{clients: lot.Long, proto: p, attach: gw1, dst: server, stream: 1000},
			{clients: lot.Hop1, proto: p, attach: gw1, dst: exit1, stream: 2000},
			{clients: lot.Hop2, proto: p, attach: gw2, dst: server, stream: 3000},
		},
		window: 2 * (2*cfg.ClientDelay + 2*cfg.BottleneckDelay),
	}
}

// firstBottleneck returns the index of the first bottleneck among the
// fixed links.
func (t topology) firstBottleneck() int {
	for i, l := range t.links {
		if l.bottleneck {
			return i
		}
	}
	panic("core: topology without a bottleneck")
}

// clientsThrough counts the clients whose data crosses fixed link i. A
// group's data takes the link into its sink host and, when it attaches
// to a gateway other than the one serving that host, the direct link
// between the two gateways first.
func (t topology) clientsThrough(i int) int {
	via, n := t.links[i], 0
	for _, g := range t.groups {
		attach := gatewayRef(g.attach)
		for k, feed := range t.links {
			if feed.to != hostRef(g.dst) {
				continue
			}
			if k == i || (feed.from != attach && via.from == attach && via.to == feed.from) {
				n += g.clients
			}
		}
	}
	return n
}

// placement maps a topology onto shards.
type placement struct {
	k      int
	gw     []int // shard of each gateway
	host   []int // shard of each sink host
	groups []topoGroup
	// clients counts the clients across all groups.
	clients int
}

// buildPlacement applies the one placement rule:
//
//   - gateways take shards 0..G-1 (folded into blocks when K < G);
//   - each sink host shares the shard of the gateway that feeds it;
//   - when K > G, clients fill all K shards in contiguous blocks, gateway
//     shards included; otherwise they stay with their attach gateway.
//
// At K=2 this puts the dumbbell's gateway, server and first half of the
// clients on shard 0 and the other half on shard 1, and cuts the chain
// into gw1 and its clients | gw2, its hosts and the hop-2 clients of the
// parking lot.
// Links live on the shard of their source node, except a client's reverse
// link, which lives with the client; so deliveries cross shards only into
// gateways.
func buildPlacement(t topology) placement {
	p := placement{
		k:      max(t.cfg.Shards, 1),
		gw:     make([]int, t.gateways),
		host:   make([]int, t.hosts),
		groups: t.groups,
	}
	for g := range p.gw {
		p.gw[g] = g * min(p.k, t.gateways) / t.gateways
	}
	for _, l := range t.links {
		if !l.to.gateway {
			p.host[l.to.index] = p.gw[l.from.index]
		}
	}
	for _, g := range t.groups {
		p.clients += g.clients
	}
	return p
}

// attach returns the gateway client j (0-based across groups) attaches to.
func (p placement) attach(j int) int {
	for _, g := range p.groups {
		if j < g.clients {
			return g.attach
		}
		j -= g.clients
	}
	panic(fmt.Sprintf("core: client %d outside the topology", j))
}

// client returns the shard of client j.
func (p placement) client(j int) int {
	if p.k > len(p.gw) {
		return j * p.k / p.clients
	}
	return p.gw[p.attach(j)]
}

// egress returns the shard that owns gateway g's egress link toward dst:
// the client's for a client attached at g, else g's own, where its links
// to sink hosts and to other gateways live.
func (p placement) egress(g int, dst packet.Addr) int {
	if j := int(dst) - 1 - len(p.host); j >= 0 && p.attach(j) == g {
		return p.client(j)
	}
	return p.gw[g]
}

// linkSlot is a link with the FIFO and lane it owns, held by value. A
// bottleneck runs the gateway discipline instead and leaves fifo unused.
type linkSlot struct {
	link link.Link
	fifo queue.FIFO
	lane sim.Lane
}

// client is one client's state, held by value in the run arena's client
// block: its host, its access and reverse links with their FIFOs, trains
// and lanes, its TCP sender with the RTO timer, the RNG its traffic draws
// from, and its flow record. Every part of it is written only by the
// client's shard. The traffic source sits in the arena's slab of the
// run's one traffic model (sourceSlab), so a client carries no space for
// a model it does not run; the sinks run on the sink host's shard and
// live in a slab of their own.
type client struct {
	flow            flow
	host            node.Host
	access, reverse linkSlot
	sender          tcp.Sender // unused by a UDP client
	rng             sim.RNG
}

// sourceSlab holds every client's traffic source, in a slab of the model
// the run uses.
type sourceSlab struct {
	poisson []traffic.Poisson
	pareto  []traffic.ParetoOnOff
}

// init builds client j's source per the traffic model, submitting to dst
// and drawing from rng.
func (sl sourceSlab) init(j int, cfg Config, sched *sim.Scheduler, rng *sim.RNG, dst transport.Source, generated telemetry.Counter) (traffic.Generator, error) {
	if sl.pareto != nil {
		// Derive the in-burst interval so the long-run mean rate still
		// equals 1/MeanInterval: rate = dutyCycle / burstInterval.
		duty := float64(cfg.MeanOnTime) / float64(cfg.MeanOnTime+cfg.MeanOffTime)
		burstInterval := sim.Duration(float64(cfg.MeanInterval) * duty)
		if burstInterval < 1 {
			burstInterval = 1
		}
		g := &sl.pareto[j]
		return g, traffic.InitParetoOnOff(g, traffic.ParetoOnOffConfig{
			PacketInterval: burstInterval,
			MeanOn:         cfg.MeanOnTime,
			MeanOff:        cfg.MeanOffTime,
			Shape:          cfg.ParetoShape,
			Dst:            dst,
			Sched:          sched,
			RNG:            rng,
			Generated:      generated,
		})
	}
	g := &sl.poisson[j]
	return g, traffic.InitPoisson(g, traffic.PoissonConfig{
		MeanInterval: cfg.MeanInterval,
		Dst:          dst,
		Sched:        sched,
		RNG:          rng,
		Generated:    generated,
	})
}

// network is a compiled topology, ready to run, laid out in an arena it
// holds until release.
type network struct {
	top    topology
	arena  *arena // nil once released
	place  placement
	scheds []*sim.Scheduler
	pools  []*packet.Pool
	tels   []*telem
	group  *shard.Group // nil when serial
	// lookahead is the barrier window: the minimum delay over the links
	// whose deliveries cross shards; zero when serial.
	lookahead sim.Duration
	links     []*link.Link // the fixed links, in description order
	// bottlenecks are the links flagged bottleneck, in description order.
	bottlenecks []*link.Link
	fixed       []linkSlot // the slots n.links live in
	flows       []*flow    // the clients' flow records, in group order
	clients     []client   // the block the flow records live in
	// rngs are the run's generators outside the client block: the root
	// stream and the discipline, loss and jitter forks.
	rngs []*sim.RNG
}

// buildTopology compiles t into arena a. Nothing is scheduled yet: the
// caller attaches its measurement taps, starts the traffic and calls run,
// or calls measure, which does all of that, and then releases the network.
// On an error a holds a part-built network and is best dropped.
func buildTopology(t topology, a *arena) (*network, error) {
	cfg := t.cfg
	feed, out := make([]int, t.hosts), make([]int, t.hosts)
	toward := make(map[[2]int]int) // gateway pair -> index of the link between them
	for i, l := range t.links {
		switch {
		case !l.to.gateway:
			feed[l.to.index] = i
		case !l.from.gateway:
			out[l.from.index] = i
		default:
			toward[[2]int{l.from.index, l.to.index}] = i
		}
	}
	place := buildPlacement(t)
	k := place.k
	n := &network{
		top:    t,
		arena:  a,
		place:  place,
		scheds: a.schedulers(k),
		pools:  a.packetPools(k),
		tels:   make([]*telem, k),
		links:  make([]*link.Link, len(t.links)),
		fixed:  take(&a.fixed, len(t.links)),
		flows:  take(&a.flows, place.clients),
	}
	for s := 0; s < k; s++ {
		n.tels[s] = newTelem(cfg)
	}
	attached, fanIn := make([]bool, t.gateways), make([]int, t.hosts)
	for _, grp := range t.groups {
		attached[grp.attach] = attached[grp.attach] || grp.clients > 0
		fanIn[grp.dst] += grp.clients
	}
	// The hosts and gateways come from the arena, their dispatch and
	// routing tables sized for every flow and address up front.
	hosts := take(&a.hosts, t.hosts)
	for h := range hosts {
		node.InitHost(&hosts[h], packet.Addr(1+h))
		hosts[h].SetPool(n.pools[place.host[h]])
		hosts[h].Reserve(fanIn[h])
	}
	gateways := take(&a.gateways, t.gateways)
	for g := range gateways {
		node.InitGateway(&gateways[g], packet.Addr(g))
		gateways[g].SetPool(n.pools[place.gw[g]])
		gateways[g].Reserve(1 + t.hosts + place.clients)
	}

	// xdeliver returns the XDeliver hook of a link on shard src into
	// gateway g, with delay d, or nil when local is set. The delivery runs
	// on the shard that owns the gateway's egress link for p.Dst, so
	// gateway.Receive always dispatches onto a local link. A link needs the
	// hook unless every such egress is on src; it then hands each delivery
	// to the barrier, possibly back to its own shard, which is why its
	// delay joins the lookahead either way.
	lookahead := cfg.Duration
	hooks := make(map[[2]int]func(sim.Time, uint64, *packet.Packet))
	xdeliver := func(local bool, src, g int, d sim.Duration) func(sim.Time, uint64, *packet.Packet) {
		if local {
			return nil
		}
		lookahead = min(lookahead, d)
		key := [2]int{src, g}
		if hooks[key] == nil {
			c := &crossing{n: n, src: src, g: g, gw: &gateways[g]}
			c.deliver = c.receive
			hooks[key] = c.hand
		}
		return hooks[key]
	}
	// route makes dst, served by gateway serve over its link in, reachable
	// from every gateway.
	route := func(dst packet.Addr, serve int, in *link.Link) error {
		for g := range gateways {
			via := in
			if g != serve {
				i, ok := toward[[2]int{g, serve}]
				if !ok {
					continue
				}
				via = n.links[i]
			}
			if err := gateways[g].AddRoute(dst, via); err != nil {
				return err
			}
		}
		return nil
	}

	rng := sim.NewRNG(cfg.Seed)
	n.rngs = append(n.rngs, rng)
	fork := func(g *sim.RNG, stream int64) *sim.RNG {
		child := g.Fork(stream)
		n.rngs = append(n.rngs, child)
		return child
	}
	var lanes sim.Lanes
	// initLink wires tl into ls on the shared block p, queueing in q or,
	// when q is nil, in the slot's FIFO, and delivering to dst (through xd
	// when it crosses shards).
	initLink := func(ls *linkSlot, p *link.Params, tl topoLink, q queue.Discipline, dst link.Receiver, xd func(sim.Time, uint64, *packet.Packet)) error {
		if q == nil {
			queue.InitFIFO(&ls.fifo, tl.buffer)
			q = &ls.fifo
		}
		lanes.NextInto(&ls.lane)
		return link.Init(&ls.link, p, link.Wiring{
			Name:     tl.name,
			Delay:    tl.delay,
			Queue:    q,
			Dst:      dst,
			Lane:     &ls.lane,
			XDeliver: xd,
		})
	}

	fixed := n.fixed
	for i, tl := range t.links {
		s, proof := place.gw[tl.from.index], false
		if !tl.from.gateway {
			s, proof = place.host[tl.from.index], buildAckProof(t, tl, t.links[feed[tl.from.index]])
		}
		var dst link.Receiver
		var xd func(sim.Time, uint64, *packet.Packet)
		if g := tl.to.index; tl.to.gateway {
			// A fixed link into g carries packets for any node, so it stays
			// local only when g and every client attached there share s.
			local := s == place.gw[g] && (k <= t.gateways || !attached[g])
			dst, xd = &gateways[g], xdeliver(local, s, g, tl.delay)
		} else {
			dst = &hosts[tl.to.index]
		}
		// Every fixed link has a block of its own. A bottleneck runs the
		// gateway discipline and publishes the gateway telemetry.
		lp := link.Params{
			RateBps:         tl.rateBps,
			Pool:            n.pools[s],
			DisableBatching: cfg.DisableBatching,
			Overprovisioned: proof,
		}
		var q queue.Discipline
		if tl.bottleneck {
			qrng := rng
			if tl.queueStream != 0 {
				qrng = fork(rng, tl.queueStream)
			}
			// A discipline that draws randomness forks the queue stream
			// (1<<20) at this point in the build sequence; the others
			// never call the closure, so no downstream stream shifts.
			var err error
			qfork := func() *sim.RNG { return fork(qrng, 1<<20) }
			if q, err = cfg.buildQueue(qfork, n.tels[s].aqm); err != nil {
				return nil, err
			}
			if drr, ok := q.(*queue.DRR); ok {
				// Longest-queue eviction consumes the displaced packet
				// inside the discipline; reclaim it there.
				drr.OnEvict(n.pools[s].Put)
			}
			lp.Metrics = n.tels[s].link
		}
		if tl.lossProb > 0 {
			lp.LossProb, lp.LossRNG = tl.lossProb, fork(rng, 1<<21)
		}
		p, err := link.NewParams(n.scheds[s], lp)
		if err != nil {
			return nil, fmt.Errorf("link %q: %w", tl.name, err)
		}
		if err := initLink(&fixed[i], p, tl, q, dst, xd); err != nil {
			return nil, err
		}
		n.links[i] = &fixed[i].link
		if tl.bottleneck {
			n.bottlenecks = append(n.bottlenecks, n.links[i])
		}
	}
	for h, l := range feed {
		if err := route(packet.Addr(1+h), t.links[l].from.index, n.links[l]); err != nil {
			return nil, err
		}
	}

	// Heterogeneous-RTT extension: draw per-client access delays from a
	// dedicated stream so enabling jitter does not perturb the traffic
	// streams.
	var jitter *sim.RNG
	if cfg.ClientDelayJitter > 0 {
		jitter = fork(rng, 1<<22)
	}
	// One block holds every client, one slab each the TCP sinks, the UDP
	// senders and sinks and the traffic sources, all from the arena. Each
	// client is built into them in the order the digest contract fixes:
	// its two lanes, then its traffic fork.
	tcpClients := 0
	for _, grp := range t.groups {
		if grp.proto.IsTCP() {
			tcpClients += grp.clients
		}
	}
	udpClients := place.clients - tcpClients
	clients := take(&a.clients, place.clients)
	n.clients = clients
	sinks := take(&a.sinks, tcpClients)[:0]
	udpSends := take(&a.udpSends, udpClients)[:0]
	udpSinks := take(&a.udpSinks, udpClients)[:0]
	sources := a.sources(cfg, place.clients)
	j := 0
	for _, grp := range t.groups {
		srv, ss := &hosts[grp.dst], place.host[grp.dst]
		// A TCP client's access and reverse queues can never fill when the
		// buffer dwarfs the window: in-network packets of one flow are
		// bounded by a window of originals plus a window of go-back-N
		// retransmission copies, so capacity ≥ 2·MaxWindow guarantees
		// drop-free operation and unlocks the link layer's serialization
		// pipelining. UDP clients are open-loop — nothing bounds their
		// backlog — so their links keep the per-event path.
		overprov := grp.proto.IsTCP() && cfg.AccessBufferPackets >= 2*cfg.MaxWindow
		// The group's clients on one shard share one block for their
		// access and reverse links and one for their TCP senders; its
		// sinks, all on the sink host's shard, share one more.
		pair, senders := make([]*link.Params, k), make([]*tcp.Params, k)
		var sinkParams *tcp.Params
		if grp.proto.IsTCP() && grp.clients > 0 {
			var err error
			if sinkParams, err = newTCPParams(cfg, grp.proto, n, ss); err != nil {
				return nil, err
			}
		}
		for c := 0; c < grp.clients; c, j = c+1, j+1 {
			cl := &clients[j]
			addr := packet.Addr(1 + t.hosts + j)
			flowID := packet.FlowID(j + 1)
			cs := place.client(j)
			sched, pool, tel := n.scheds[cs], n.pools[cs], n.tels[cs]
			host := &cl.host
			node.InitHost(host, addr)
			host.SetPool(pool)

			if pair[cs] == nil {
				var err error
				pair[cs], err = link.NewParams(sched, link.Params{
					RateBps:         cfg.ClientRateBps,
					Pool:            pool,
					DisableBatching: cfg.DisableBatching,
					Overprovisioned: overprov,
				})
				if err != nil {
					return nil, fmt.Errorf("client links: %w", err)
				}
			}
			delay := cfg.ClientDelay
			if jitter != nil {
				delay += sim.Duration(jitter.Uniform(0, float64(cfg.ClientDelayJitter)))
			}
			toGW, fromGW := clientLinkNames(j + 1)
			tl := topoLink{name: toGW, delay: delay, buffer: cfg.AccessBufferPackets}
			// An access link carries only packets for the group's sink host,
			// whose egress at the gateway lives on the gateway's shard: it
			// crosses exactly when the client sits elsewhere.
			xd := xdeliver(cs == place.gw[grp.attach], cs, grp.attach, delay)
			if err := initLink(&cl.access, pair[cs], tl, nil, &gateways[grp.attach], xd); err != nil {
				return nil, err
			}
			tl.name = fromGW
			if err := initLink(&cl.reverse, pair[cs], tl, nil, host, nil); err != nil {
				return nil, err
			}
			access, reverse := &cl.access.link, &cl.reverse.link
			if err := route(addr, grp.attach, reverse); err != nil {
				return nil, err
			}

			f := &cl.flow
			*f = flow{proto: grp.proto, access: access, reverse: reverse}
			var src transport.Source
			if grp.proto.IsTCP() {
				if senders[cs] == nil {
					var err error
					if senders[cs], err = newTCPParams(cfg, grp.proto, n, cs); err != nil {
						return nil, err
					}
				}
				ends := tcp.Ends{Flow: flowID, Src: addr, Dst: srv.Addr(), Out: access}
				sender := &cl.sender
				if err := tcp.InitSender(sender, senders[cs], ends); err != nil {
					return nil, err
				}
				ends.Out = n.links[out[grp.dst]]
				sinks = sinks[:len(sinks)+1]
				sink := &sinks[len(sinks)-1]
				if err := tcp.InitSink(sink, sinkParams, ends); err != nil {
					return nil, err
				}
				host.Bind(flowID, sender)
				srv.Bind(flowID, sink)
				f.tcpSend, f.tcpSink = sender, sink
				src = sender
			} else {
				udpSends = udpSends[:len(udpSends)+1]
				sender := &udpSends[len(udpSends)-1]
				if err := transport.InitUDPSender(sender, transport.UDPConfig{
					Flow:       flowID,
					Src:        addr,
					Dst:        srv.Addr(),
					PacketSize: cfg.PacketSize,
					Out:        access,
					Sched:      sched,
					Pool:       pool,
				}); err != nil {
					return nil, err
				}
				udpSinks = udpSinks[:len(udpSinks)+1]
				sink := &udpSinks[len(udpSinks)-1]
				transport.InitUDPSink(sink, n.scheds[ss])
				sink.SetPool(n.pools[ss])
				host.Bind(flowID, sender)
				srv.Bind(flowID, sink)
				f.udpSend, f.udpSink = sender, sink
				src = sender
			}

			rng.ForkInto(&cl.rng, grp.stream+int64(c))
			gen, err := sources.init(j, cfg, sched, &cl.rng, src, tel.appGenerated)
			if err != nil {
				return nil, err
			}
			f.gen = gen
			n.flows[j] = f
		}
	}

	if k > 1 {
		if lookahead <= 0 {
			return nil, fmt.Errorf("topology: sharding needs a positive delay on every link that crosses shards, got %v", lookahead)
		}
		n.group, n.lookahead = shard.NewGroup(n.scheds, lookahead), lookahead
	}
	return n, nil
}

// newTCPParams returns the TCP block a group running proto shares on
// shard s.
func newTCPParams(cfg Config, proto Protocol, n *network, s int) (*tcp.Params, error) {
	return tcp.NewParams(tcp.Params{
		Variant:           proto.TCPVariant(),
		PacketSize:        cfg.PacketSize,
		AckSize:           cfg.AckSize,
		MaxWindow:         cfg.MaxWindow,
		MinRTO:            cfg.MinRTO,
		DelayedAcks:       proto == RenoDelayAck,
		DelayedAckTimeout: cfg.DelayedAckTimeout,
		Vegas:             cfg.Vegas,
		Sched:             n.scheds[s],
		Pool:              n.pools[s],
		Metrics:           n.tels[s].tcp,
	})
}

// clientLinkNames returns the names of client i's access and reverse
// links, "client<i>->gw" and "gw->client<i>", as two views of the one
// string "gw->client<i>->gw", so naming a client costs one allocation.
func clientLinkNames(i int) (access, reverse string) {
	var buf [32]byte
	b := append(buf[:0], "gw->client"...)
	b = strconv.AppendInt(b, int64(i), 10)
	both := string(append(b, "->gw"...))
	return both[len("gw->"):], both[:len(both)-len("->gw")]
}

// crossing hands a link's deliveries from shard src into gateway gw (index
// g) to the barrier, bound for the shard that owns the gateway's egress
// link toward p.Dst. Its methods, not closures inside buildTopology, run
// per packet, so profiles attribute the crossings to the run rather than
// to set-up (perfbench counts core.build* as set-up).
type crossing struct {
	n       *network
	src, g  int
	gw      *node.Gateway
	deliver func(any) // receive, bound once
}

func (c *crossing) receive(arg any) { c.gw.Receive(arg.(*packet.Packet)) }

func (c *crossing) hand(at sim.Time, ord uint64, p *packet.Packet) {
	c.n.group.Cross(c.src, c.n.place.egress(c.g, p.Dst), at, ord, c.deliver, p)
}

// buildAckProof derives the overprovisioning proof for l, the link that
// carries a sink host's acknowledgments, whose data arrives over feed. The
// link can never fill when ACKs drain at least as fast as the data that
// clocks them: every data packet reaches the host through feed's single
// serializer, so sink ACKs are spaced at least one data serialization
// apart, and with ACK serialization no slower the queue never holds more
// than a couple of ACKs. Delayed ACKs break the clocking — every flow's
// ACK timer can flush on the same instant — so the guarantee needs
// per-arrival acking from every sink on the host (and a little capacity
// slack for ties at the boundary).
func buildAckProof(t topology, l, feed topoLink) bool {
	if l.buffer < 16 || sim.SerializationDelay(t.cfg.AckSize, l.rateBps) > sim.SerializationDelay(t.cfg.PacketSize, feed.rateBps) {
		return false
	}
	for _, g := range t.groups {
		if g.dst == l.from.index && g.clients > 0 && g.proto == RenoDelayAck {
			return false
		}
	}
	return true
}

// run executes the network to the horizon, serially or across the shard
// group. The context watchdog lives on shard 0, which the group runs on
// the calling goroutine.
func (n *network) run(ctx context.Context, horizon sim.Time) error {
	n.check()
	watchContext(ctx, n.scheds[0])
	var err error
	if n.group != nil {
		err = n.group.Run(horizon)
	} else {
		err = n.scheds[0].Run(horizon)
	}
	if err != nil {
		if errors.Is(err, sim.ErrStopped) && ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("run simulation: %w", err)
	}
	return nil
}

// check panics when n has been released: its blocks then belong to the
// arena's next run. The network's entry points check it; the per-event
// paths do not.
func (n *network) check() {
	if n.arena == nil {
		panic("core: network used after release")
	}
}

// release ends the run and returns its arena, emptied for the next run;
// the network is unusable afterwards. Every RNG stream of the run ends,
// recycling its register. Every packet still in flight goes back to a
// pool, exactly once: those the pending crossing deliveries and the shard
// outboxes carry, and, as each link slot is recycled, those in
// serialization, in trains and in queues, the bottleneck discipline's
// included. Then every scheduler is reset, which drops every pending
// event and its callback, so the arena keeps no packet of this run alive
// but those its pools hold for reuse. The pools' counters stay readable
// until the arena's next run. The caller calls it once nothing will draw,
// collect and the telemetry included.
func (n *network) release() *arena {
	n.check()
	for _, g := range n.rngs {
		g.Release()
	}
	// Crossing deliveries are the only events that carry a packet.
	reclaim := func(pool *packet.Pool) func(any) {
		return func(arg any) {
			if p, ok := arg.(*packet.Packet); ok {
				pool.Put(p)
			}
		}
	}
	for s, sched := range n.scheds {
		sched.EachPending(reclaim(n.pools[s]))
	}
	if n.group != nil {
		n.group.Drain(reclaim(n.pools[0]))
	}
	for i := range n.clients {
		c := &n.clients[i]
		c.rng.Release()
		c.access.recycle()
		c.reverse.recycle()
	}
	for i := range n.fixed {
		n.fixed[i].recycle()
	}
	for _, s := range n.scheds {
		s.Reset()
	}
	a := n.arena
	n.arena = nil
	return a
}

// recycle returns every packet the slot's link and FIFO hold to the
// link's pool and drops every reference to one, keeping their rings.
func (ls *linkSlot) recycle() {
	ls.link.Recycle()
	ls.fifo.Recycle()
}

// settle closes the books after run: it returns the events the run
// executed and the scheduler filings it made. Serialization-pipelined
// links credit elided serialize-done events at delivery; completions in
// flight at the horizon settle here, so the count is exactly what the
// per-event schedule fired.
func (n *network) settle(horizon sim.Time) (events, ops uint64) {
	n.check()
	for _, s := range n.scheds {
		events += s.Fired()
		ops += s.ScheduledOps()
	}
	for _, l := range n.links {
		events += l.FinishVirtual(horizon)
	}
	for _, f := range n.flows {
		events += f.access.FinishVirtual(horizon) + f.reverse.FinishVirtual(horizon)
	}
	return events, ops
}

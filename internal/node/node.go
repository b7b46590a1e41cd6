// Package node provides the topology elements of the simulated network:
// hosts, which hand received packets to a transport agent, and gateways,
// which forward packets out statically routed egress links.
//
// Flow ids and node addresses are small dense integers assigned by the
// experiment builder, so dispatch tables are plain slices indexed by
// id/address — a bounds check and an indexed load per packet instead of a
// hash lookup.
package node

import (
	"fmt"
	"slices"

	"tcpburst/internal/link"
	"tcpburst/internal/packet"
)

// Agent consumes packets delivered to a host (a transport endpoint).
type Agent interface {
	Receive(p *packet.Packet)
}

// Host is a leaf node that delivers every received packet to its agent.
// Multiple flows may terminate on one host (the server side) by routing on
// the packet's flow id.
type Host struct {
	addr packet.Addr
	// agents is indexed by flow id minus base; nil entries are unbound
	// flows. The window is anchored at the first bound flow so a client
	// host with one flow holds one entry regardless of its global flow id
	// — indexing from zero made building N single-flow hosts O(N²). The
	// slice grows on Bind, never on the receive path.
	base   int
	agents []Agent
	pool   *packet.Pool
	// one backs agents for the first bound flow, so a client host, which
	// terminates a single flow, needs no slice of its own.
	one [1]Agent
}

var _ link.Receiver = (*Host)(nil)

// NewHost returns a host with the given address and no agents.
func NewHost(addr packet.Addr) *Host {
	h := new(Host)
	InitHost(h, addr)
	return h
}

// InitHost is NewHost in place, for hosts embedded in a larger block. A
// host initialized again keeps its dispatch table's backing array,
// cleared, so a reused server host regrows it only past its largest
// fan-in. A table backed by the inline entry is not kept: the host may
// be a copy of the one that entry belongs to.
func InitHost(h *Host, addr packet.Addr) {
	agents := h.agents[:cap(h.agents)]
	if len(agents) <= len(h.one) {
		agents = nil
	}
	clear(agents)
	*h = Host{addr: addr, agents: agents[:0]}
}

// Addr returns the host's node address.
func (h *Host) Addr() packet.Addr { return h.addr }

// Bind attaches the agent handling the given flow.
func (h *Host) Bind(flow packet.FlowID, a Agent) {
	f := int(flow)
	if len(h.agents) == 0 {
		h.base = f
		if cap(h.agents) == 0 {
			h.agents = h.one[:0]
		}
	}
	if f < h.base {
		shift := h.base - f
		grown := make([]Agent, shift+len(h.agents))
		copy(grown[shift:], h.agents)
		h.agents = grown
		h.base = f
	}
	for f-h.base >= len(h.agents) {
		h.agents = append(h.agents, nil)
	}
	h.agents[f-h.base] = a
}

// Reserve sizes an empty host's dispatch table for n flows bound in
// ascending order, so binding them never regrows it.
func (h *Host) Reserve(n int) {
	if len(h.agents) == 0 {
		h.agents = slices.Grow(h.agents, n)
	}
}

// SetPool makes the host reclaim packets it must drop (unbound flows).
func (h *Host) SetPool(pl *packet.Pool) { h.pool = pl }

// Receive dispatches p to the agent bound to its flow. Packets for unbound
// flows are dropped silently (they indicate a mis-wired topology and are
// surfaced by tests, not production panics).
func (h *Host) Receive(p *packet.Packet) {
	if f := int(p.Flow) - h.base; f >= 0 && f < len(h.agents) {
		if a := h.agents[f]; a != nil {
			a.Receive(p)
			return
		}
	}
	h.pool.Put(p)
}

// Gateway forwards packets out the egress link registered for the packet's
// destination address. It models the router/gateway of the paper's Figure 1.
type Gateway struct {
	addr packet.Addr
	// routes is indexed by destination address; nil entries have no
	// route. The slice grows on AddRoute, never on the forwarding path.
	routes []*link.Link
	pool   *packet.Pool
}

var _ link.Receiver = (*Gateway)(nil)

// NewGateway returns a gateway with an empty routing table.
func NewGateway(addr packet.Addr) *Gateway {
	g := new(Gateway)
	InitGateway(g, addr)
	return g
}

// InitGateway is NewGateway in place, for gateways kept in a slab. A
// gateway initialized again keeps its routing table's backing array,
// cleared, so a reused gateway regrows it only past its largest address.
func InitGateway(g *Gateway, addr packet.Addr) {
	routes := g.routes[:cap(g.routes)]
	clear(routes)
	*g = Gateway{addr: addr, routes: routes[:0]}
}

// Addr returns the gateway's node address.
func (g *Gateway) Addr() packet.Addr { return g.addr }

// AddRoute sends packets destined to dst out l. It returns an error if dst
// already has a route.
func (g *Gateway) AddRoute(dst packet.Addr, l *link.Link) error {
	for int(dst) >= len(g.routes) {
		g.routes = append(g.routes, nil)
	}
	if g.routes[dst] != nil {
		return fmt.Errorf("gateway %d: duplicate route for %d", g.addr, dst)
	}
	g.routes[dst] = l
	return nil
}

// Reserve sizes the routing table for addresses below n, so adding their
// routes never regrows it.
func (g *Gateway) Reserve(n int) {
	g.routes = slices.Grow(g.routes, max(n-len(g.routes), 0))
}

// Route returns the egress link for dst, or nil.
func (g *Gateway) Route(dst packet.Addr) *link.Link {
	if int(dst) < len(g.routes) {
		return g.routes[dst]
	}
	return nil
}

// SetPool makes the gateway reclaim packets it must drop (no route).
func (g *Gateway) SetPool(pl *packet.Pool) { g.pool = pl }

// Receive forwards p toward its destination. Packets without a route are
// dropped silently.
func (g *Gateway) Receive(p *packet.Packet) {
	if d := int(p.Dst); d < len(g.routes) {
		if l := g.routes[d]; l != nil {
			l.Send(p)
			return
		}
	}
	g.pool.Put(p)
}

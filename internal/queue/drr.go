package queue

import (
	"fmt"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
)

// DRR is a deficit-round-robin fair queue (Shreedhar & Varghese, 1995):
// one FIFO per flow served cyclically, each visit earning a quantum of
// bytes of transmission credit. It bounds any flow's share regardless of
// how aggressively it sends — the scheduling answer to the paper's opening
// question of how gateways can keep statistical multiplexing effective.
//
// The buffer is shared: when the total occupancy reaches Capacity, the
// arrival is dropped if its flow holds the longest queue (longest-queue
// drop), otherwise a packet from the longest queue is evicted to make
// room — so a greedy flow cannot squeeze out polite ones.
type DRR struct {
	capacity int
	quantum  int

	// flows is the per-flow state table, indexed by flow id (ids are
	// small dense integers assigned by the experiment builder); nil
	// entries are flows never seen. It grows on first arrival of a new
	// flow, never on the steady-state path.
	flows []*drrFlow
	// ring is the active-flow service order.
	ring []*drrFlow
	// next indexes the ring entry currently being served.
	next  int
	total int

	evictions uint64
	// evictionMetric mirrors evictions into the telemetry registry when
	// attached via SetEvictionMetric; the zero handle is a no-op.
	evictionMetric telemetry.Counter

	// onEvict, if set, receives each packet displaced by longest-queue
	// drop. Eviction consumes the packet — unlike an Enqueue rejection,
	// the caller never sees it again — so this is where a packet pool
	// reclaims it.
	onEvict func(p *packet.Packet)
}

type drrFlow struct {
	id      packet.FlowID
	pkts    []*packet.Packet
	deficit int
	active  bool
	// visited marks that the current service visit already granted this
	// flow its quantum; it resets when the scheduler moves on.
	visited bool
}

var _ Discipline = (*DRR)(nil)

// NewDRR returns a deficit-round-robin queue with the given shared buffer
// capacity (packets) and per-visit quantum (bytes; typically one MTU).
func NewDRR(capacity, quantumBytes int) (*DRR, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("drr: capacity %d < 1", capacity)
	}
	if quantumBytes < 1 {
		return nil, fmt.Errorf("drr: quantum %d < 1", quantumBytes)
	}
	return &DRR{
		capacity: capacity,
		quantum:  quantumBytes,
	}, nil
}

// Enqueue adds p to its flow's queue, evicting from the longest queue when
// the shared buffer is full.
func (q *DRR) Enqueue(_ sim.Time, p *packet.Packet) bool {
	f := q.flow(p.Flow)
	if q.total >= q.capacity {
		longest := q.longestFlow()
		if longest == nil || longest == f {
			// The arriving flow already holds the longest queue (or
			// everything is empty, impossible at capacity): drop the
			// arrival itself.
			return false
		}
		q.evictFrom(longest)
	}
	//burst:alloc-ok per-flow queue growth amortizes via append doubling and stays bounded by capacity
	f.pkts = append(f.pkts, p)
	q.total++
	if !f.active {
		f.active = true
		//burst:alloc-ok active-ring growth is bounded by the flow count and amortized
		q.ring = append(q.ring, f)
	}
	return true
}

// Dequeue serves the ring in deficit-round-robin order: each visit grants
// the flow one quantum of byte credit exactly once, the flow transmits
// while its credit covers the head packet, and the scheduler then moves
// on, carrying unused credit only for flows that remain backlogged.
func (q *DRR) Dequeue(_ sim.Time) *packet.Packet {
	if q.total == 0 {
		return nil
	}
	for {
		if q.next >= len(q.ring) {
			q.next = 0
		}
		f := q.ring[q.next]
		if len(f.pkts) == 0 {
			q.deactivate(q.next)
			continue
		}
		if !f.visited {
			f.visited = true
			f.deficit += q.quantum
		}
		if f.deficit >= f.pkts[0].Size {
			p := f.pkts[0]
			f.pkts = f.pkts[1:]
			f.deficit -= p.Size
			q.total--
			if len(f.pkts) == 0 {
				// A flow leaving the ring forfeits its remaining
				// credit, as the algorithm requires.
				f.deficit = 0
				q.deactivate(q.next)
			}
			return p
		}
		// Credit exhausted for this visit: move to the next flow.
		f.visited = false
		q.next++
	}
}

// Len returns the shared buffer occupancy in packets.
func (q *DRR) Len() int { return q.total }

// Cap returns the shared buffer capacity in packets.
func (q *DRR) Cap() int { return q.capacity }

// Drain hands every queued packet to put, flow by flow in service order,
// and empties the service ring: every flow holding a packet is on it.
// Like Dequeue it leaves the handed-out slots as they are: the packets
// belong to the pool now.
func (q *DRR) Drain(put func(p *packet.Packet)) {
	for _, f := range q.ring {
		for _, p := range f.pkts {
			put(p)
		}
		*f = drrFlow{id: f.id, pkts: f.pkts[:0]}
	}
	q.ring, q.next, q.total = q.ring[:0], 0, 0
}

// Evictions returns how many queued packets were displaced by
// longest-queue drop.
func (q *DRR) Evictions() uint64 { return q.evictions }

// SetEvictionMetric attaches a telemetry counter mirrored by every
// longest-queue eviction.
func (q *DRR) SetEvictionMetric(c telemetry.Counter) { q.evictionMetric = c }

// OnEvict registers fn to receive every packet displaced by longest-queue
// drop. Passing nil clears the hook.
func (q *DRR) OnEvict(fn func(p *packet.Packet)) { q.onEvict = fn }

// FlowQueueLen returns the queue length of one flow.
func (q *DRR) FlowQueueLen(id packet.FlowID) int {
	if int(id) < len(q.flows) && q.flows[id] != nil {
		return len(q.flows[id].pkts)
	}
	return 0
}

func (q *DRR) flow(id packet.FlowID) *drrFlow {
	for int(id) >= len(q.flows) {
		//burst:alloc-ok dense flow-table growth is one-time per flow id, amortized by doubling
		q.flows = append(q.flows, nil)
	}
	f := q.flows[id]
	if f == nil {
		// The active ring keeps *drrFlow pointers, so flows must be heap
		// objects with stable addresses — one allocation per flow lifetime.
		//burst:alloc-ok per-flow state allocated once on first arrival; steady state is index-only
		f = &drrFlow{id: id}
		q.flows[id] = f
	}
	return f
}

func (q *DRR) longestFlow() *drrFlow {
	var longest *drrFlow
	for _, f := range q.ring {
		if longest == nil || len(f.pkts) > len(longest.pkts) {
			longest = f
		}
	}
	return longest
}

// evictFrom drops the newest packet of the given flow (drop-from-tail of
// the longest queue).
func (q *DRR) evictFrom(f *drrFlow) {
	n := len(f.pkts) - 1
	victim := f.pkts[n]
	f.pkts[n] = nil
	f.pkts = f.pkts[:n]
	q.total--
	q.evictions++
	q.evictionMetric.Inc()
	if q.onEvict != nil {
		q.onEvict(victim)
	}
	if len(f.pkts) == 0 {
		for i, rf := range q.ring {
			if rf == f {
				q.deactivate(i)
				break
			}
		}
	}
}

// deactivate removes the ring entry at index i, keeping next consistent.
func (q *DRR) deactivate(i int) {
	q.ring[i].active = false
	q.ring[i].deficit = 0
	q.ring[i].visited = false
	//burst:alloc-ok in-place removal appends into the same backing array and can never grow it
	q.ring = append(q.ring[:i], q.ring[i+1:]...)
	if q.next > i {
		q.next--
	}
	if q.next >= len(q.ring) {
		q.next = 0
	}
}

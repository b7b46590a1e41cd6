// Package queue implements gateway queueing disciplines: drop-tail FIFO and
// random early detection (RED), the two disciplines the paper compares, plus
// an ECN-marking RED variant as an extension.
//
// A Discipline owns the packets buffered at one link egress. Enqueue either
// accepts a packet or reports it dropped (the link layer counts drops);
// Dequeue hands the next packet to the link for transmission.
package queue

import (
	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
)

// Discipline is a buffer management policy at a link egress.
type Discipline interface {
	// Enqueue offers a packet to the queue at the current instant.
	// It reports whether the packet was accepted; a false return means
	// the packet was dropped and the caller owns accounting for it.
	Enqueue(now sim.Time, p *packet.Packet) bool
	// Dequeue removes and returns the packet at the head of the queue,
	// or nil if the queue is empty.
	Dequeue(now sim.Time) *packet.Packet
	// Len returns the instantaneous number of queued packets.
	Len() int
	// Cap returns the buffer capacity in packets.
	Cap() int
	// Drain hands every buffered packet to put and leaves the queue
	// empty, without running the discipline's policy: nothing is
	// dropped, marked or counted. A run harness drains its queues once
	// the run is over, to return their packets to the pool.
	Drain(put func(p *packet.Packet))
}

// DequeueDropper is implemented by disciplines that consume packets at
// dequeue time (head drop — CoDel's control law). Such drops never surface
// through an Enqueue rejection, so the link layer registers a sink here to
// account for them and reclaim the packets; a discipline without the
// interface never drops at dequeue.
type DequeueDropper interface {
	// OnDequeueDrop registers fn to receive every packet the discipline
	// drops from inside Dequeue. Passing nil clears the hook.
	OnDequeueDrop(fn func(p *packet.Packet))
}

// fifoRing is a slice-backed ring buffer shared by the disciplines. The
// backing slice is a power of two so slot addressing is a mask instead of
// a division; cap bounds the logical occupancy. Slots are allocated
// lazily and grown geometrically: buffers are routinely provisioned for
// worst-case occupancy (thousands of packets) that uncongested links
// never approach, and a simulation wires in thousands of such queues, so
// paying only for reached occupancy keeps setup allocation — and the GC
// scan load of all those pointer arrays — proportional to actual traffic.
type fifoRing struct {
	buf  []*packet.Packet
	mask int
	cap  int
	head int
	n    int
}

func newFIFORing(capacity int) fifoRing {
	if capacity < 1 {
		capacity = 1
	}
	return fifoRing{cap: capacity}
}

func (r *fifoRing) push(p *packet.Packet) bool {
	if r.n == r.cap {
		return false
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&r.mask] = p
	r.n++
	return true
}

// grow doubles the slot array (first allocation: 16 slots or the rounded
// capacity, whichever is smaller), compacting the occupants to the front.
func (r *fifoRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 1
		for size < r.cap && size < 16 {
			size <<= 1
		}
	}
	//burst:alloc-ok lazy ring growth doubles toward fixed capacity, then never reallocates
	grown := make([]*packet.Packet, size)
	for i := 0; i < r.n; i++ {
		grown[i] = r.buf[(r.head+i)&r.mask]
	}
	r.buf, r.mask, r.head = grown, size-1, 0
}

func (r *fifoRing) pop() *packet.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	// The slot is deliberately not cleared: queued packets are pool-owned
	// and recycled, so a stale reference pins nothing the pool would not
	// keep alive anyway, and skipping the write saves a GC barrier per
	// dequeue.
	r.head = (r.head + 1) & r.mask
	r.n--
	return p
}

func (r *fifoRing) len() int { return r.n }

// drain pops every packet into put.
func (r *fifoRing) drain(put func(p *packet.Packet)) {
	for p := r.pop(); p != nil; p = r.pop() {
		put(p)
	}
}

// FIFO is a drop-tail first-in first-out queue with a fixed packet capacity.
type FIFO struct {
	ring fifoRing
}

var _ Discipline = (*FIFO)(nil)

// NewFIFO returns a drop-tail queue holding at most capacity packets.
// Capacities below one are clamped to one.
func NewFIFO(capacity int) *FIFO {
	q := new(FIFO)
	InitFIFO(q, capacity)
	return q
}

// InitFIFO is NewFIFO in place, for queues embedded in a larger block. A
// queue initialized again keeps its slot array, emptied (see Recycle), so
// the queue of a reused block regrows only past its longest backlog.
func InitFIFO(q *FIFO, capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	q.Recycle()
	q.ring.cap = capacity
}

// Recycle empties the queue, clearing every slot so it keeps no packet
// alive, and keeps the slot array for the next InitFIFO; the queue is
// unusable until then.
func (q *FIFO) Recycle() {
	clear(q.ring.buf)
	*q = FIFO{ring: fifoRing{buf: q.ring.buf, mask: q.ring.mask}}
}

// Enqueue accepts p unless the buffer is full.
func (q *FIFO) Enqueue(_ sim.Time, p *packet.Packet) bool {
	return q.ring.push(p)
}

// Dequeue returns the oldest queued packet, or nil.
func (q *FIFO) Dequeue(_ sim.Time) *packet.Packet { return q.ring.pop() }

// Len returns the instantaneous queue length in packets.
func (q *FIFO) Len() int { return q.ring.len() }

// Cap returns the buffer capacity in packets.
func (q *FIFO) Cap() int { return q.ring.cap }

// Drain hands every queued packet to put, oldest first.
func (q *FIFO) Drain(put func(p *packet.Packet)) { q.ring.drain(put) }

package packet

import "fmt"

// Pool is a deterministic per-simulation free list of Packets. It is NOT
// a sync.Pool: simulations are single-threaded and must be bit-for-bit
// reproducible, so the pool is plain LIFO with no GC interaction and no
// cross-goroutine sharing.
//
// Ownership protocol: exactly one component owns a packet at a time. The
// component that consumes a packet — the sink for data, the sender for
// ACKs, the link for drops and wire losses, the queue for evictions —
// calls Put. After Put the packet must not be touched; the next Get may
// hand it to an unrelated flow.
//
// A nil *Pool is valid and means "pooling disabled": Get falls back to a
// fresh allocation and Put is a no-op. Experiments use this to prove
// pooled and unpooled runs are byte-identical.
type Pool struct {
	free  []*Packet
	debug bool

	gets   uint64
	puts   uint64
	allocs uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Reset restarts the pool's counters and switches debug mode off, keeping
// the free list: a run harness that reuses one pool for many runs hands
// each run the packets the previous ones released instead of allocating
// them again. Get zeroes every packet it hands out, so a packet released
// in an earlier run is as good as a new one.
func (pl *Pool) Reset() { *pl = Pool{free: pl.free} }

// SetDebug toggles poisoned-release mode: on Put, packet fields are
// overwritten with sentinel garbage so any use-after-release corrupts the
// simulation loudly instead of silently reading stale values.
func (pl *Pool) SetDebug(on bool) {
	if pl != nil {
		pl.debug = on
	}
}

// Get returns a zeroed, live packet. The SACK slice's backing array is
// retained across reuse (length reset to zero) so SACK-heavy flows do not
// reallocate block storage per ACK.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		//burst:alloc-ok nil pool means the unpooled fallback: every Get is a fresh packet by design
		return &Packet{}
	}
	pl.gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		sack := p.SACK[:0]
		*p = Packet{SACK: sack, state: stateLive}
		return p
	}
	pl.allocs++
	//burst:alloc-ok pool refill on an empty free list; counted in allocs and amortized by reuse
	return &Packet{state: stateLive}
}

// Put returns a packet to the pool. Double-release always panics (cheap
// single-byte check); in debug mode the packet is additionally poisoned.
// Put of a nil packet, or any Put on a nil pool, is a no-op. Loose packets
// (built with &Packet{}, e.g. in unpooled runs) are ignored rather than
// adopted, so unpooled and pooled runs share identical release call sites.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.state == stateReleased {
		//burst:alloc-ok panic message formatting on the double-release bug path that never returns
		panic(fmt.Sprintf("packet: double release of %s", p))
	}
	if p.state == stateLoose {
		return
	}
	pl.puts++
	p.state = stateReleased
	if pl.debug {
		p.Kind = Kind(-1)
		p.Flow = -1
		p.Src, p.Dst = -1, -1
		p.Seq, p.Ack = -0xBADD, -0xBADD
		p.Size = -1
		p.SentAt = -1
		p.Retransmit, p.ECE = true, true
		p.SACK = p.SACK[:0]
	}
	//burst:alloc-ok free-list growth is amortized doubling, bounded by peak live packets
	pl.free = append(pl.free, p)
}

// Stats reports lifetime pool counters: checkouts, returns, and how many
// checkouts had to allocate because the free list was empty.
func (pl *Pool) Stats() (gets, puts, allocs uint64) {
	if pl == nil {
		return 0, 0, 0
	}
	return pl.gets, pl.puts, pl.allocs
}

// Live returns the number of packets currently checked out (gets - puts).
// After a run drains, a nonzero value means some component leaked packets
// instead of releasing them at its consumption point.
func (pl *Pool) Live() int {
	if pl == nil {
		return 0
	}
	return int(pl.gets) - int(pl.puts)
}

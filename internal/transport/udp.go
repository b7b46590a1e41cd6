package transport

import (
	"fmt"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/stats"
)

// UDPConfig describes one UDP sending endpoint.
type UDPConfig struct {
	// Flow identifies the conversation.
	Flow packet.FlowID
	// Src and Dst are the endpoint addresses.
	Src, Dst packet.Addr
	// PacketSize is the wire size of each datagram in bytes.
	PacketSize int
	// Out carries packets toward Dst. Required.
	Out Wire
	// Sched, when set, is the clock that stamps each datagram's SentAt
	// for delay measurement.
	Sched *sim.Scheduler
	// Pool, when non-nil, supplies outbound datagrams and reclaims any
	// packet delivered back to the sender.
	Pool *packet.Pool
}

// UDPSender transmits each submitted application packet immediately; it is
// the paper's control protocol showing that, without congestion control,
// aggregate traffic keeps the application traffic's statistics.
type UDPSender struct {
	cfg  UDPConfig
	next int64
	sent uint64
}

var (
	_ Source = (*UDPSender)(nil)
	_ Agent  = (*UDPSender)(nil)
)

// NewUDPSender returns a sender, or an error for an invalid configuration.
func NewUDPSender(cfg UDPConfig) (*UDPSender, error) {
	u := new(UDPSender)
	if err := InitUDPSender(u, cfg); err != nil {
		return nil, err
	}
	return u, nil
}

// InitUDPSender is NewUDPSender in place, for senders kept in a slab.
func InitUDPSender(u *UDPSender, cfg UDPConfig) error {
	if cfg.Out == nil {
		return fmt.Errorf("udp flow %d: nil wire", cfg.Flow)
	}
	if cfg.PacketSize <= 0 {
		return fmt.Errorf("udp flow %d: packet size %d <= 0", cfg.Flow, cfg.PacketSize)
	}
	*u = UDPSender{cfg: cfg}
	return nil
}

// Submit sends one datagram immediately.
func (u *UDPSender) Submit() {
	p := u.cfg.Pool.Get()
	p.Kind = packet.Data
	p.Flow = u.cfg.Flow
	p.Src = u.cfg.Src
	p.Dst = u.cfg.Dst
	p.Seq = u.next
	p.Size = u.cfg.PacketSize
	if u.cfg.Sched != nil {
		p.SentAt = u.cfg.Sched.Now()
	}
	u.next++
	u.sent++
	u.cfg.Out.Send(p)
}

// Sent returns the number of datagrams transmitted.
func (u *UDPSender) Sent() uint64 { return u.sent }

// Receive consumes inbound packets without acting on them: UDP has no
// acknowledgments.
func (u *UDPSender) Receive(p *packet.Packet) { u.cfg.Pool.Put(p) }

// UDPSink counts datagrams delivered to the receiving application and,
// when built with a clock, measures their one-way delays.
type UDPSink struct {
	delivered uint64
	clock     *sim.Scheduler
	delays    stats.DelayDist
	pool      *packet.Pool
}

var _ Agent = (*UDPSink)(nil)

// NewUDPSink returns a sink that only counts deliveries.
func NewUDPSink() *UDPSink { return &UDPSink{} }

// NewUDPSinkWithClock returns a sink that additionally samples one-way
// delays on the scheduler's clock.
func NewUDPSinkWithClock(clock *sim.Scheduler) *UDPSink {
	s := new(UDPSink)
	InitUDPSink(s, clock)
	return s
}

// InitUDPSink is NewUDPSinkWithClock in place, for sinks kept in a slab.
// A sink initialized again keeps its delay store's chunks.
func InitUDPSink(s *UDPSink, clock *sim.Scheduler) {
	delays := s.delays
	delays.Reset()
	*s = UDPSink{clock: clock, delays: delays}
}

// SetPool makes the sink return consumed datagrams to pl. The sink is the
// datagram's consumption point, mirroring the TCP sink.
func (s *UDPSink) SetPool(pl *packet.Pool) { s.pool = pl }

// Receive counts one delivered datagram.
func (s *UDPSink) Receive(p *packet.Packet) {
	if !p.IsData() {
		s.pool.Put(p)
		return
	}
	s.delivered++
	if s.clock != nil {
		s.delays.Observe(s.clock.Now().Sub(p.SentAt).Seconds())
	}
	s.pool.Put(p)
}

// Delivered returns the number of datagrams received.
func (s *UDPSink) Delivered() uint64 { return s.delivered }

// Delays returns the one-way delay statistics (empty without a clock).
func (s *UDPSink) Delays() *stats.DelayDist { return &s.delays }

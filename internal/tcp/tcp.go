// Package tcp implements packet-counted TCP agents in the style of the ns
// simulator used by the paper: a sender with slow start, congestion
// avoidance, fast retransmit/recovery, Jacobson RTO estimation with Karn's
// algorithm and exponential backoff; a receiver (sink) generating cumulative
// ACKs with optional delayed acknowledgments; and pluggable congestion
// control variants — Tahoe, Reno, NewReno and Vegas.
//
// Sequence and acknowledgment numbers count whole packets. The application
// (a traffic generator) submits packets into an unbounded send buffer; the
// sender drains it subject to min(cwnd, advertised window), which is exactly
// the modulation the paper studies.
package tcp

import (
	"errors"
	"fmt"
	"time"

	"tcpburst/internal/packet"
	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/transport"
)

// Variant selects the congestion-control algorithm.
type Variant int

// Congestion-control variants.
const (
	Tahoe Variant = iota + 1
	Reno
	NewReno
	Vegas
	SACK
)

// String returns the conventional variant name.
func (v Variant) String() string {
	switch v {
	case Tahoe:
		return "tahoe"
	case Reno:
		return "reno"
	case NewReno:
		return "newreno"
	case Vegas:
		return "vegas"
	case SACK:
		return "sack"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// VegasParams holds TCP Vegas's three thresholds, in packets queued at the
// bottleneck: alpha (lower), beta (upper) for congestion avoidance and gamma
// for the slow-start exit. The paper uses 1/3/1.
type VegasParams struct {
	Alpha float64
	Beta  float64
	Gamma float64
}

// DefaultVegasParams returns the commonly used alpha=1, beta=3, gamma=1.
func DefaultVegasParams() VegasParams {
	return VegasParams{Alpha: 1, Beta: 3, Gamma: 1}
}

// Params is the part of a connection's configuration that does not vary
// from flow to flow: the variant and its tunables, and the scheduler, pool
// and telemetry handles of the shard the endpoint runs on. A builder makes
// one block with NewParams for every set of endpoints built alike and
// hands each endpoint a pointer to it, so an endpoint holds only its Ends
// and its own state. Endpoints never write the block.
type Params struct {
	// Variant selects the congestion-control algorithm.
	Variant Variant
	// PacketSize is the wire size of a data packet in bytes.
	PacketSize int
	// AckSize is the wire size of an acknowledgment in bytes.
	AckSize int
	// MaxWindow is the receiver's advertised window in packets; the
	// effective send window is min(cwnd, MaxWindow).
	MaxWindow int
	// InitialCwnd is the starting congestion window in packets.
	InitialCwnd float64
	// InitialSsthresh is the starting slow-start threshold in packets.
	// Zero selects MaxWindow (slow start until the first loss).
	InitialSsthresh float64
	// InitialRTO is the retransmission timeout before any RTT sample.
	InitialRTO sim.Duration
	// MinRTO and MaxRTO clamp the computed retransmission timeout.
	MinRTO, MaxRTO sim.Duration
	// DelayedAcks enables the sink's delayed-acknowledgment behavior:
	// ACK every second in-order packet or after DelayedAckTimeout.
	DelayedAcks bool
	// DelayedAckTimeout bounds how long an in-order packet may wait for a
	// coalescing partner before being acknowledged.
	DelayedAckTimeout sim.Duration
	// Vegas holds the Vegas thresholds; ignored by other variants.
	Vegas VegasParams
	// Sched is the simulation kernel. Required.
	Sched *sim.Scheduler
	// Pool, when non-nil, supplies data and ACK packets and receives them
	// back at their consumption points (the sink for data, the sender for
	// ACKs). A nil Pool allocates per packet — semantically identical,
	// used to verify pooled runs bit-for-bit.
	Pool *packet.Pool
	// Metrics holds preregistered telemetry handles published on the hot
	// path; the zero value disables publication. The experiment harness
	// shares one handle set across every flow, so these aggregate.
	Metrics Metrics

	// ready marks a block NewParams completed.
	ready bool
}

// Ends is what one connection's endpoints hold of their own: the flow,
// its two addresses and the endpoint's egress.
type Ends struct {
	// Flow identifies the conversation.
	Flow packet.FlowID
	// Src and Dst are the sender-side and receiver-side node addresses.
	Src, Dst packet.Addr
	// Out carries the endpoint's packets: the sender's toward Dst, the
	// sink's acknowledgments back toward Src. Required.
	Out transport.Wire
}

// Config describes one connection in full, for callers that build its
// endpoints one at a time: NewSender and NewSink each make a parameter
// block of their own from it.
type Config struct {
	Ends
	Params
}

// NewParams returns a block holding p, with zero-valued tunables set to
// their paper-era defaults, for any number of endpoints to share; or an
// error for an invalid configuration.
func NewParams(p Params) (*Params, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	p.ready = true
	return &p, nil
}

// Metrics bundles the telemetry handles TCP endpoints publish when
// attached. Sender-side counters mirror Counters; Delivered and AcksSent
// come from the sink.
type Metrics struct {
	DataSent        telemetry.Counter
	Retransmits     telemetry.Counter
	Timeouts        telemetry.Counter
	FastRetransmits telemetry.Counter
	Delivered       telemetry.Counter
	AcksSent        telemetry.Counter
}

// withDefaults fills zero-valued tunables with paper-era defaults.
func (c Params) withDefaults() Params {
	if c.PacketSize == 0 {
		c.PacketSize = 1000
	}
	if c.AckSize == 0 {
		c.AckSize = 40
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 20
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 1
	}
	if c.InitialSsthresh == 0 {
		c.InitialSsthresh = float64(c.MaxWindow)
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = time.Second
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 64 * time.Second
	}
	if c.DelayedAckTimeout == 0 {
		c.DelayedAckTimeout = 100 * time.Millisecond
	}
	if c.Vegas == (VegasParams{}) {
		c.Vegas = DefaultVegasParams()
	}
	return c
}

// validate reports the first configuration error, or nil.
func (c Params) validate() error {
	switch {
	case c.Sched == nil:
		return errors.New("tcp: nil scheduler")
	case c.Variant < Tahoe || c.Variant > SACK:
		return fmt.Errorf("tcp: unknown variant %d", int(c.Variant))
	case c.PacketSize <= 0:
		return fmt.Errorf("tcp: packet size %d <= 0", c.PacketSize)
	case c.MaxWindow <= 0:
		return fmt.Errorf("tcp: max window %d <= 0", c.MaxWindow)
	case c.MinRTO > c.MaxRTO:
		return fmt.Errorf("tcp: min RTO %v > max RTO %v", c.MinRTO, c.MaxRTO)
	}
	return nil
}

// check reports whether an endpoint of flow e.Flow can run on p and send
// on e.Out.
func (e Ends) check(p *Params) error {
	switch {
	case p == nil || !p.ready:
		return fmt.Errorf("tcp flow %d: parameters not made by NewParams", e.Flow)
	case e.Out == nil:
		return fmt.Errorf("tcp flow %d: nil wire", e.Flow)
	}
	return nil
}

// Counters aggregates per-connection statistics used by the paper's
// figures: timeouts vs duplicate-ACK-triggered retransmissions (Figure 13)
// and the send-side accounting behind throughput and loss.
type Counters struct {
	// DataSent counts data packet transmissions, including retransmits.
	DataSent uint64
	// Retransmits counts retransmitted data packets.
	Retransmits uint64
	// Timeouts counts retransmission-timer expirations.
	Timeouts uint64
	// FastRetransmits counts retransmissions triggered by duplicate ACKs
	// (including Vegas's fine-grained early retransmits).
	FastRetransmits uint64
	// AcksReceived counts all received acknowledgments.
	AcksReceived uint64
	// DupAcksReceived counts duplicate acknowledgments.
	DupAcksReceived uint64
	// Submitted counts application packets offered to the send buffer.
	Submitted uint64
}

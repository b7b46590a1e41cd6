// Package core is the experiment harness reproducing the paper's study: it
// builds the client–gateway–server dumbbell of Figure 1, drives N Poisson
// clients through a chosen transport protocol and gateway queueing
// discipline, and measures the burstiness (coefficient of variation of
// per-RTT packet counts at the gateway), throughput, loss, retransmission
// behavior, and congestion-window evolution that the paper reports in
// Table 1 and Figures 2–13.
package core

import (
	"fmt"
	"time"

	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/tcp"
	"tcpburst/internal/telemetry"
)

// Protocol selects the transport protocol run by every client.
type Protocol int

// Protocols under study. UDP is the unmodulated control; RenoDelayAck is
// TCP Reno with delayed acknowledgments enabled at the sink; Tahoe,
// NewReno and Sack extend the paper's set for ablation.
const (
	UDP Protocol = iota + 1
	Reno
	RenoDelayAck
	Vegas
	Tahoe
	NewReno
	Sack
)

// Protocols lists every supported protocol in presentation order.
func Protocols() []Protocol {
	return []Protocol{UDP, Reno, RenoDelayAck, Vegas, Tahoe, NewReno, Sack}
}

// PaperProtocols lists the protocols evaluated in the paper's figures.
func PaperProtocols() []Protocol {
	return []Protocol{UDP, Reno, RenoDelayAck, Vegas}
}

// String returns the figure-legend name of the protocol.
func (p Protocol) String() string {
	switch p {
	case UDP:
		return "udp"
	case Reno:
		return "reno"
	case RenoDelayAck:
		return "reno-delayack"
	case Vegas:
		return "vegas"
	case Tahoe:
		return "tahoe"
	case NewReno:
		return "newreno"
	case Sack:
		return "sack"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// IsTCP reports whether the protocol is a TCP variant.
func (p Protocol) IsTCP() bool { return p != UDP }

// TCPVariant maps the protocol to its congestion-control variant. It is
// only meaningful when IsTCP is true.
func (p Protocol) TCPVariant() tcp.Variant {
	switch p {
	case Reno, RenoDelayAck:
		return tcp.Reno
	case Vegas:
		return tcp.Vegas
	case Tahoe:
		return tcp.Tahoe
	case NewReno:
		return tcp.NewReno
	case Sack:
		return tcp.SACK
	default:
		return tcp.Reno
	}
}

// ParseProtocol converts a legend name back to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range Protocols() {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", s)
}

// GatewayQueue names one of the three original gateway disciplines. It is
// an input shorthand only: WithDefaults raises a non-zero Config.Gateway
// into the equivalent Config.Queue spec and zeroes it, so a defaulted
// Config carries its discipline in one form.
type GatewayQueue int

// Queueing disciplines at the gateway. FIFO and RED are the paper's; DRR
// (deficit-round-robin fair queueing) extends the study to the scheduling
// question the paper's introduction raises.
const (
	FIFO GatewayQueue = iota + 1
	RED
	DRR
)

// String returns the discipline name, which is also its registry name.
func (q GatewayQueue) String() string {
	switch q {
	case FIFO:
		return "fifo"
	case RED:
		return "red"
	case DRR:
		return "drr"
	default:
		return fmt.Sprintf("queue(%d)", int(q))
	}
}

// Config fully describes one experiment. DefaultConfig returns the paper's
// Table 1 values (as reconstructed in DESIGN.md); zero-valued fields in a
// hand-built Config inherit those defaults via WithDefaults.
// TrafficModel selects the application workload each client generates.
type TrafficModel int

// Traffic models.
const (
	// TrafficPoisson is the paper's workload: single packets with
	// exponential inter-generation times.
	TrafficPoisson TrafficModel = iota + 1
	// TrafficParetoOnOff is the heavy-tailed on/off source of the
	// self-similarity literature (extension).
	TrafficParetoOnOff
)

// String returns the model name.
func (m TrafficModel) String() string {
	switch m {
	case TrafficPoisson:
		return "poisson"
	case TrafficParetoOnOff:
		return "pareto"
	default:
		return fmt.Sprintf("traffic(%d)", int(m))
	}
}

// MixEntry assigns a protocol to a contiguous block of clients in a
// mixed-protocol experiment (extension: the competition studies of Mo, La,
// Anantharam & Walrand that the paper cites as [12]).
type MixEntry struct {
	// Protocol run by this block of clients.
	Protocol Protocol
	// Clients is the block size.
	Clients int
}

// ParkingLot sizes the parking lot's client groups: Long clients cross
// both bottlenecks, Hop1 and Hop2 clients only their own.
type ParkingLot struct{ Long, Hop1, Hop2 int }

type Config struct {
	// Backend selects the execution engine: PacketBackend (the zero value,
	// event-by-event simulation) or FluidBackend (the internal/meanfield
	// ODE/fixed-point model, cost independent of Clients). Omitted from
	// JSON when zero so packet configs encode exactly as before.
	Backend Backend `json:",omitempty"`
	// Clients is the number of Poisson client streams N.
	Clients int
	// Protocol is the transport protocol run by every client.
	Protocol Protocol
	// Mix, when non-empty, assigns protocols per client block instead of
	// a single Protocol for everyone: clients 1..Mix[0].Clients run
	// Mix[0].Protocol, and so on. Clients must equal the sum of the
	// block sizes (WithDefaults fills it in when left zero), and
	// Protocol is ignored except as the label of the run.
	Mix []MixEntry
	// ParkingLot, when set, replaces the paper's dumbbell with the
	// two-gateway parking lot. Clients must equal the sum of its counts
	// (WithDefaults fills it in when left zero). Nil is the dumbbell,
	// omitted from JSON so dumbbell configs encode as before.
	ParkingLot *ParkingLot `json:",omitempty"`
	// Gateway is shorthand for Queue naming fifo, red or drr. WithDefaults
	// raises it into Queue and zeroes it; setting both is an error.
	Gateway GatewayQueue `json:",omitempty"`
	// Queue selects the bottleneck discipline by registry spec, such as
	// "red?ecn=true" or "codel?target=5ms" (fifo when neither it nor
	// Gateway is set). After WithDefaults it is the only discipline field,
	// and the gateway queue is built from it through queue.Build.
	Queue *queue.Spec `json:",omitempty"`
	// Seed drives every random stream in the experiment; identical
	// configurations replay identically.
	Seed int64
	// Duration is the total simulated test time (paper: 200 s).
	Duration sim.Duration
	// Warmup discards the initial measurement windows from the c.o.v.
	// (zero reproduces the paper, which measures the whole run).
	Warmup sim.Duration

	// ClientRateBps and ClientDelay describe each client access link
	// (paper: 100 Mbps, 2 ms).
	ClientRateBps float64
	ClientDelay   sim.Duration
	// ClientDelayJitter, when positive, draws each client's access delay
	// uniformly from [ClientDelay, ClientDelay+Jitter] — heterogeneous
	// RTTs (extension: probes the paper's synchronization mechanism,
	// since identical RTTs maximize lockstep window decisions).
	ClientDelayJitter sim.Duration
	// BottleneckRateBps and BottleneckDelay describe the gateway–server
	// link (paper: 31 Mbps, 20 ms — see DESIGN.md §3).
	BottleneckRateBps float64
	BottleneckDelay   sim.Duration
	// BufferPackets is the gateway buffer size B (paper: 50).
	BufferPackets int
	// AccessBufferPackets sizes the client and reverse-path buffers,
	// which the paper keeps uncongested.
	AccessBufferPackets int
	// PacketSize and AckSize are wire sizes in bytes (paper: 1000 / 40).
	PacketSize int
	AckSize    int
	// MaxWindow is TCP's maximum advertised window in packets (paper: 20).
	MaxWindow int
	// MeanInterval is the mean packet inter-generation time per client,
	// 1/λ (paper: 0.01 s). It sets the mean rate for every traffic model.
	MeanInterval sim.Duration

	// Traffic selects the per-client workload model. The paper's clients
	// are Poisson; the heavy-tailed Pareto on/off model (extension) feeds
	// the self-similarity comparison of Park/Kim/Crovella and Willinger
	// et al. through the same transports.
	Traffic TrafficModel
	// ParetoShape is the tail index for TrafficParetoOnOff (classically
	// 1.5: finite mean, infinite variance).
	ParetoShape float64
	// MeanOnTime and MeanOffTime are the mean burst and idle durations
	// for TrafficParetoOnOff. The in-burst packet interval is derived so
	// the long-run mean rate still equals 1/MeanInterval.
	MeanOnTime, MeanOffTime sim.Duration

	// WireLossProb, when positive, drops each packet serialized onto the
	// bottleneck link with this probability — random, non-congestive loss
	// (extension: the random-loss TCP study of Lakshman & Madhow that the
	// paper cites as [10]).
	WireLossProb float64
	// ReverseRateBps, when positive, overrides the server→gateway
	// acknowledgment path's bandwidth. The paper keeps the reverse path
	// uncongested; shrinking it studies ACK compression (extension).
	ReverseRateBps float64
	// ReverseBufferPackets, when positive, overrides the reverse-path
	// buffer size (defaults to AccessBufferPackets).
	ReverseBufferPackets int

	// Vegas holds the Vegas alpha/beta/gamma thresholds (paper: 1/3/1).
	Vegas tcp.VegasParams
	// MinRTO clamps TCP's retransmission timeout from below.
	MinRTO sim.Duration
	// DelayedAckTimeout bounds sink ACK coalescing for RenoDelayAck.
	DelayedAckTimeout sim.Duration

	// CwndSampleInterval enables congestion-window tracing at the given
	// period when positive (the paper samples every 0.1 s).
	CwndSampleInterval sim.Duration
	// TraceClients selects which clients to trace, 1-based as in the
	// paper's figure legends ("client 1, 10, 20"). Empty with tracing
	// enabled selects clients 1, N/2 and N.
	TraceClients []int
	// TraceQueue additionally records the bottleneck queue length at the
	// same period.
	TraceQueue bool
	// PacketLogCapacity, when positive, retains the most recent packet
	// arrival/drop events at the bottleneck in an ns-style trace ring
	// (Result.PacketLog).
	PacketLogCapacity int

	// TelemetryInterval enables the zero-allocation telemetry subsystem
	// when positive: the run publishes gateway, TCP, queue-discipline, and
	// traffic counters into a registry sampled every interval of virtual
	// time, streaming one snapshot record per tick to the sink. Sampling
	// is read-only, so results are identical with telemetry on or off.
	TelemetryInterval sim.Duration `json:",omitempty"`
	// TelemetrySink receives the streamed snapshot records. A sink that
	// implements telemetry.PerRun (a JSONL stream) serves each run through
	// ForRun(Label()), so runs sharing one stream stay distinguishable. Nil
	// with telemetry enabled falls back to an in-memory ring returned in
	// Result.TelemetryRing. Excluded from JSON, and so from cache keys.
	//burst:nocache a sink is an output destination; the streamed records never feed back into results
	TelemetrySink telemetry.Sink `json:"-"`

	// Shards partitions the packet simulation across this many schedulers
	// running on separate cores, synchronized by conservative lookahead
	// windows (DESIGN.md §11). 0 or 1 runs serially. Sharded runs are
	// bit-identical to serial ones, so Shards is excluded from JSON — and
	// therefore from cache keys: the same result artifact serves every
	// shard count. Packet backend only.
	//burst:nocache sharded execution is bit-identical to serial (TestCacheKeyShardIndependent), so one artifact serves every shard count
	Shards int `json:"-"`

	// DisableBatching selects the per-event reference executor: eager
	// link trains, no idle-link FIFO bypass and no serialization
	// pipelining (DESIGN.md §12), forcing one scheduler event per packet
	// hop. Debug knob: results are bit-identical either way (the batching
	// equivalence tests enforce this), so like Shards it is excluded from
	// JSON and cache keys.
	//burst:nocache batching on and off produce byte-identical results (TestBatchingMatchesUnbatched), so the key must not fork
	DisableBatching bool `json:"-"`
}

// DefaultConfig returns the paper's Table 1 parameters for n clients using
// the given protocol and gateway discipline (q == 0 leaves the discipline
// to WithDefaults, which picks fifo).
func DefaultConfig(n int, p Protocol, q GatewayQueue) Config {
	c := Config{
		Clients:             n,
		Protocol:            p,
		Seed:                1,
		Duration:            200 * time.Second,
		ClientRateBps:       100e6,
		ClientDelay:         2 * time.Millisecond,
		BottleneckRateBps:   31e6,
		BottleneckDelay:     20 * time.Millisecond,
		BufferPackets:       50,
		AccessBufferPackets: 1000,
		PacketSize:          1000,
		AckSize:             40,
		MaxWindow:           20,
		MeanInterval:        10 * time.Millisecond,
		Traffic:             TrafficPoisson,
		ParetoShape:         1.5,
		MeanOnTime:          100 * time.Millisecond,
		MeanOffTime:         200 * time.Millisecond,
		Vegas:               tcp.DefaultVegasParams(),
		MinRTO:              200 * time.Millisecond,
		DelayedAckTimeout:   100 * time.Millisecond,
	}
	if q != 0 {
		c.Queue = &queue.Spec{Name: q.String()}
	}
	return c
}

// WithDefaults fills zero-valued tunables from DefaultConfig, keeping any
// explicit settings.
func (c Config) WithDefaults() Config {
	if len(c.Mix) > 0 && c.Clients == 0 {
		for _, m := range c.Mix {
			c.Clients += m.Clients
		}
	}
	if lot := c.ParkingLot; lot != nil && c.Clients == 0 {
		c.Clients = lot.Long + lot.Hop1 + lot.Hop2
	}
	if len(c.Mix) > 0 && c.Protocol == 0 {
		c.Protocol = c.Mix[0].Protocol
	}
	if c.Queue == nil {
		spec := c.queueSpec()
		c.Queue = &spec
		c.Gateway = 0
	}
	d := DefaultConfig(c.Clients, c.Protocol, 0)
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Duration == 0 {
		c.Duration = d.Duration
	}
	if c.ClientRateBps == 0 { //burst:floateq-ok zero means unset; take the default
		c.ClientRateBps = d.ClientRateBps
	}
	if c.ClientDelay == 0 {
		c.ClientDelay = d.ClientDelay
	}
	if c.BottleneckRateBps == 0 { //burst:floateq-ok zero means unset; take the default
		c.BottleneckRateBps = d.BottleneckRateBps
	}
	if c.BottleneckDelay == 0 {
		c.BottleneckDelay = d.BottleneckDelay
	}
	if c.BufferPackets == 0 {
		c.BufferPackets = d.BufferPackets
	}
	if c.AccessBufferPackets == 0 {
		c.AccessBufferPackets = d.AccessBufferPackets
	}
	if c.PacketSize == 0 {
		c.PacketSize = d.PacketSize
	}
	if c.AckSize == 0 {
		c.AckSize = d.AckSize
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = d.MaxWindow
	}
	if c.MeanInterval == 0 {
		c.MeanInterval = d.MeanInterval
	}
	if c.Traffic == 0 {
		c.Traffic = d.Traffic
	}
	if c.ParetoShape == 0 { //burst:floateq-ok zero means unset; take the default
		c.ParetoShape = d.ParetoShape
	}
	if c.MeanOnTime == 0 {
		c.MeanOnTime = d.MeanOnTime
	}
	if c.MeanOffTime == 0 {
		c.MeanOffTime = d.MeanOffTime
	}
	if c.Vegas == (tcp.VegasParams{}) {
		c.Vegas = d.Vegas
	}
	if c.MinRTO == 0 {
		c.MinRTO = d.MinRTO
	}
	if c.DelayedAckTimeout == 0 {
		c.DelayedAckTimeout = d.DelayedAckTimeout
	}
	return c
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Backend < PacketBackend || c.Backend > FluidBackend:
		return fmt.Errorf("config: unknown backend %d", int(c.Backend))
	case c.Clients < 1:
		return fmt.Errorf("config: clients %d < 1", c.Clients)
	case c.Protocol < UDP || c.Protocol > Sack:
		return fmt.Errorf("config: unknown protocol %d", int(c.Protocol))
	case c.Queue != nil && c.Gateway != 0:
		return fmt.Errorf("config: both Gateway (%v) and Queue (%v) set; pick one discipline", c.Gateway, c.Queue)
	case c.Queue == nil:
		return fmt.Errorf("config: no gateway discipline; Queue is set by WithDefaults")
	case c.Duration <= 0:
		return fmt.Errorf("config: duration %v <= 0", c.Duration)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("config: warmup %v outside [0, duration)", c.Warmup)
	case c.ClientRateBps <= 0 || c.BottleneckRateBps <= 0:
		return fmt.Errorf("config: link rates must be positive")
	case c.ClientDelay < 0 || c.BottleneckDelay < 0:
		return fmt.Errorf("config: link delays must be non-negative")
	case c.ClientDelayJitter < 0:
		return fmt.Errorf("config: client delay jitter %v < 0", c.ClientDelayJitter)
	case c.BufferPackets < 1:
		return fmt.Errorf("config: gateway buffer %d < 1", c.BufferPackets)
	case c.AccessBufferPackets < 1:
		return fmt.Errorf("config: access buffer packets %d < 1", c.AccessBufferPackets)
	case c.ReverseBufferPackets < 0:
		return fmt.Errorf("config: reverse buffer packets %d < 0", c.ReverseBufferPackets)
	case c.PacketSize <= 0:
		return fmt.Errorf("config: packet size %d <= 0", c.PacketSize)
	case c.AckSize <= 0:
		return fmt.Errorf("config: ack size %d <= 0", c.AckSize)
	case c.MaxWindow < 1:
		return fmt.Errorf("config: max window %d < 1", c.MaxWindow)
	case c.MinRTO < 0:
		return fmt.Errorf("config: min RTO %v < 0", c.MinRTO)
	case c.DelayedAckTimeout < 0:
		return fmt.Errorf("config: delayed ACK timeout %v < 0", c.DelayedAckTimeout)
	case c.PacketLogCapacity < 0:
		return fmt.Errorf("config: packet log capacity %d < 0", c.PacketLogCapacity)
	case c.MeanInterval <= 0:
		return fmt.Errorf("config: mean interval %v <= 0", c.MeanInterval)
	case c.Traffic < TrafficPoisson || c.Traffic > TrafficParetoOnOff:
		return fmt.Errorf("config: unknown traffic model %d", int(c.Traffic))
	case c.Traffic == TrafficParetoOnOff && c.ParetoShape <= 1:
		return fmt.Errorf("config: pareto shape %v <= 1 has infinite mean", c.ParetoShape)
	case c.Traffic == TrafficParetoOnOff && (c.MeanOnTime <= 0 || c.MeanOffTime <= 0):
		return fmt.Errorf("config: pareto on/off durations must be positive")
	case c.WireLossProb < 0 || c.WireLossProb >= 1:
		return fmt.Errorf("config: wire loss probability %v outside [0,1)", c.WireLossProb)
	case c.ReverseRateBps < 0:
		return fmt.Errorf("config: reverse rate %v < 0", c.ReverseRateBps)
	case c.TelemetryInterval < 0:
		return fmt.Errorf("config: telemetry interval %v < 0", c.TelemetryInterval)
	case c.CwndSampleInterval < 0:
		return fmt.Errorf("config: cwnd sample interval %v < 0", c.CwndSampleInterval)
	}
	if c.ParkingLot != nil {
		if err := c.validateParkingLot(); err != nil {
			return err
		}
	}
	traced := make(map[int]bool, len(c.TraceClients))
	for _, i := range c.TraceClients {
		if i < 1 || i > c.Clients {
			return fmt.Errorf("config: trace client %d outside [1,%d]", i, c.Clients)
		}
		if traced[i] {
			return fmt.Errorf("config: trace client %d listed twice", i)
		}
		traced[i] = true
	}
	if len(c.Mix) > 0 {
		sum := 0
		for i, m := range c.Mix {
			if m.Protocol < UDP || m.Protocol > Sack {
				return fmt.Errorf("config: mix[%d] has unknown protocol %d", i, int(m.Protocol))
			}
			if m.Clients < 1 {
				return fmt.Errorf("config: mix[%d] has %d clients", i, m.Clients)
			}
			sum += m.Clients
		}
		if sum != c.Clients {
			return fmt.Errorf("config: mix totals %d clients but Clients = %d", sum, c.Clients)
		}
	}
	if c.Shards < 0 {
		return fmt.Errorf("config: shards %d < 0", c.Shards)
	}
	if c.Shards > 1 {
		switch {
		case c.Backend == FluidBackend:
			return fmt.Errorf("config: the fluid backend is one ODE solve and cannot shard; drop -shards or use -backend packet")
		case c.Shards > c.Clients:
			return fmt.Errorf("config: shards %d > %d hosts; use at most one shard per client", c.Shards, c.Clients)
		case c.ClientDelay <= 0 || c.BottleneckDelay <= 0:
			return fmt.Errorf("config: sharding derives its lookahead from link delays; client %v and bottleneck %v must both be positive", c.ClientDelay, c.BottleneckDelay)
		case c.CwndSampleInterval > 0 || c.TraceQueue:
			return fmt.Errorf("config: cwnd/queue tracing samples cross-shard state; run tracing with shards=1")
		}
	}
	q, err := c.scratchQueue()
	if err != nil {
		return err
	}
	if c.Backend == FluidBackend {
		if err := c.validateFluid(q); err != nil {
			return err
		}
	}
	if c.TraceQueue && c.CwndSampleInterval == 0 {
		return fmt.Errorf("config: queue tracing samples at the cwnd sample interval; set one")
	}
	return nil
}

// validateParkingLot checks the parking lot's counts and rejects, by
// name, the fields only the dumbbell honors: the fluid backend, Mix, wire
// loss and the reverse-path overrides have no meaning on its links, and
// telemetry would add both bottlenecks into one gw.* series.
func (c Config) validateParkingLot() error {
	lot := c.ParkingLot
	switch {
	case lot.Long < 1:
		return fmt.Errorf("config: parking lot long clients %d < 1", lot.Long)
	case lot.Hop1 < 0 || lot.Hop2 < 0:
		return fmt.Errorf("config: parking lot hop clients %d/%d < 0", lot.Hop1, lot.Hop2)
	case lot.Long+lot.Hop1+lot.Hop2 != c.Clients:
		return fmt.Errorf("config: parking lot totals %d clients but Clients = %d", lot.Long+lot.Hop1+lot.Hop2, c.Clients)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Backend", c.Backend != PacketBackend},
		{"Mix", len(c.Mix) > 0},
		{"WireLossProb", c.WireLossProb > 0},
		{"ReverseRateBps", c.ReverseRateBps > 0},
		{"ReverseBufferPackets", c.ReverseBufferPackets != 0},
		{"TelemetryInterval", c.TelemetryInterval != 0},
	} {
		if f.set {
			return fmt.Errorf("config: %s is not supported by the parking lot", f.name)
		}
	}
	return nil
}

// buildQueue builds the configured gateway discipline through the
// registry. rng lazily forks the discipline's random stream: only a
// discipline that draws randomness calls it, so a deterministic one leaves
// every downstream stream untouched.
func (c Config) buildQueue(rng func() *sim.RNG, m queue.Metrics) (queue.Discipline, error) {
	return queue.Build(*c.Queue, queue.BuildContext{
		Capacity:       c.BufferPackets,
		PacketSize:     c.PacketSize,
		MeanPacketTime: sim.SerializationDelay(c.PacketSize, c.BottleneckRateBps),
		RNG:            rng,
		Metrics:        m,
	})
}

// scratchQueue builds the configured discipline with a throwaway RNG and
// no telemetry. Validation uses it so an unknown name or bad parameter
// fails at configuration time with the registry's self-explaining error;
// the fluid mapping and summary reconstruction type-switch on it.
func (c Config) scratchQueue() (queue.Discipline, error) {
	return c.buildQueue(func() *sim.RNG { return sim.NewRNG(0) }, queue.Metrics{})
}

// queueSpec returns the run's discipline: Queue when set, otherwise the
// one WithDefaults raises from the Gateway shorthand (fifo when neither is
// set).
func (c Config) queueSpec() queue.Spec {
	if c.Queue != nil {
		return *c.Queue
	}
	gw := c.Gateway
	if gw == 0 {
		gw = FIFO
	}
	return queue.Spec{Name: gw.String()}
}

// QueueName returns the canonical spec string of the run's discipline,
// e.g. "red", "red?ecn=true" or "codel?target=5ms". A config that has not
// been defaulted names the discipline WithDefaults would pick.
func (c Config) QueueName() string { return c.queueSpec().String() }

// Label names the configuration the way the runner's progress lines do:
// "protocol/gateway n=N seed=S", omitting a plain "/fifo" as the paper's
// legends do; a parking lot adds its counts as "lot=long/hop1/hop2".
// Sweeps use it to tag per-run telemetry streams sharing one writer. A
// config that has not been defaulted is labelled as WithDefaults would
// leave it.
func (c Config) Label() string {
	c = c.WithDefaults()
	name := c.Protocol.String()
	if q := c.QueueName(); q != FIFO.String() {
		name += "/" + q
	}
	if lot := c.ParkingLot; lot != nil {
		name += fmt.Sprintf(" lot=%d/%d/%d", lot.Long, lot.Hop1, lot.Hop2)
	}
	return fmt.Sprintf("%s n=%d seed=%d", name, c.Clients, c.Seed)
}

// RTT returns the round-trip propagation delay 2(τc+τs) — the paper's
// c.o.v. measurement window.
func (c Config) RTT() sim.Duration {
	return 2 * (c.ClientDelay + c.BottleneckDelay)
}

// Lambda returns the per-client Poisson packet rate λ in packets/second.
func (c Config) Lambda() float64 {
	return float64(time.Second) / float64(c.MeanInterval)
}

// OfferedLoadBps returns the aggregate application offered load in bits/s.
func (c Config) OfferedLoadBps() float64 {
	return float64(c.Clients) * c.Lambda() * float64(c.PacketSize) * 8
}

// CongestionLevel classifies the offered load the way the paper's Section 3
// does: "uncongested" (well under capacity), "moderate" (intermittent
// congestion), "heavy" (offered load exceeds the bottleneck).
func (c Config) CongestionLevel() string {
	ratio := c.OfferedLoadBps() / c.BottleneckRateBps
	switch {
	case ratio < 0.25:
		return "uncongested"
	case ratio <= 1.0:
		return "moderate"
	default:
		return "heavy"
	}
}

package core

import (
	"fmt"

	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
)

// Option mutates a Config under construction. NewConfig applies options to
// a zero Config, fills every remaining zero-valued tunable with the paper's
// Table-1 defaults, and validates the result — the one place configuration
// errors surface, instead of deep inside Run.
type Option func(*Config)

// NewConfig builds a validated experiment configuration: paper defaults,
// overridden by the given options. It is the constructor the CLIs and
// examples use; hand-built struct literals remain supported via
// Config.WithDefaults and Config.Validate.
func NewConfig(opts ...Option) (Config, error) {
	var c Config
	for _, opt := range opts {
		opt(&c)
	}
	c = c.WithDefaults()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// MustConfig is NewConfig for statically known-good option sets; it panics
// on a validation error.
func MustConfig(opts ...Option) Config {
	c, err := NewConfig(opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// BaseConfig applies options without defaulting or validation. It builds
// partial templates — e.g. a sweep base with Clients still zero — that are
// completed per run and validated inside RunBatch.
func BaseConfig(opts ...Option) Config {
	var c Config
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

// WithBackend selects the execution engine (packet or fluid).
func WithBackend(b Backend) Option {
	return func(c *Config) { c.Backend = b }
}

// WithClients sets the number of client streams N.
func WithClients(n int) Option {
	return func(c *Config) { c.Clients = n }
}

// WithProtocol sets the transport protocol every client runs.
func WithProtocol(p Protocol) Option {
	return func(c *Config) { c.Protocol = p }
}

// WithGatewayDiscipline selects the bottleneck discipline by registry spec,
// e.g. "red?maxprob=0.2" or "codel?target=5ms".
func WithGatewayDiscipline(spec queue.Spec) Option {
	s := spec.Clone()
	return func(c *Config) { c.Queue = &s }
}

// ParseDiscipline parses a CLI "-queue" value in the registry's
// "name?key=value&..." grammar (e.g. "codel?target=5ms&interval=100ms")
// into a configuration option — the one shared parser every CLI uses.
func ParseDiscipline(s string) (Option, error) {
	spec, err := queue.ParseSpec(s)
	if err != nil {
		return nil, err
	}
	return WithGatewayDiscipline(spec), nil
}

// WithCell sets protocol and gateway together from a sweep cell. A
// malformed spec string in the cell panics; use Cell values built from
// validated specs (or ParseDiscipline for raw CLI input).
func WithCell(cell Cell) Option {
	return func(c *Config) {
		if err := cell.applyTo(c); err != nil {
			panic(fmt.Sprintf("core: invalid cell %q: %v", cell.Queue, err))
		}
	}
}

// WithSeed sets the run's master random seed.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithDuration sets the simulated test time.
func WithDuration(d sim.Duration) Option {
	return func(c *Config) { c.Duration = d }
}

// WithMix assigns protocols per client block (protocol-competition runs).
func WithMix(mix ...MixEntry) Option {
	return func(c *Config) { c.Mix = mix }
}

// WithTraffic selects the per-client workload model.
func WithTraffic(m TrafficModel) Option {
	return func(c *Config) { c.Traffic = m }
}

// WithMeanInterval sets the mean packet inter-generation time 1/λ.
func WithMeanInterval(d sim.Duration) Option {
	return func(c *Config) { c.MeanInterval = d }
}

// WithBuffer sets the gateway buffer size in packets.
func WithBuffer(packets int) Option {
	return func(c *Config) { c.BufferPackets = packets }
}

// WithMinRTO clamps TCP's retransmission timeout from below.
func WithMinRTO(d sim.Duration) Option {
	return func(c *Config) { c.MinRTO = d }
}

// WithClientDelayJitter spreads client access delays uniformly over
// [ClientDelay, ClientDelay+jitter] — the heterogeneous-RTT extension.
func WithClientDelayJitter(jitter sim.Duration) Option {
	return func(c *Config) { c.ClientDelayJitter = jitter }
}

// WithWireLoss drops bottleneck packets at the given probability — the
// random, non-congestive loss extension.
func WithWireLoss(prob float64) Option {
	return func(c *Config) { c.WireLossProb = prob }
}

// WithReverseRate overrides the acknowledgment path's bandwidth (ACK
// compression studies); zero keeps the forward rate.
func WithReverseRate(bps float64) Option {
	return func(c *Config) { c.ReverseRateBps = bps }
}

// WithCwndTracing samples the chosen clients' congestion windows at the
// given period; an empty client list picks 1, N/2 and N.
func WithCwndTracing(interval sim.Duration, clients ...int) Option {
	return func(c *Config) {
		c.CwndSampleInterval = interval
		c.TraceClients = clients
	}
}

// WithQueueTrace additionally records the bottleneck queue length at the
// cwnd sampling period.
func WithQueueTrace() Option {
	return func(c *Config) { c.TraceQueue = true }
}

// WithTelemetry enables the telemetry subsystem at the given snapshot
// interval; records go to the sink set by WithTelemetrySink (default: an
// in-memory ring returned in Result.TelemetryRing).
func WithTelemetry(interval sim.Duration) Option {
	return func(c *Config) { c.TelemetryInterval = interval }
}

// WithTelemetrySink streams telemetry snapshots to the given sink; a
// telemetry.PerRun sink gives each run its own labelled sink.
func WithTelemetrySink(s telemetry.Sink) Option {
	return func(c *Config) { c.TelemetrySink = s }
}

// WithShards partitions the packet simulation over k schedulers running
// on k goroutines, synchronized by conservative lookahead windows.
// Results are bit-identical to the serial run for every k; only the
// wall-clock time changes. k = 0 or 1 means serial. Packet backend only.
func WithShards(k int) Option {
	return func(c *Config) { c.Shards = k }
}

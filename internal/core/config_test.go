package core

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/queue"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig(20, Reno, FIFO)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Duration != 200*time.Second {
		t.Errorf("Duration = %v, want 200s", cfg.Duration)
	}
	if cfg.BufferPackets != 50 {
		t.Errorf("BufferPackets = %d, want 50", cfg.BufferPackets)
	}
	if cfg.MaxWindow != 20 {
		t.Errorf("MaxWindow = %d, want 20", cfg.MaxWindow)
	}
	if cfg.PacketSize != 1000 {
		t.Errorf("PacketSize = %d, want 1000", cfg.PacketSize)
	}
	if cfg.QueueName() != "fifo" {
		t.Errorf("QueueName = %q, want fifo", cfg.QueueName())
	}
	if red := queue.DefaultREDConfig(cfg.BufferPackets, 0, nil); red.MinThreshold != 10 || red.MaxThreshold != 40 {
		t.Errorf("RED thresholds %v/%v, want 10/40", red.MinThreshold, red.MaxThreshold)
	}
	if cfg.Vegas.Alpha != 1 || cfg.Vegas.Beta != 3 || cfg.Vegas.Gamma != 1 {
		t.Errorf("Vegas params %+v, want 1/3/1", cfg.Vegas)
	}
}

func TestRTTIsRoundTripPropagation(t *testing.T) {
	cfg := DefaultConfig(1, Reno, FIFO)
	if got := cfg.RTT(); got != 44*time.Millisecond {
		t.Errorf("RTT() = %v, want 44ms = 2(2ms+20ms)", got)
	}
}

func TestLambdaAndOfferedLoad(t *testing.T) {
	cfg := DefaultConfig(38, Reno, FIFO)
	if got := cfg.Lambda(); math.Abs(got-100) > 1e-9 {
		t.Errorf("Lambda() = %v, want 100", got)
	}
	// 38 clients × 0.8 Mbps = 30.4 Mbps.
	if got := cfg.OfferedLoadBps(); math.Abs(got-30.4e6) > 1 {
		t.Errorf("OfferedLoadBps() = %v, want 30.4e6", got)
	}
}

func TestCongestionCrossoverBetween38And39(t *testing.T) {
	// The paper's regimes: uncongested < 10, moderate 10–38, heavy > 38.
	cases := map[int]string{
		5:  "uncongested",
		9:  "uncongested",
		10: "moderate",
		20: "moderate",
		38: "moderate",
		39: "heavy",
		60: "heavy",
	}
	for n, want := range cases {
		cfg := DefaultConfig(n, Reno, FIFO)
		if got := cfg.CongestionLevel(); got != want {
			t.Errorf("CongestionLevel(%d clients) = %q, want %q", n, got, want)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"no clients", func(c *Config) { c.Clients = 0 }, "clients"},
		{"bad protocol", func(c *Config) { c.Protocol = Protocol(99) }, "protocol"},
		{"bad queue", func(c *Config) { c.Gateway = GatewayQueue(99) }, "queue"},
		{"zero duration", func(c *Config) { c.Duration = 0 }, "duration"},
		{"warmup beyond duration", func(c *Config) { c.Warmup = time.Hour }, "warmup"},
		{"zero rate", func(c *Config) { c.ClientRateBps = -1 }, "rate"},
		{"negative delay", func(c *Config) { c.ClientDelay = -time.Second }, "delay"},
		{"zero buffer", func(c *Config) { c.BufferPackets = -1 }, "buffer"},
		{"zero packet", func(c *Config) { c.PacketSize = -1 }, "packet size"},
		{"zero interval", func(c *Config) { c.MeanInterval = -time.Second }, "interval"},
		{"trace client out of range", func(c *Config) { c.TraceClients = []int{99} }, "trace client"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(10, Reno, FIFO)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("Validate() = %v, want mention of %q", err, tc.substr)
			}
		})
	}
}

// TestValidateRejectsOutOfRangeTunables: each of these used to pass
// Validate and then either run on silently clamped values (a negative
// access buffer became a 1-packet FIFO, a negative MinRTO shortened every
// timeout) or fail deep inside the transport. Each must be rejected at
// config time, by name.
func TestValidateRejectsOutOfRangeTunables(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"negative access buffer", func(c *Config) { c.AccessBufferPackets = -5 }, "access buffer packets -5"},
		{"negative reverse buffer", func(c *Config) { c.ReverseBufferPackets = -1 }, "reverse buffer packets -1"},
		{"negative ack size", func(c *Config) { c.AckSize = -40 }, "ack size -40"},
		{"negative max window", func(c *Config) { c.MaxWindow = -3 }, "max window -3"},
		{"negative min RTO", func(c *Config) { c.MinRTO = -time.Second }, "min RTO -1s"},
		{"negative delayed ACK timeout", func(c *Config) { c.DelayedAckTimeout = -time.Millisecond }, "delayed ACK timeout -1ms"},
		{"negative packet log capacity", func(c *Config) { c.PacketLogCapacity = -1 }, "packet log capacity -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4, RenoDelayAck, FIFO)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.substr)
			}
		})
	}
}

// TestValidateRejectsTraceSettings: trace settings that would otherwise
// run and silently misbehave are configuration errors. A duplicated trace
// client correlates with itself and inflates CwndSyncIndex, a negative
// sample interval disables tracing, and a queue trace without a sample
// interval records nothing.
func TestValidateRejectsTraceSettings(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		substr string
	}{
		{"duplicate trace client", func(c *Config) {
			c.CwndSampleInterval = 100 * time.Millisecond
			c.TraceClients = []int{1, 1, 2}
		}, "trace client 1 listed twice"},
		{"negative cwnd sample interval", func(c *Config) {
			c.CwndSampleInterval = -100 * time.Millisecond
		}, "cwnd sample interval"},
		{"queue trace without interval", func(c *Config) {
			c.TraceQueue = true
		}, "queue tracing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(10, Reno, FIFO)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.substr)
			}
		})
	}
}

func TestWithDefaultsFillsZeroFields(t *testing.T) {
	cfg := Config{Clients: 5, Protocol: Vegas, Gateway: RED}
	full := cfg.WithDefaults()
	if err := full.Validate(); err != nil {
		t.Fatalf("WithDefaults produced invalid config: %v", err)
	}
	if full.Duration != 200*time.Second || full.MaxWindow != 20 {
		t.Errorf("defaults not applied: %+v", full)
	}
	// Explicit values survive.
	cfg.Duration = 7 * time.Second
	cfg.BufferPackets = 99
	full = cfg.WithDefaults()
	if full.Duration != 7*time.Second || full.BufferPackets != 99 {
		t.Error("explicit values overwritten by WithDefaults")
	}
}

// TestLabelBeforeDefaults checks that Label and QueueName name the
// discipline WithDefaults would pick on a config that has not been
// defaulted, instead of dereferencing its nil Queue.
func TestLabelBeforeDefaults(t *testing.T) {
	ecn, err := queue.ParseSpec("red?ecn=true")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Config{
		"base":        BaseConfig(),
		"base reno":   BaseConfig(WithClients(20), WithProtocol(Reno), WithSeed(3)),
		"gateway red": {Clients: 39, Protocol: Vegas, Gateway: RED},
		"gateway drr": {Clients: 5, Protocol: Reno, Gateway: DRR},
		"spec":        BaseConfig(WithClients(7), WithGatewayDiscipline(ecn)),
	}
	for name, cfg := range cases {
		d := cfg.WithDefaults()
		if got, want := cfg.Label(), d.Label(); got != want {
			t.Errorf("%s: Label() = %q, want %q", name, got, want)
		}
		if got, want := cfg.QueueName(), d.QueueName(); got != want {
			t.Errorf("%s: QueueName() = %q, want %q", name, got, want)
		}
	}
}

func TestProtocolParsingRoundTrip(t *testing.T) {
	for _, p := range Protocols() {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Error("bogus protocol parsed")
	}
}

func TestProtocolTCPMapping(t *testing.T) {
	if UDP.IsTCP() {
		t.Error("UDP claims to be TCP")
	}
	for _, p := range []Protocol{Reno, RenoDelayAck, Vegas, Tahoe, NewReno} {
		if !p.IsTCP() {
			t.Errorf("%v not TCP", p)
		}
	}
	if Reno.TCPVariant() != RenoDelayAck.TCPVariant() {
		t.Error("RenoDelayAck must use the Reno congestion control")
	}
}

func TestPaperCellsMatchFigureLegends(t *testing.T) {
	cells := PaperCells()
	if len(cells) != 6 {
		t.Fatalf("PaperCells() has %d entries, want 6", len(cells))
	}
	labels := make([]string, len(cells))
	for i, c := range cells {
		labels[i] = c.String()
	}
	want := []string{"udp", "reno", "reno/red", "vegas", "vegas/red", "reno-delayack"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("cell labels = %v, want %v", labels, want)
		}
	}
}

// TestSweepClientsPinsLists pins the x-axes the sweep commands build: the
// crossover points join any step that misses them, a step that hits one
// does not repeat it, and a max below them drops both.
func TestSweepClientsPinsLists(t *testing.T) {
	for _, tc := range []struct {
		step, maxN int
		want       []int
	}{
		{4, 60, []int{4, 8, 12, 16, 20, 24, 28, 32, 36, 38, 39, 40, 44, 48, 52, 56, 60}},
		{8, 60, []int{8, 16, 24, 32, 38, 39, 40, 48, 56}},
		{19, 60, []int{19, 38, 39, 57}},
		{10, 30, []int{10, 20, 30}},
	} {
		if got := SweepClients(tc.step, tc.maxN); !slices.Equal(got, tc.want) {
			t.Errorf("SweepClients(%d, %d) = %v, want %v", tc.step, tc.maxN, got, tc.want)
		}
	}
	if got, want := DefaultSweepClients(), SweepClients(4, 60); !slices.Equal(got, want) {
		t.Errorf("DefaultSweepClients() = %v, want SweepClients(4, 60) = %v", got, want)
	}
}

func TestDefaultSweepClientsIncludesCrossover(t *testing.T) {
	clients := DefaultSweepClients()
	has := func(n int) bool {
		for _, c := range clients {
			if c == n {
				return true
			}
		}
		return false
	}
	for _, n := range []int{4, 38, 39, 60} {
		if !has(n) {
			t.Errorf("sweep clients missing %d: %v", n, clients)
		}
	}
	for i := 1; i < len(clients); i++ {
		if clients[i] <= clients[i-1] {
			t.Fatalf("sweep clients not strictly increasing: %v", clients)
		}
	}
}

package core

import (
	"reflect"
	"testing"
	"time"
)

func TestMixValidation(t *testing.T) {
	cfg := DefaultConfig(10, Reno, FIFO)
	cfg.Mix = []MixEntry{{Protocol: Reno, Clients: 5}, {Protocol: Vegas, Clients: 4}}
	if err := cfg.Validate(); err == nil {
		t.Error("mix totaling 9 accepted with Clients=10")
	}
	cfg.Mix[1].Clients = 5
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	cfg.Mix[0].Clients = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero-size mix block accepted")
	}
	cfg.Mix[0] = MixEntry{Protocol: Protocol(99), Clients: 5}
	if err := cfg.Validate(); err == nil {
		t.Error("unknown mix protocol accepted")
	}
}

func TestMixDefaultsFillClientsAndProtocol(t *testing.T) {
	cfg := Config{
		Gateway: FIFO,
		Mix:     []MixEntry{{Protocol: Reno, Clients: 3}, {Protocol: Vegas, Clients: 7}},
	}
	full := cfg.WithDefaults()
	if full.Clients != 10 {
		t.Errorf("Clients = %d, want 10 (mix sum)", full.Clients)
	}
	if full.Protocol != Reno {
		t.Errorf("Protocol = %v, want first mix entry", full.Protocol)
	}
	if err := full.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestClientProtocolAssignment pins how the dumbbell description maps Mix
// blocks onto client groups: protocols in block order, and client i on
// traffic stream i+1 whatever its block.
func TestClientProtocolAssignment(t *testing.T) {
	assign := func(cfg Config) ([]Protocol, []int64) {
		var protos []Protocol
		var streams []int64
		for _, g := range dumbbell(cfg).groups {
			for c := 0; c < g.clients; c++ {
				protos = append(protos, g.proto)
				streams = append(streams, g.stream+int64(c))
			}
		}
		return protos, streams
	}
	cfg := Config{
		Clients: 6,
		Mix:     []MixEntry{{Protocol: Reno, Clients: 2}, {Protocol: Vegas, Clients: 3}, {Protocol: UDP, Clients: 1}},
	}
	protos, streams := assign(cfg)
	if want := []Protocol{Reno, Reno, Vegas, Vegas, Vegas, UDP}; !reflect.DeepEqual(protos, want) {
		t.Errorf("protocols = %v, want %v", protos, want)
	}
	if want := []int64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(streams, want) {
		t.Errorf("traffic streams = %v, want %v", streams, want)
	}
	// Homogeneous fallback.
	if protos, _ := assign(Config{Clients: 3, Protocol: Tahoe}); !reflect.DeepEqual(protos, []Protocol{Tahoe, Tahoe, Tahoe}) {
		t.Errorf("homogeneous protocols = %v, want all tahoe", protos)
	}
}

func TestMixedRunSplitsByProtocol(t *testing.T) {
	cfg := Config{
		Gateway:  FIFO,
		Duration: 30 * time.Second,
		Mix: []MixEntry{
			{Protocol: Reno, Clients: 25},
			{Protocol: Vegas, Clients: 25},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.ByProtocol) != 2 {
		t.Fatalf("ByProtocol has %d entries, want 2", len(res.ByProtocol))
	}
	reno, vegas := res.ByProtocol[Reno], res.ByProtocol[Vegas]
	if reno.Flows != 25 || vegas.Flows != 25 {
		t.Errorf("flows split %d/%d, want 25/25", reno.Flows, vegas.Flows)
	}
	if reno.Delivered+vegas.Delivered != res.Delivered {
		t.Errorf("per-protocol delivered %d+%d != total %d",
			reno.Delivered, vegas.Delivered, res.Delivered)
	}
	// Per-flow protocols recorded.
	if res.Flows[0].Protocol != Reno || res.Flows[49].Protocol != Vegas {
		t.Errorf("flow protocols: first=%v last=%v", res.Flows[0].Protocol, res.Flows[49].Protocol)
	}
	if reno.Generated == 0 || vegas.Generated == 0 || reno.Delivered == 0 || vegas.Delivered == 0 {
		t.Error("one protocol block made no progress")
	}
}

func TestRenoOutGrabsVegasWhenQueueShareExceedsBeta(t *testing.T) {
	// The classic competition result (paper ref [12], Mo et al.): greedy
	// Reno takes bandwidth from conservative Vegas on a shared FIFO
	// bottleneck. The effect requires each flow's fair queue share to
	// exceed Vegas's beta so that Vegas actually detects queueing and
	// backs off — few flows, high per-flow demand.
	cfg := Config{
		Gateway:      FIFO,
		Duration:     60 * time.Second,
		MeanInterval: 2 * time.Millisecond, // 500 pkt/s demand per client
		Mix: []MixEntry{
			{Protocol: Reno, Clients: 5},
			{Protocol: Vegas, Clients: 5},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	reno, vegas := res.ByProtocol[Reno], res.ByProtocol[Vegas]
	if reno.Delivered <= vegas.Delivered {
		t.Errorf("reno delivered %d <= vegas %d; expected Reno to out-grab Vegas",
			reno.Delivered, vegas.Delivered)
	}
}

func TestMixedTracingSkipsUDP(t *testing.T) {
	cfg := Config{
		Gateway:            FIFO,
		Duration:           5 * time.Second,
		CwndSampleInterval: 100 * time.Millisecond,
		TraceClients:       []int{1, 2},
		Mix: []MixEntry{
			{Protocol: UDP, Clients: 1},
			{Protocol: Reno, Clients: 1},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.CwndTraces) != 1 {
		t.Fatalf("traces = %d, want 1 (UDP client skipped)", len(res.CwndTraces))
	}
	if res.CwndTraces[0].Name != "client2" {
		t.Errorf("trace name = %q, want client2", res.CwndTraces[0].Name)
	}
}

func TestHomogeneousRunHasSingleProtocolEntry(t *testing.T) {
	res, err := Run(shortConfig(5, Vegas, FIFO, 5*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.ByProtocol) != 1 {
		t.Fatalf("ByProtocol = %v", res.ByProtocol)
	}
	if res.ByProtocol[Vegas].Flows != 5 {
		t.Errorf("Vegas flows = %d, want 5", res.ByProtocol[Vegas].Flows)
	}
}

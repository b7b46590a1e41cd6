package core

import (
	"strings"
	"testing"
	"time"
)

func TestChainValidation(t *testing.T) {
	if _, err := RunParkingLot(ChainConfig{LongClients: 0}); err == nil {
		t.Error("zero long clients accepted")
	}
	if _, err := RunParkingLot(ChainConfig{LongClients: 1, Hop1Clients: -1}); err == nil {
		t.Error("negative cross traffic accepted")
	}
	// Dumbbell-only Base fields the parking lot cannot honor are rejected
	// by name instead of silently ignored.
	for field, base := range map[string]Config{
		"Backend":              {Backend: FluidBackend},
		"Mix":                  {Mix: []MixEntry{{Protocol: Reno, Clients: 2}}},
		"Warmup":               {Warmup: time.Second},
		"ClientDelayJitter":    {ClientDelayJitter: time.Millisecond},
		"WireLossProb":         {WireLossProb: 0.01},
		"ReverseRateBps":       {ReverseRateBps: 1e6},
		"ReverseBufferPackets": {ReverseBufferPackets: 8},
		"CwndSampleInterval":   {CwndSampleInterval: 100 * time.Millisecond},
		"TraceClients":         {TraceClients: []int{1}},
		"TraceQueue":           {TraceQueue: true},
		"PacketLogCapacity":    {PacketLogCapacity: 10},
		"TelemetryInterval":    {TelemetryInterval: 100 * time.Millisecond},
	} {
		_, err := RunParkingLot(ChainConfig{LongClients: 2, Duration: time.Second, Base: base})
		if err == nil || !strings.Contains(err.Error(), "Base."+field) {
			t.Errorf("Base.%s: err = %v, want it rejected by name", field, err)
		}
	}
	// Any shard count up to one per host runs; beyond that is rejected.
	for _, k := range []int{3, 4} {
		if _, err := RunParkingLot(ChainConfig{LongClients: 2, Hop1Clients: 1, Hop2Clients: 1, Duration: time.Second, Shards: k}); err != nil {
			t.Errorf("shards %d rejected: %v", k, err)
		}
	}
	if _, err := RunParkingLot(ChainConfig{LongClients: 1, Duration: time.Second, Shards: 4}); err == nil {
		t.Error("4 shards accepted for 3 hosts")
	}
}

func TestChainUncongestedDeliversEverything(t *testing.T) {
	res, err := RunParkingLot(ChainConfig{
		LongClients: 4,
		Hop1Clients: 4,
		Hop2Clients: 4,
		Protocol:    Reno,
		Duration:    20 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunParkingLot: %v", err)
	}
	for name, g := range map[string]ChainGroupResult{
		"long": res.Long, "hop1": res.Hop1, "hop2": res.Hop2,
	} {
		if g.Generated == 0 {
			t.Fatalf("%s generated nothing", name)
		}
		// Uncongested: nearly everything delivered (residue in flight).
		if g.Delivered < g.Generated*95/100 {
			t.Errorf("%s delivered %d of %d", name, g.Delivered, g.Generated)
		}
		if g.Timeouts != 0 {
			t.Errorf("%s timeouts = %d on an uncongested chain", name, g.Timeouts)
		}
	}
	if res.DropsHop1 != 0 || res.DropsHop2 != 0 {
		t.Errorf("drops = %d/%d on an uncongested chain", res.DropsHop1, res.DropsHop2)
	}
}

func TestChainLongFlowsDisadvantaged(t *testing.T) {
	// The classic parking-lot outcome: flows crossing both congested
	// bottlenecks receive less than equal-count single-hop competitors
	// on the shared hop.
	res, err := RunParkingLot(ChainConfig{
		LongClients: 20,
		Hop1Clients: 20,
		Hop2Clients: 20,
		Protocol:    Reno,
		Duration:    40 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunParkingLot: %v", err)
	}
	if res.DropsHop1 == 0 && res.DropsHop2 == 0 {
		t.Fatal("no congestion anywhere; test regime wrong")
	}
	if res.LongShareHop2 >= 0.5 {
		t.Errorf("long flows took %.3f of hop 2; multi-bottleneck flows should get less than half",
			res.LongShareHop2)
	}
	if res.Long.Delivered >= res.Hop2.Delivered {
		t.Errorf("long delivered %d >= hop2-only %d", res.Long.Delivered, res.Hop2.Delivered)
	}
}

func TestChainBothBottlenecksMeasured(t *testing.T) {
	res, err := RunParkingLot(ChainConfig{
		LongClients: 15,
		Hop1Clients: 25,
		Hop2Clients: 25,
		Protocol:    Reno,
		Duration:    30 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunParkingLot: %v", err)
	}
	if res.COVHop1 <= 0 || res.COVHop2 <= 0 {
		t.Errorf("cov measurements missing: %.4f / %.4f", res.COVHop1, res.COVHop2)
	}
}

func TestChainDeterministic(t *testing.T) {
	cfg := ChainConfig{
		LongClients: 5, Hop1Clients: 5, Hop2Clients: 5,
		Protocol: Vegas, Duration: 10 * time.Second,
	}
	a, err := RunParkingLot(cfg)
	if err != nil {
		t.Fatalf("RunParkingLot: %v", err)
	}
	b, err := RunParkingLot(cfg)
	if err != nil {
		t.Fatalf("RunParkingLot: %v", err)
	}
	if a.Long.Delivered != b.Long.Delivered || a.COVHop1 != b.COVHop1 {
		t.Error("identical chain configs produced different results")
	}
}

func TestChainWithREDAndDRR(t *testing.T) {
	for _, q := range []GatewayQueue{RED, DRR} {
		res, err := RunParkingLot(ChainConfig{
			LongClients: 15, Hop1Clients: 20, Hop2Clients: 20,
			Protocol: Reno, Duration: 20 * time.Second, Base: Config{Gateway: q},
		})
		if err != nil {
			t.Fatalf("RunParkingLot(%v): %v", q, err)
		}
		if res.Long.Delivered == 0 || res.Hop1.Delivered == 0 {
			t.Errorf("%v: no delivery", q)
		}
	}
}

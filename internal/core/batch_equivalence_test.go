package core

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestBatchingMatchesUnbatched is the burst-train determinism contract:
// coalesced delivery and the overprovisioned-link serialization
// pipeline must not change a single bit of any result.
// Every paper cell runs at several client counts with batching on and
// off, and the full summaries are compared byte for byte. This is the same contract the golden-digest table pins
// against history; here it is pinned against the per-packet executor
// directly, so a coalescing bug cannot hide behind a golden refresh.
func TestBatchingMatchesUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("full-cell equivalence matrix is slow")
	}
	clientCounts := []int{20, 39, 60}
	// SACK rides along beyond the paper cells: its ACK-clocked bursts
	// after recovery produce the longest trains of any protocol.
	cells := append(PaperCells(), Cell{Protocol: Sack, Gateway: FIFO})
	for _, cell := range cells {
		for _, n := range clientCounts {
			cell, n := cell, n
			t.Run(fmt.Sprintf("%s/n%d", cell, n), func(t *testing.T) {
				t.Parallel()
				cfg := DefaultConfig(n, cell.Protocol, cell.Gateway)
				cfg.Duration = 2 * time.Second
				compareBatchedUnbatched(t, cfg)
			})
		}
	}
}

// TestBatchingMatchesUnbatchedPareto covers the regime the batching
// work is tuned for: heavy-tailed on/off sources bursting at access
// line rate, where trains grow longest and the serialization pipeline
// is hottest. A divergence that only appears under long trains would
// escape the Poisson cells above.
func TestBatchingMatchesUnbatchedPareto(t *testing.T) {
	if testing.Short() {
		t.Skip("pareto equivalence run is slow")
	}
	cfg := DefaultConfig(60, Reno, RED)
	cfg.Duration = 5 * time.Second
	cfg.Traffic = TrafficParetoOnOff
	cfg.BufferPackets = 20
	// In-burst spacing equals the access serialization time, so each
	// on-period leaves the client as one back-to-back train.
	cfg.MeanOnTime = 10 * time.Millisecond
	cfg.MeanOffTime = 90 * time.Millisecond
	compareBatchedUnbatched(t, cfg)
}

// TestBatchingShardedParetoBursts pins the shard-edge train split: under
// line-rate Pareto bursts the wire trains regularly straddle the window
// barrier, and the coalesced run must stay byte-identical both to the
// serial schedule and to the per-event executor at every shard count.
func TestBatchingShardedParetoBursts(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded pareto equivalence run is slow")
	}
	base := DefaultConfig(60, Reno, FIFO)
	base.Duration = 5 * time.Second
	base.Traffic = TrafficParetoOnOff
	base.BufferPackets = 20
	base.MeanOnTime = 10 * time.Millisecond
	base.MeanOffTime = 90 * time.Millisecond
	run := func(shards int, disable bool) []byte {
		t.Helper()
		cfg := base
		cfg.Shards = shards
		cfg.DisableBatching = disable
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(shards=%d, disable=%v): %v", shards, disable, err)
		}
		s := res.Summary()
		s.SchemaVersion = 0
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal summary: %v", err)
		}
		return raw
	}
	want := string(run(1, true)) // serial per-event reference
	for _, shards := range []int{1, 2, 4} {
		if got := string(run(shards, false)); got != want {
			t.Errorf("batched shards=%d diverges from serial per-event run:\nwant: %s\ngot:  %s",
				shards, want, got)
		}
	}
}

func compareBatchedUnbatched(t *testing.T, cfg Config) {
	t.Helper()
	batched := cfg
	batched.DisableBatching = false
	batchedRes, err := Run(batched)
	if err != nil {
		t.Fatalf("batched run: %v", err)
	}
	unbatched := cfg
	unbatched.DisableBatching = true
	unbatchedRes, err := Run(unbatched)
	if err != nil {
		t.Fatalf("unbatched run: %v", err)
	}

	batchedSum, err := json.Marshal(batchedRes.Summary())
	if err != nil {
		t.Fatalf("marshal batched summary: %v", err)
	}
	unbatchedSum, err := json.Marshal(unbatchedRes.Summary())
	if err != nil {
		t.Fatalf("marshal unbatched summary: %v", err)
	}
	if string(batchedSum) != string(unbatchedSum) {
		t.Errorf("batched and unbatched summaries differ:\nbatched:   %s\nunbatched: %s",
			batchedSum, unbatchedSum)
	}
}

// TestBatchingMatchesUnbatchedParkingLot extends the contract to the
// two-hop topology, whose chain links and cross-traffic sinks have
// their own train wiring and whose shard-window edges split trains. The
// summary includes the per-bottleneck and per-group measurements.
func TestBatchingMatchesUnbatchedParkingLot(t *testing.T) {
	compareBatchedUnbatched(t, Config{
		ParkingLot: &ParkingLot{Long: 4, Hop1: 3, Hop2: 3},
		Protocol:   Reno,
		Gateway:    FIFO,
		Duration:   2 * time.Second,
	})
}

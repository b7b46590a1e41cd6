package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"tcpburst/internal/queue"
)

// The golden-digest table is the behavior-preservation contract for
// hot-path refactors: every paper cell (plus the SACK and DRR extension
// cells, whose data structures are the trickiest) runs at three client
// counts, and the SHA-256 of its full summary JSON must match the digest
// captured before the refactor. Regenerate deliberately with
//
//	go test ./internal/core -run TestGoldenSummaries -update-golden
//
// and justify the diff in review: a changed digest means a changed
// simulation, not a faster one.

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_summaries.json from the current implementation")

const goldenPath = "testdata/golden_summaries.json"

// goldenDuration keeps the guard fast; determinism bugs that need longer
// horizons are the equivalence matrix's job.
const goldenDuration = 2 * time.Second

// goldenCase is one named deterministic run.
type goldenCase struct {
	name string
	run  func() ([]byte, error)
}

// goldenCases builds the digest matrix. shards > 1 runs every packet cell
// partitioned over that many schedulers — the digests must still match the
// serial table entry for entry, which is the tentpole determinism claim:
// sharding changes wall-clock time and nothing else. The parking-lot cases
// replay at the same shard counts as the dumbbell cells.
func goldenCases(shards int) []goldenCase {
	cells := append(PaperCells(),
		Cell{Protocol: Sack, Gateway: FIFO},
		Cell{Protocol: Reno, Gateway: DRR},
		// Registry-built disciplines join the matrix as spec cells: the AQM
		// control laws (drop timing, ECN marks, admission sheds) are exactly
		// the kind of behavior a hot-path refactor can bend without failing
		// any unit test.
		Cell{Protocol: Reno, Queue: "codel"},
		Cell{Protocol: Reno, Queue: "pie"},
		Cell{Protocol: Reno, Queue: "red?ecn=true"},
		Cell{Protocol: Reno, Queue: "tokenbucket?burst=25&rate=2000"},
	)
	var cases []goldenCase
	for _, cell := range cells {
		for _, n := range []int{20, 39, 60} {
			cell, n := cell, n
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/n%d", cell, n),
				run: func() ([]byte, error) {
					cfg := DefaultConfig(n, cell.Protocol, cell.Gateway)
					if err := cell.applyTo(&cfg); err != nil {
						return nil, err
					}
					cfg.Duration = goldenDuration
					cfg.Shards = shards
					return goldenSummary(cfg)
				},
			})
		}
	}
	for _, lot := range []struct {
		name string
		cfg  Config
	}{
		{"parkinglot", Config{ParkingLot: &ParkingLot{Long: 4, Hop1: 3, Hop2: 3}, Gateway: FIFO}},
		// A registry discipline at both bottlenecks, loaded enough that
		// CoDel's control law drops at each (the light lot above never
		// queues, so it would replay the FIFO digest).
		{"parkinglot/codel", Config{ParkingLot: &ParkingLot{Long: 20, Hop1: 20, Hop2: 20}, Queue: &queue.Spec{Name: "codel"}}},
	} {
		lot := lot
		cases = append(cases, goldenCase{
			name: lot.name,
			run: func() ([]byte, error) {
				cfg := lot.cfg
				cfg.Protocol, cfg.Duration, cfg.Shards = Reno, goldenDuration, shards
				return goldenSummary(cfg)
			},
		})
	}
	seen := make(map[string]bool, len(cases))
	for _, c := range cases {
		if seen[c.name] {
			// computeGoldenDigests keys by name, so a duplicate would keep
			// whichever run finished last and pin the other nowhere.
			panic("golden: duplicate case name " + c.name)
		}
		seen[c.name] = true
	}
	return cases
}

// goldenSummary runs cfg and encodes its summary. The schema stamp is
// encoding metadata, not behavior; it is excluded so the digest survives
// version bumps.
func goldenSummary(cfg Config) ([]byte, error) {
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	s := res.Summary()
	s.SchemaVersion = 0
	return json.Marshal(s)
}

// computeGoldenDigests runs every case on a worker pool and returns
// name -> sha256(summary JSON).
func computeGoldenDigests(t *testing.T, cases []goldenCase) map[string]string {
	t.Helper()
	digests := make(map[string]string, len(cases))
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, c := range cases {
		c := c
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			raw, err := c.run()
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			sum := sha256.Sum256(raw)
			mu.Lock()
			digests[c.name] = hex.EncodeToString(sum[:])
			mu.Unlock()
		}()
	}
	wg.Wait()
	return digests
}

func TestGoldenSummaries(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is slow")
	}

	if *updateGolden {
		digests := computeGoldenDigests(t, goldenCases(1))
		if t.Failed() {
			t.Fatal("not writing golden file: some cases failed")
		}
		names := make([]string, 0, len(digests))
		for name := range digests {
			names = append(names, name)
		}
		sort.Strings(names)
		ordered := make(map[string]string, len(digests)) // json sorts keys
		for _, name := range names {
			ordered[name] = digests[name]
		}
		raw, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatalf("marshal golden table: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write golden table: %v", err)
		}
		t.Logf("wrote %d digests to %s", len(digests), goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden table (regenerate with -update-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}

	got := computeGoldenDigests(t, goldenCases(1))
	if len(got) != len(want) {
		t.Errorf("golden table has %d entries, current run produced %d (regenerate with -update-golden)",
			len(want), len(got))
	}
	for name, wantDigest := range want {
		gotDigest, ok := got[name]
		if !ok {
			t.Errorf("%s: missing from current run", name)
			continue
		}
		if gotDigest != wantDigest {
			t.Errorf("%s: summary digest changed\n  golden:  %s\n  current: %s\nbehavior is no longer bit-for-bit identical to the captured baseline",
				name, wantDigest, gotDigest)
		}
	}
}

// TestGoldenSummariesSharded replays every packet cell of the golden
// matrix partitioned over 2 and 4 shards and demands the serial digests,
// entry for entry. This is the sharded extension of the golden table: the
// table gains no new rows because the whole point is that a sharded run
// has nothing new to pin — any divergence from the serial digest is a
// lost or reordered cross-shard event, not a legitimate new baseline. Do
// NOT regenerate the table to make this test pass; fix the barrier.
func TestGoldenSummariesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is slow")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden table (regenerate with -update-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden table: %v", err)
	}
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			t.Parallel()
			got := computeGoldenDigests(t, goldenCases(shards))
			for name, gotDigest := range got {
				wantDigest, ok := want[name]
				if !ok {
					t.Errorf("%s: not in the golden table", name)
					continue
				}
				if gotDigest != wantDigest {
					t.Errorf("%s: sharded (K=%d) digest diverges from serial\n  serial:  %s\n  sharded: %s\na cross-shard event was lost, duplicated, or reordered",
						name, shards, wantDigest, gotDigest)
				}
			}
		})
	}
}

package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"tcpburst/internal/runcache"
)

// execSweepOptions is a small sweep — two cells, two client counts, short
// duration — that still exercises TCP dynamics.
func execSweepOptions(exec ExecOptions) SweepOptions {
	return SweepOptions{
		Base:    Config{Duration: 10 * time.Second},
		Clients: []int{4, 12},
		Cells: []Cell{
			{Protocol: Reno, Gateway: FIFO},
			{Protocol: Vegas, Gateway: RED},
		},
		Exec: exec,
	}
}

// TestSweepParallelMatchesSerial is the runner's determinism contract: the
// same sweep on one worker and on eight produces identical summaries and
// byte-identical CSV output.
func TestSweepParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	serial, err := RunSweepContext(ctx, execSweepOptions(ExecOptions{Jobs: 1}))
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	parallel, err := RunSweepContext(ctx, execSweepOptions(ExecOptions{Jobs: 8}))
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}

	if len(serial.Points) != len(parallel.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(parallel.Points))
	}
	for i := range serial.Points {
		sp, pp := serial.Points[i], parallel.Points[i]
		if sp.Cell != pp.Cell || sp.Clients != pp.Clients {
			t.Fatalf("point %d order differs: %v/%d vs %v/%d", i, sp.Cell, sp.Clients, pp.Cell, pp.Clients)
		}
		if !reflect.DeepEqual(sp.Result.Summary(), pp.Result.Summary()) {
			t.Errorf("point %d (%s n=%d): summaries differ\nserial:   %+v\nparallel: %+v",
				i, sp.Cell, sp.Clients, sp.Result.Summary(), pp.Result.Summary())
		}
	}
	for _, m := range []struct {
		name    string
		metric  func(*Result) float64
		poisson bool
	}{
		{"cov", MetricCOV, true},
		{"loss", MetricLossPct, false},
	} {
		if s, p := serial.CSV(m.metric, m.poisson), parallel.CSV(m.metric, m.poisson); s != p {
			t.Errorf("%s CSV differs between serial and parallel:\n%s\nvs\n%s", m.name, s, p)
		}
	}
}

// TestRunBatchCacheRoundTrip checks the persistent cache end to end: a cold
// run simulates and stores, a warm run is served entirely from disk, and the
// reconstructed result carries the same summary.
func TestRunBatchCacheRoundTrip(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	exec := ExecOptions{Jobs: 1, Cache: store}
	cfg := Config{Clients: 6, Protocol: Reno, Gateway: FIFO, Duration: 10 * time.Second}
	ctx := context.Background()

	cold, stats, err := RunBatch(ctx, []Config{cfg}, exec)
	if err != nil {
		t.Fatalf("cold RunBatch: %v", err)
	}
	if stats.Ran != 1 || stats.Cached != 0 {
		t.Fatalf("cold stats = %+v, want one fresh run", stats)
	}
	if n, _ := store.Len(); n != 1 {
		t.Fatalf("store Len = %d after cold run, want 1", n)
	}

	warm, stats, err := RunBatch(ctx, []Config{cfg}, exec)
	if err != nil {
		t.Fatalf("warm RunBatch: %v", err)
	}
	if stats.Cached != 1 || stats.Ran != 0 {
		t.Fatalf("warm stats = %+v, want one cache hit", stats)
	}
	if !reflect.DeepEqual(cold[0].Summary(), warm[0].Summary()) {
		t.Errorf("cached summary differs:\ncold: %+v\nwarm: %+v", cold[0].Summary(), warm[0].Summary())
	}
	if warm[0].SimEvents == 0 {
		t.Error("cached result lost its SimEvents telemetry")
	}
	if warm[0].Config.Clients != 6 {
		t.Errorf("cached result lost its config: %+v", warm[0].Config)
	}
}

// TestRunBatchRerunsCorruptEntry: a cache entry damaged on disk fails its
// digest check, so the batch runs the config again, rewrites the entry,
// and the next pass hits it.
func TestRunBatchRerunsCorruptEntry(t *testing.T) {
	cfg := Config{Clients: 4, Protocol: Reno, Gateway: FIFO, Duration: 5 * time.Second}
	for name, damage := range map[string]func([]byte) []byte{
		"flipped byte": func(b []byte) []byte { b[len(b)/2] ^= 0x20; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
	} {
		t.Run(name, func(t *testing.T) {
			store, err := runcache.Open(t.TempDir())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			exec := ExecOptions{Jobs: 1, Cache: store}
			ctx := context.Background()
			if _, _, err := RunBatch(ctx, []Config{cfg}, exec); err != nil {
				t.Fatalf("cold RunBatch: %v", err)
			}
			c := cfg.WithDefaults()
			key, err := runcache.Key(resultCacheKind(c), c)
			if err != nil {
				t.Fatalf("Key: %v", err)
			}
			path := filepath.Join(store.Dir(), key[:2], key[2:]+".json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatalf("write entry: %v", err)
			}
			if _, _, err := store.Get(key); !errors.Is(err, runcache.ErrCorrupt) {
				t.Fatalf("Get on the damaged entry: err = %v, want ErrCorrupt", err)
			}
			for _, pass := range []struct{ ran, cached int }{{1, 0}, {0, 1}} {
				_, stats, err := RunBatch(ctx, []Config{cfg}, exec)
				if err != nil {
					t.Fatalf("RunBatch: %v", err)
				}
				if stats.Ran != pass.ran || stats.Cached != pass.cached {
					t.Fatalf("stats = %+v, want %d run and %d cached", stats, pass.ran, pass.cached)
				}
			}
		})
	}
}

// TestCacheKeyShardIndependent: sharding changes how a result is computed,
// never what it is, so the cache key must not see it — a sweep run with
// -shards 8 must hit entries produced serially and vice versa.
func TestCacheKeyShardIndependent(t *testing.T) {
	base := Config{Clients: 6, Protocol: Reno, Gateway: FIFO, Duration: 10 * time.Second}
	sharded := base
	sharded.Shards = 8
	kSerial, err := runcache.Key(resultCacheKind(base), base)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	kSharded, err := runcache.Key(resultCacheKind(sharded), sharded)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if kSerial != kSharded {
		t.Fatalf("cache keys differ across shard counts: %s vs %s", kSerial, kSharded)
	}

	// End to end: a serial cold run must serve a sharded warm run.
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	exec := ExecOptions{Jobs: 1, Cache: store}
	ctx := context.Background()
	cold, _, err := RunBatch(ctx, []Config{base}, exec)
	if err != nil {
		t.Fatalf("cold RunBatch: %v", err)
	}
	warm, stats, err := RunBatch(ctx, []Config{sharded}, exec)
	if err != nil {
		t.Fatalf("warm RunBatch: %v", err)
	}
	if stats.Cached != 1 || stats.Ran != 0 {
		t.Fatalf("sharded warm stats = %+v, want a hit on the serial entry", stats)
	}
	if !reflect.DeepEqual(cold[0].Summary(), warm[0].Summary()) {
		t.Errorf("sharded warm summary differs from serial cold:\ncold: %+v\nwarm: %+v",
			cold[0].Summary(), warm[0].Summary())
	}
}

// TestCacheMissesAcrossGoldenHash: an entry written by a build with one set
// of golden tables must not serve a build whose golden rows differ, since
// the two simulate differently; the writing build still hits it.
func TestCacheMissesAcrossGoldenHash(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	exec := ExecOptions{Jobs: 1, Cache: store}
	cfgs := []Config{{Clients: 4, Protocol: Reno, Gateway: FIFO, Duration: 5 * time.Second}}
	ctx := context.Background()
	defer func(h string) { goldenHash = h }(goldenHash)
	for _, pass := range []struct {
		golden      string
		ran, cached int
	}{
		{"aaaaaaaaaaaaaaaa", 1, 0},
		{"bbbbbbbbbbbbbbbb", 1, 0},
		{"aaaaaaaaaaaaaaaa", 0, 1},
	} {
		goldenHash = pass.golden
		_, stats, err := RunBatch(ctx, cfgs, exec)
		if err != nil {
			t.Fatalf("golden %s: %v", pass.golden, err)
		}
		if stats.Ran != pass.ran || stats.Cached != pass.cached {
			t.Fatalf("golden %s: stats = %+v, want %d run and %d cached", pass.golden, stats, pass.ran, pass.cached)
		}
	}
}

// TestRunBatchTracedNeverCached: runs that request series data bypass the
// cache, because the stored digest cannot reproduce them.
func TestRunBatchTracedNeverCached(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfg := Config{Clients: 4, Protocol: Reno, Gateway: FIFO, Duration: 5 * time.Second,
		CwndSampleInterval: 100 * time.Millisecond}
	exec := ExecOptions{Jobs: 1, Cache: store}
	ctx := context.Background()
	for pass := 1; pass <= 2; pass++ {
		res, stats, err := RunBatch(ctx, []Config{cfg}, exec)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if stats.Ran != 1 || stats.Cached != 0 {
			t.Fatalf("pass %d stats = %+v, want fresh run (traced configs are uncacheable)", pass, stats)
		}
		if len(res[0].CwndTraces) == 0 {
			t.Fatalf("pass %d: traced run lost its series", pass)
		}
	}
	if n, _ := store.Len(); n != 0 {
		t.Errorf("store Len = %d, want 0 (nothing cacheable)", n)
	}
}

// TestRunContextCancel: a canceled context stops the single-threaded
// simulator at the next virtual-time probe and surfaces ctx.Err().
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Clients: 4, Protocol: Reno, Gateway: FIFO, Duration: 100 * time.Second}
	if _, err := RunContext(ctx, cfg.WithDefaults()); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestRunReplicationsParallelMatchesSerial: replication CIs are identical
// regardless of worker count.
func TestRunReplicationsParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Clients: 6, Protocol: Reno, Gateway: FIFO, Duration: 10 * time.Second}
	seeds := []int64{1, 2, 3, 4}
	serial, err := RunReplicationsContext(ctx, cfg, seeds, ExecOptions{Jobs: 1})
	if err != nil {
		t.Fatalf("serial replications: %v", err)
	}
	parallel, err := RunReplicationsContext(ctx, cfg, seeds, ExecOptions{Jobs: 4})
	if err != nil {
		t.Fatalf("parallel replications: %v", err)
	}
	if serial.COV != parallel.COV || serial.LossPct != parallel.LossPct ||
		serial.Delivered != parallel.Delivered || serial.Timeouts != parallel.Timeouts {
		t.Errorf("confidence intervals differ between worker counts:\nserial:   %+v\nparallel: %+v",
			serial.Metrics(), parallel.Metrics())
	}
}

// TestChainBatchCacheRoundTrip: a parking-lot run caches through RunBatch
// like any dumbbell run, and its cached summary, per-bottleneck and
// per-group slices included, equals the fresh run's.
func TestChainBatchCacheRoundTrip(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	exec := ExecOptions{Jobs: 1, Cache: store}
	cfg := Config{ParkingLot: &ParkingLot{Long: 4, Hop1: 4, Hop2: 4},
		Protocol: Reno, Duration: 10 * time.Second}
	ctx := context.Background()

	cold, stats, err := RunBatch(ctx, []Config{cfg}, exec)
	if err != nil {
		t.Fatalf("cold RunBatch: %v", err)
	}
	if stats.Ran != 1 {
		t.Fatalf("cold stats = %+v", stats)
	}
	warm, stats, err := RunBatch(ctx, []Config{cfg}, exec)
	if err != nil {
		t.Fatalf("warm RunBatch: %v", err)
	}
	if stats.Cached != 1 || stats.Ran != 0 {
		t.Fatalf("warm stats = %+v, want cache hit", stats)
	}
	if len(warm[0].Bottlenecks) != 2 || len(warm[0].Groups) != 3 {
		t.Fatalf("cached result has %d bottlenecks and %d groups, want 2 and 3",
			len(warm[0].Bottlenecks), len(warm[0].Groups))
	}
	if c, w := cold[0].Summary(), warm[0].Summary(); !reflect.DeepEqual(c, w) {
		t.Errorf("cached parking-lot summary differs:\ncold: %+v\nwarm: %+v", c, w)
	}
}

package core

import (
	"context"
	"encoding/json"

	"reflect"
	"sync"
	"testing"
	"time"

	"tcpburst/internal/runcache"
	"tcpburst/internal/telemetry"
)

// telemetryTestConfig is a short Reno/FIFO run with telemetry on.
func telemetryTestConfig(n int) Config {
	return Config{
		Clients: n, Protocol: Reno, Gateway: FIFO,
		Duration:          5 * time.Second,
		TelemetryInterval: 100 * time.Millisecond,
	}
}

// TestTelemetryDoesNotPerturbResults: sampling is read-only, so a run with
// telemetry enabled reports the same physics as the same run without it.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	plain, err := Run(Config{Clients: 10, Protocol: Reno, Gateway: FIFO, Duration: 5 * time.Second})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cfg := telemetryTestConfig(10)
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}
	ps, is := plain.Summary(), instrumented.Summary()
	// The snapshot ticks are extra (read-only) kernel events, so the event
	// count legitimately differs; the physics must not.
	is.TelemetryRecords, ps.SimEvents, is.SimEvents = 0, 0, 0
	if !reflect.DeepEqual(ps, is) {
		t.Errorf("telemetry perturbed the run:\nplain:        %+v\ninstrumented: %+v", ps, is)
	}
}

// TestTelemetryRingRecords checks the sampler contract end to end: a run
// without an explicit sink lands floor(duration/interval)+1 snapshots in
// Result.TelemetryRing with strictly increasing timestamps, and the final
// registry export agrees with the simulation's own counters.
func TestTelemetryRingRecords(t *testing.T) {
	cfg := telemetryTestConfig(6)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := uint64(cfg.Duration/cfg.TelemetryInterval) + 1 // t=0 plus one per tick
	if res.TelemetryRecords != want {
		t.Errorf("TelemetryRecords = %d, want %d", res.TelemetryRecords, want)
	}
	ring := res.TelemetryRing
	if ring == nil {
		t.Fatal("no TelemetryRing on a sinkless telemetry run")
	}
	if uint64(ring.Count()) != want {
		t.Errorf("ring Count = %d, want %d", ring.Count(), want)
	}
	prev := -1.0
	for i := 0; i < ring.Len(); i++ {
		ts, _ := ring.At(i)
		if ts <= prev {
			t.Fatalf("record %d timestamp %v not strictly increasing after %v", i, ts, prev)
		}
		prev = ts
	}
	// The stream's final gw.arrivals must match the link's own counter sum
	// (every data packet and ACK arriving at the bottleneck queue).
	if res.Telemetry == nil {
		t.Fatal("no Telemetry export")
	}
	if got := res.Telemetry.Counters["tcp.delivered"]; got != res.Delivered {
		t.Errorf("telemetry tcp.delivered = %d, result Delivered = %d", got, res.Delivered)
	}
	if got := res.Telemetry.Counters["app.generated"]; got != res.Generated {
		t.Errorf("telemetry app.generated = %d, result Generated = %d", got, res.Generated)
	}
	if got := res.Telemetry.Counters["gw.drops"]; got != res.BottleneckDrops {
		t.Errorf("telemetry gw.drops = %d, result BottleneckDrops = %d", got, res.BottleneckDrops)
	}
	last := ring.Len() - 1
	if ring.Value(last, "sim.events") <= 0 {
		t.Error("sim.events probe never advanced")
	}
	if ring.FieldIndex("cwnd.client1") < 0 || ring.FieldIndex("ssthresh.client1") < 0 {
		t.Errorf("per-flow window probes missing from fields %v", ring.Fields())
	}
}

// TestTelemetryParallelSweep exercises concurrent instrumented runs — under
// -race this is the data-race guard for the whole telemetry path. Each
// config gets its own ring sink; every run must deliver the exact expected
// record count with strictly increasing timestamps.
func TestTelemetryParallelSweep(t *testing.T) {
	const runs = 8
	cfgs := make([]Config, runs)
	rings := make([]*telemetry.Ring, runs)
	for i := range cfgs {
		cfg := telemetryTestConfig(4 + i)
		rings[i] = telemetry.NewRing(256)
		cfg.TelemetrySink = rings[i]
		cfgs[i] = cfg
	}
	results, stats, err := RunBatch(context.Background(), cfgs, ExecOptions{Jobs: 4})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	want := uint64(cfgs[0].Duration/cfgs[0].TelemetryInterval) + 1
	if stats.TelemetryRecords != want*runs {
		t.Errorf("stats.TelemetryRecords = %d, want %d", stats.TelemetryRecords, want*runs)
	}
	for i, res := range results {
		if res.TelemetryRecords != want {
			t.Errorf("run %d: %d records, want %d", i, res.TelemetryRecords, want)
		}
		prev := -1.0
		for j := 0; j < rings[i].Len(); j++ {
			ts, _ := rings[i].At(j)
			if ts <= prev {
				t.Fatalf("run %d record %d: timestamp %v not increasing", i, j, ts)
			}
			prev = ts
		}
	}
}

// TestStaleSchemaVersionIsMiss: a cache entry stored under an older summary
// schema must be re-run, not silently decoded.
func TestStaleSchemaVersionIsMiss(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfg := Config{Clients: 6, Protocol: Reno, Gateway: FIFO, Duration: 5 * time.Second}
	ctx := context.Background()

	res, _, err := RunBatch(ctx, []Config{cfg}, ExecOptions{Jobs: 1, Cache: store})
	if err != nil {
		t.Fatalf("cold RunBatch: %v", err)
	}

	// Rewrite the stored entry as if an older binary had written it.
	key, err := runcache.Key(resultCacheKind(cfg.WithDefaults()), cfg.WithDefaults())
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	s := res[0].Summary()
	s.SchemaVersion = 1
	stale, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal stale summary: %v", err)
	}
	if err := store.Put(key, stale); err != nil {
		t.Fatalf("Put stale entry: %v", err)
	}

	_, stats, err := RunBatch(ctx, []Config{cfg}, ExecOptions{Jobs: 1, Cache: store})
	if err != nil {
		t.Fatalf("warm RunBatch: %v", err)
	}
	if stats.Ran != 1 || stats.Cached != 0 {
		t.Errorf("stale-schema stats = %+v, want a fresh run (stale entries are misses)", stats)
	}

	// The fresh run overwrote the entry; the next pass hits.
	_, stats, err = RunBatch(ctx, []Config{cfg}, ExecOptions{Jobs: 1, Cache: store})
	if err != nil {
		t.Fatalf("third RunBatch: %v", err)
	}
	if stats.Cached != 1 {
		t.Errorf("post-refresh stats = %+v, want a cache hit", stats)
	}
}

// TestRunBatchConcurrentWriters: two RunBatch calls racing on one store —
// the same jobs, cold — must both succeed; the rename race inside
// runcache.Put resolves to whichever writer lands first, since keys are
// content addresses.
func TestRunBatchConcurrentWriters(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfgs := make([]Config, 4)
	for i := range cfgs {
		cfgs[i] = Config{Clients: 4 + i, Protocol: Reno, Gateway: FIFO, Duration: 5 * time.Second}
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	sums := make([][]Summary, 2)
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := RunBatch(ctx, cfgs, ExecOptions{Jobs: 2, Cache: store})
			if err != nil {
				errs[w] = err
				return
			}
			for _, r := range res {
				sums[w] = append(sums[w], r.Summary())
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if !reflect.DeepEqual(sums[0], sums[1]) {
		t.Errorf("concurrent writers disagree:\n%+v\nvs\n%+v", sums[0], sums[1])
	}
	if n, _ := store.Len(); n != len(cfgs) {
		t.Errorf("store Len = %d, want %d", n, len(cfgs))
	}
	_, stats, err := RunBatch(ctx, cfgs, ExecOptions{Jobs: 2, Cache: store})
	if err != nil {
		t.Fatalf("warm RunBatch: %v", err)
	}
	if stats.Cached != len(cfgs) {
		t.Errorf("warm stats = %+v, want all cached", stats)
	}
}

// TestNewConfigDefaultsAndValidation: the options constructor produces the
// same configuration as the defaulted struct literal, and surfaces
// validation errors instead of deferring them to Run.
func TestNewConfigDefaultsAndValidation(t *testing.T) {
	got, err := NewConfig(WithClients(39), WithCell(Cell{Protocol: Vegas, Gateway: RED}), WithSeed(7))
	if err != nil {
		t.Fatalf("NewConfig: %v", err)
	}
	want := DefaultConfig(39, Vegas, RED)
	want.Seed = 7
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NewConfig != DefaultConfig:\ngot:  %+v\nwant: %+v", got, want)
	}

	if _, err := NewConfig(WithProtocol(Reno)); err == nil {
		t.Error("NewConfig with zero clients validated; want error")
	}
	if _, err := NewConfig(WithClients(10), WithTelemetry(-time.Second)); err == nil {
		t.Error("NewConfig with negative telemetry interval validated; want error")
	}

	// BaseConfig applies options verbatim — no defaults, no validation —
	// for sweep templates whose client count is filled per run.
	base := BaseConfig(WithDuration(10*time.Second), WithWireLoss(0.01))
	if base.Clients != 0 || base.Duration != 10*time.Second || base.WireLossProb != 0.01 {
		t.Errorf("BaseConfig mutated beyond its options: %+v", base)
	}
}

// TestConfigLabel pins the label format shared by progress lines and
// per-run telemetry streams.
func TestConfigLabel(t *testing.T) {
	cfg := MustConfig(WithClients(45), WithCell(Cell{Protocol: Reno, Gateway: RED}), WithSeed(3))
	if got, want := cfg.Label(), "reno/red n=45 seed=3"; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
}

// TestTelemetrySinkFactoryLabelsRuns: a sweep streaming every run onto one
// writer distinguishes runs by label, because a telemetry.PerRun sink (here
// one shared JSONL stream) makes a labelled sink for each run.
func TestTelemetrySinkFactoryLabelsRuns(t *testing.T) {
	var buf syncBuffer
	sink := telemetry.NewJSONL(telemetry.NewSyncWriter(&buf))
	cfgs := []Config{telemetryTestConfig(4), telemetryTestConfig(5)}
	for i := range cfgs {
		cfgs[i].TelemetrySink = sink
	}
	if _, _, err := RunBatch(context.Background(), cfgs, ExecOptions{Jobs: 2}); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	perRun := map[string]int{}
	for _, line := range splitLines(buf.String()) {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved or torn JSONL line %q: %v", line, err)
		}
		run, _ := rec["run"].(string)
		perRun[run]++
	}
	want := int(cfgs[0].Duration/cfgs[0].TelemetryInterval) + 1
	for _, cfg := range cfgs {
		// Runs are labelled from the defaulted config, so labels carry
		// the defaulted seed.
		label := cfg.WithDefaults().Label()
		if perRun[label] != want {
			t.Errorf("run %q has %d records, want %d (per-run counts: %v)",
				label, perRun[label], want, perRun)
		}
	}
}

// syncBuffer is a mutex-guarded strings.Builder for concurrent writers.
type syncBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.b = append(b.b, p...)
	return len(p), nil
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.b)
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		if i > 0 {
			out = append(out, s[:i])
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

package runner

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// memCache is an in-memory Cache for tests.
type memCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemCache() *memCache { return &memCache{m: make(map[string][]byte)} }

func (c *memCache) Get(key string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.m[key]
	return data, ok, nil
}

func (c *memCache) Put(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = data
	return nil
}

func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job%d", i),
			Do:    func(context.Context) (int, error) { return i * i, nil },
		}
	}
	return jobs
}

func TestRunInputOrder(t *testing.T) {
	const n = 50
	results, stats, err := Run(context.Background(), Options[int]{Jobs: 8}, squareJobs(n))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range results {
		if v != i*i {
			t.Errorf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
	if stats.Total != n || stats.Ran != n || stats.Failed != 0 || stats.Cached != 0 || stats.Skipped != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRunPanicBecomesJobError(t *testing.T) {
	jobs := squareJobs(3)
	jobs[1].Do = func(context.Context) (int, error) { panic("boom") }
	results, stats, err := Run(context.Background(), Options[int]{Jobs: 2}, jobs)
	if err == nil {
		t.Fatal("want error from panicked job")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %v does not wrap *JobError", err)
	}
	if !je.Panicked || je.Job != 1 || je.Label != "job1" {
		t.Errorf("JobError = %+v", je)
	}
	// The other jobs still completed.
	if results[0] != 0 || results[2] != 4 {
		t.Errorf("surviving results = %v", results)
	}
	if stats.Ran != 2 || stats.Failed != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRunErrorCarriesLabel(t *testing.T) {
	cause := errors.New("no route to host")
	jobs := []Job[int]{{
		Label: "reno n=39",
		Do:    func(context.Context) (int, error) { return 0, cause },
	}}
	_, _, err := Run(context.Background(), Options[int]{}, jobs)
	if !errors.Is(err, cause) {
		t.Fatalf("joined error %v does not wrap the cause", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Label != "reno n=39" {
		t.Errorf("error %v lost the job label", err)
	}
}

func TestRunCancellationSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	const n = 20
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job%d", i),
			Do: func(ctx context.Context) (int, error) {
				once.Do(func() { close(started) })
				select {
				case <-release:
					return 1, nil
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			},
		}
	}
	go func() {
		<-started
		cancel()
		close(release)
	}()
	_, stats, err := Run(ctx, Options[int]{Jobs: 1}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Skipped == 0 {
		t.Errorf("stats = %+v, want skipped jobs after cancel", stats)
	}
	if stats.Ran+stats.Cached+stats.Failed+stats.Skipped != stats.Total {
		t.Errorf("stats do not partition Total: %+v", stats)
	}
}

func TestRunJobTimeout(t *testing.T) {
	jobs := []Job[int]{{
		Label: "slow",
		Do: func(ctx context.Context) (int, error) {
			select {
			case <-time.After(10 * time.Second):
				return 1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		},
	}}
	_, stats, err := Run(context.Background(), Options[int]{JobTimeout: 10 * time.Millisecond}, jobs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if stats.Failed != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRunCacheHitAndFill(t *testing.T) {
	cache := newMemCache()
	opts := Options[int]{
		Jobs:   2,
		Cache:  cache,
		Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
		Decode: func(_ int, data []byte) (int, error) { return strconv.Atoi(string(data)) },
		Weigh:  func(v int) uint64 { return uint64(v) },
	}
	jobs := []Job[int]{
		{Label: "keyed", Key: "k1", Do: func(context.Context) (int, error) { return 7, nil }},
		{Label: "unkeyed", Do: func(context.Context) (int, error) { return 3, nil }},
	}

	// Cold: both run; the keyed job fills the cache.
	results, stats, err := Run(context.Background(), opts, jobs)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	if results[0] != 7 || results[1] != 3 {
		t.Fatalf("cold results = %v", results)
	}
	if stats.Ran != 2 || stats.Cached != 0 {
		t.Errorf("cold stats = %+v", stats)
	}
	if _, ok, _ := cache.Get("k1"); !ok {
		t.Fatal("keyed result was not stored")
	}

	// Warm: the keyed job is served from the cache without running.
	ranAgain := false
	jobs[0].Do = func(context.Context) (int, error) { ranAgain = true; return -1, nil }
	results, stats, err = Run(context.Background(), opts, jobs)
	if err != nil {
		t.Fatalf("warm Run: %v", err)
	}
	if ranAgain {
		t.Error("cached job ran again")
	}
	if results[0] != 7 {
		t.Errorf("warm results[0] = %d, want cached 7", results[0])
	}
	if stats.Cached != 1 || stats.Ran != 1 {
		t.Errorf("warm stats = %+v", stats)
	}
	if stats.SimEvents != 7+3 {
		t.Errorf("SimEvents = %d, want Weigh sum 10", stats.SimEvents)
	}
}

func TestRunCorruptCacheDegradesToMiss(t *testing.T) {
	cache := newMemCache()
	cache.m["k1"] = []byte("not a number")
	opts := Options[int]{
		Cache:  cache,
		Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
		Decode: func(_ int, data []byte) (int, error) { return strconv.Atoi(string(data)) },
	}
	jobs := []Job[int]{{Label: "keyed", Key: "k1", Do: func(context.Context) (int, error) { return 9, nil }}}
	results, stats, err := Run(context.Background(), opts, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if results[0] != 9 || stats.Ran != 1 || stats.Cached != 0 {
		t.Errorf("results = %v stats = %+v, want fresh run on corrupt entry", results, stats)
	}
	if data, _, _ := cache.Get("k1"); string(data) != "9" {
		t.Errorf("corrupt entry not repaired: %q", data)
	}
}

func TestRunEvents(t *testing.T) {
	var mu sync.Mutex
	counts := make(map[EventKind]int)
	var lastDone int
	opts := Options[int]{
		Jobs: 4,
		OnEvent: func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			counts[ev.Kind]++
			if ev.Total != 10 {
				t.Errorf("event Total = %d, want 10", ev.Total)
			}
			if ev.Kind == EventDone {
				lastDone = ev.Done
			}
		},
	}
	if _, _, err := Run(context.Background(), opts, squareJobs(10)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if counts[EventQueued] != 10 || counts[EventStarted] != 10 || counts[EventDone] != 10 {
		t.Errorf("event counts = %v", counts)
	}
	if counts[EventFailed] != 0 || counts[EventCached] != 0 {
		t.Errorf("unexpected failure/cache events: %v", counts)
	}
	if lastDone != 10 {
		t.Errorf("final Done = %d, want 10", lastDone)
	}
}

func TestStatsAddAndDerived(t *testing.T) {
	a := Stats{Total: 2, Ran: 2, Wall: time.Second, JobWall: 4 * time.Second, SimEvents: 1000, GCCycles: 3, AllocBytes: 7 << 20}
	b := Stats{Total: 1, Cached: 1, Wall: time.Second, SimEvents: 500, GCCycles: 1, AllocBytes: 1 << 20}
	sum := a.Add(b)
	if sum.Total != 3 || sum.Ran != 2 || sum.Cached != 1 || sum.SimEvents != 1500 ||
		sum.GCCycles != 4 || sum.AllocBytes != 8<<20 {
		t.Errorf("Add = %+v", sum)
	}
	if table := sum.Table(); !strings.Contains(table, "8.4 MB allocated · 4 GC cycles") {
		t.Errorf("Table() has no heap line:\n%s", table)
	}
	if got := a.Speedup(); got != 4 {
		t.Errorf("Speedup = %g, want 4", got)
	}
	if got := a.EventsPerSec(); got != 1000 {
		t.Errorf("EventsPerSec = %g, want 1000", got)
	}
	var zero Stats
	if zero.Speedup() != 0 || zero.EventsPerSec() != 0 {
		t.Error("zero-wall stats must not divide by zero")
	}
}

func TestEventKindString(t *testing.T) {
	for kind, want := range map[EventKind]string{
		EventQueued: "queued", EventStarted: "started", EventDone: "done",
		EventCached: "cached", EventFailed: "failed", EventKind(99): "eventkind(99)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

// TestStatsReportHeapCost: a batch that runs its jobs reports the heap
// bytes they allocated, and a batch served wholly from the cache reports
// far fewer.
func TestStatsReportHeapCost(t *testing.T) {
	const perJob = 1 << 20
	cache := newMemCache()
	jobs := make([]Job[int], 4)
	// held keeps each job's allocation reachable until the batch ends.
	held := make([][]byte, len(jobs))
	for i := range jobs {
		jobs[i] = Job[int]{
			Label: strconv.Itoa(i),
			Key:   "k" + strconv.Itoa(i),
			Do: func(context.Context) (int, error) {
				held[i] = make([]byte, perJob)
				return i, nil
			},
		}
	}
	opts := Options[int]{
		Jobs:   2,
		Cache:  cache,
		Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
		Decode: func(_ int, b []byte) (int, error) { return strconv.Atoi(string(b)) },
	}
	_, ran, err := Run(context.Background(), opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ran.AllocBytes < uint64(len(jobs))*perJob {
		t.Errorf("a batch that ran %d jobs of %d bytes each reports %d bytes allocated", len(jobs), perJob, ran.AllocBytes)
	}
	_, cached, err := Run(context.Background(), opts, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Cached != len(jobs) || cached.AllocBytes >= perJob {
		t.Errorf("a cached batch (%d of %d cached) reports %d bytes allocated, want under %d", cached.Cached, len(jobs), cached.AllocBytes, perJob)
	}
}

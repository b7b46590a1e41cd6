// Package runner is the work-scheduling engine behind every sweep and
// replication set: it fans independent jobs across a bounded worker pool,
// recovers per-job panics into structured errors instead of killing the
// batch, honors context cancellation and optional per-job timeouts, skips
// jobs whose cache key hits a persistent store, and emits a progress event
// stream for live telemetry. Results come back in input order, so a
// parallel batch is byte-identical to a serial one.
//
// The runner is deliberately generic: it knows nothing about simulations.
// The experiment harness (internal/core) supplies jobs that run
// core.RunContext and encode/decode summaries for the cache
// (internal/runcache).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"tcpburst/internal/clock"
)

// Job is one independent unit of work.
type Job[T any] struct {
	// Label identifies the job in events and errors ("reno/red n=39 seed=1").
	Label string
	// Key is the job's content-addressed cache key; empty disables caching
	// for this job (e.g. runs whose full output is not serializable).
	Key string
	// Do computes the result. It must honor ctx for cancellation and
	// per-job timeouts to take effect — the pool never kills a goroutine.
	Do func(ctx context.Context) (T, error)
}

// Cache is the persistent store consulted before running a keyed job.
// *runcache.Store implements it.
type Cache interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, data []byte) error
}

// Options configures one Run call.
type Options[T any] struct {
	// Jobs bounds worker concurrency; <= 0 means GOMAXPROCS.
	Jobs int
	// JobTimeout, when positive, caps each job's wall-clock time via a
	// per-job context deadline.
	JobTimeout time.Duration
	// Cache, with Encode/Decode, enables result reuse: a keyed job whose
	// entry exists is decoded instead of run, and fresh results are stored.
	Cache  Cache
	Encode func(T) ([]byte, error)
	// Decode receives the job index so callers can re-attach per-job
	// context (e.g. the full config) that the stored digest omits.
	Decode func(job int, data []byte) (T, error)
	// OnEvent, when non-nil, observes the job lifecycle. Calls are
	// serialized by the pool, so the observer needs no locking of its own.
	OnEvent func(Event)
	// Weigh extracts a work measure from a result (the simulator reports
	// events processed); it feeds Event.SimEvents and Stats.SimEvents.
	Weigh func(T) uint64
	// WeighRecords extracts a result's streamed telemetry-record count; it
	// feeds Event.Records and Stats.TelemetryRecords.
	WeighRecords func(T) uint64
	// Clock supplies wall time for Stats and Event timing; nil means the
	// real wall clock. Tests inject a fake so timing assertions are exact.
	Clock clock.Clock
}

// EventKind classifies a progress event.
type EventKind int

const (
	// EventQueued fires once per job before any worker starts.
	EventQueued EventKind = iota
	// EventStarted fires when a worker picks the job up.
	EventStarted
	// EventDone fires when a job computes a fresh result.
	EventDone
	// EventCached fires when a job is satisfied from the cache.
	EventCached
	// EventFailed fires when a job returns an error, panics, or times out.
	EventFailed
)

// String names the kind for logs.
func (k EventKind) String() string {
	switch k {
	case EventQueued:
		return "queued"
	case EventStarted:
		return "started"
	case EventDone:
		return "done"
	case EventCached:
		return "cached"
	case EventFailed:
		return "failed"
	default:
		return fmt.Sprintf("eventkind(%d)", int(k))
	}
}

// Event is one progress notification.
type Event struct {
	Kind  EventKind
	Job   int
	Label string
	// Err is set on EventFailed.
	Err error
	// Wall is the job's wall-clock time (terminal events only).
	Wall time.Duration
	// SimEvents is the job's simulated-event count per Options.Weigh.
	SimEvents uint64
	// Records is the job's telemetry-record count per Options.WeighRecords.
	Records uint64
	// Done and Total snapshot batch completion after this event.
	Done, Total int
}

// JobError wraps one job's failure with its identity; Unwrap exposes the
// cause so callers can errors.Is/As through it.
type JobError struct {
	Job      int
	Label    string
	Err      error
	Panicked bool
}

func (e *JobError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("job %d (%s) panicked: %v", e.Job, e.Label, e.Err)
	}
	return fmt.Sprintf("job %d (%s): %v", e.Job, e.Label, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// Stats aggregates one Run's telemetry.
type Stats struct {
	// Total counts submitted jobs; Ran, Cached, Failed and Skipped
	// partition them (Skipped = never started because the context was
	// canceled first).
	Total, Ran, Cached, Failed, Skipped int
	// Wall is the whole batch's elapsed time; JobWall sums per-job wall
	// times, so JobWall/Wall estimates the realized parallel speedup.
	Wall, JobWall time.Duration
	// SimEvents totals the simulated events processed across all jobs
	// (fresh and cached), per Options.Weigh.
	SimEvents uint64
	// TelemetryRecords totals the telemetry records streamed across all
	// jobs, per Options.WeighRecords.
	TelemetryRecords uint64
	// GCCycles and AllocBytes are the garbage-collection cycles completed
	// and the heap bytes allocated while the batch ran, read from
	// runtime/metrics: the garbage cost of the batch, without a profiler.
	// They count the whole process, so work running beside the batch
	// shows up too. They describe the execution, not the results, so no
	// cache key or digest includes them.
	GCCycles, AllocBytes uint64
}

// Add merges two batches' telemetry (counts and times sum).
func (s Stats) Add(o Stats) Stats {
	s.Total += o.Total
	s.Ran += o.Ran
	s.Cached += o.Cached
	s.Failed += o.Failed
	s.Skipped += o.Skipped
	s.Wall += o.Wall
	s.JobWall += o.JobWall
	s.SimEvents += o.SimEvents
	s.TelemetryRecords += o.TelemetryRecords
	s.GCCycles += o.GCCycles
	s.AllocBytes += o.AllocBytes
	return s
}

// heapSamples are the runtime/metrics behind Stats.GCCycles and
// Stats.AllocBytes, in that order.
var heapSamples = [...]string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes"}

// readHeap returns the process's completed GC cycles and allocated heap
// bytes so far.
func readHeap() (cycles, bytes uint64) {
	var samples [len(heapSamples)]metrics.Sample
	for i, name := range heapSamples {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	return samples[0].Value.Uint64(), samples[1].Value.Uint64()
}

// EventsPerSec is the aggregate simulated-event throughput of the batch.
func (s Stats) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SimEvents) / s.Wall.Seconds()
}

// Speedup is the realized parallelism: summed job time over batch wall time.
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.JobWall) / float64(s.Wall)
}

// Run executes the jobs across the worker pool and returns their results
// in input order. Failed or skipped jobs leave the zero value at their
// index; every failure is reported via a *JobError joined into the
// returned error (errors.Join), alongside ctx.Err() when the batch was
// canceled. A non-nil error therefore does not mean every result is
// invalid — callers wanting all-or-nothing semantics should discard the
// slice on error.
func Run[T any](ctx context.Context, opts Options[T], jobs []Job[T]) ([]T, Stats, error) {
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	if opts.Clock == nil {
		opts.Clock = clock.Wall
	}
	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	stats := Stats{Total: len(jobs)}
	start := opts.Clock.Now()
	cycles, bytes := readHeap()

	var mu sync.Mutex // guards stats and serializes OnEvent
	emit := func(ev Event) {
		if opts.OnEvent != nil {
			ev.Total = len(jobs)
			opts.OnEvent(ev)
		}
	}
	finished := func() int { return stats.Ran + stats.Cached + stats.Failed }

	mu.Lock()
	for i, j := range jobs {
		emit(Event{Kind: EventQueued, Job: i, Label: j.Label})
	}
	mu.Unlock()

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				runJob(ctx, opts, jobs, i, results, errs, &stats, &mu, emit, finished)
			}
		}()
	}

feed:
	for i := range jobs {
		select {
		case indices <- i:
		case <-ctx.Done():
			mu.Lock()
			stats.Skipped = len(jobs) - i
			mu.Unlock()
			break feed
		}
	}
	close(indices)
	wg.Wait()

	stats.Wall = opts.Clock.Since(start)
	endCycles, endBytes := readHeap()
	stats.GCCycles, stats.AllocBytes = endCycles-cycles, endBytes-bytes
	joined := make([]error, 0, len(errs)+1)
	if err := ctx.Err(); err != nil {
		joined = append(joined, err)
	}
	for _, err := range errs {
		if err != nil {
			joined = append(joined, err)
		}
	}
	return results, stats, errors.Join(joined...)
}

// runJob executes (or cache-loads) one job and records its outcome.
func runJob[T any](
	ctx context.Context,
	opts Options[T],
	jobs []Job[T],
	i int,
	results []T,
	errs []error,
	stats *Stats,
	mu *sync.Mutex,
	emit func(Event),
	finished func() int,
) {
	job := jobs[i]
	mu.Lock()
	emit(Event{Kind: EventStarted, Job: i, Label: job.Label, Done: finished()})
	mu.Unlock()
	start := opts.Clock.Now()

	// Cache lookup: read errors (a corrupt entry fails its digest check)
	// and decode failures (stale entries) degrade to a miss rather than
	// failing the job; the fresh result overwrites the entry.
	if job.Key != "" && opts.Cache != nil && opts.Decode != nil {
		if data, ok, err := opts.Cache.Get(job.Key); err == nil && ok {
			if v, err := opts.Decode(i, data); err == nil {
				var ev, recs uint64
				if opts.Weigh != nil {
					ev = opts.Weigh(v)
				}
				if opts.WeighRecords != nil {
					recs = opts.WeighRecords(v)
				}
				results[i] = v
				mu.Lock()
				stats.Cached++
				stats.SimEvents += ev
				stats.TelemetryRecords += recs
				emit(Event{
					Kind: EventCached, Job: i, Label: job.Label,
					Wall: opts.Clock.Since(start), SimEvents: ev, Records: recs, Done: finished(),
				})
				mu.Unlock()
				return
			}
		}
	}

	runCtx := ctx
	if opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, opts.JobTimeout)
		defer cancel()
	}
	v, err := protect(runCtx, job.Do)
	wall := opts.Clock.Since(start)

	if err != nil {
		var je *JobError
		if !errors.As(err, &je) {
			err = &JobError{Job: i, Label: job.Label, Err: err}
		} else {
			je.Job, je.Label = i, job.Label
		}
		errs[i] = err
		mu.Lock()
		stats.Failed++
		stats.JobWall += wall
		emit(Event{
			Kind: EventFailed, Job: i, Label: job.Label,
			Err: err, Wall: wall, Done: finished(),
		})
		mu.Unlock()
		return
	}

	if job.Key != "" && opts.Cache != nil && opts.Encode != nil {
		// Best-effort: a full disk or read-only cache must not fail the run.
		if data, err := opts.Encode(v); err == nil {
			_ = opts.Cache.Put(job.Key, data)
		}
	}
	var evCount, recCount uint64
	if opts.Weigh != nil {
		evCount = opts.Weigh(v)
	}
	if opts.WeighRecords != nil {
		recCount = opts.WeighRecords(v)
	}
	results[i] = v
	mu.Lock()
	stats.Ran++
	stats.JobWall += wall
	stats.SimEvents += evCount
	stats.TelemetryRecords += recCount
	emit(Event{
		Kind: EventDone, Job: i, Label: job.Label,
		Wall: wall, SimEvents: evCount, Records: recCount, Done: finished(),
	})
	mu.Unlock()
}

// protect invokes do with panic recovery: a crashed simulation becomes a
// structured *JobError carrying the panic value and stack instead of
// tearing down the whole sweep.
func protect[T any](ctx context.Context, do func(context.Context) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobError{
				Err:      fmt.Errorf("%v\n%s", r, debug.Stack()),
				Panicked: true,
			}
		}
	}()
	return do(ctx)
}

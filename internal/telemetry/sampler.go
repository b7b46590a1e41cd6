package telemetry

import (
	"fmt"

	"tcpburst/internal/sim"
)

// Sampler drives periodic snapshots: every interval of virtual time it
// polls the registry and hands the row to the sink. Ticks are filed as
// (samplerTick, sampler) and the value slice is preallocated, so
// steady-state sampling into an allocation-free sink (Ring, JSONL, CSV
// over a buffered writer) does not allocate. Snapshot events only read
// simulation state, so enabling telemetry cannot perturb an experiment's
// outcome.
type Sampler struct {
	sched    *sim.Scheduler
	reg      *Registry
	interval sim.Duration
	sink     Sink

	pending sim.Handle
	running bool
	values  []float64
	records uint64
	lastT   float64
	sampled bool
	err     error
}

// NewSampler returns a stopped sampler, or an error for an invalid
// configuration.
func NewSampler(sched *sim.Scheduler, reg *Registry, interval sim.Duration, sink Sink) (*Sampler, error) {
	switch {
	case sched == nil:
		return nil, fmt.Errorf("telemetry: nil scheduler")
	case reg == nil:
		return nil, fmt.Errorf("telemetry: nil registry")
	case interval <= 0:
		return nil, fmt.Errorf("telemetry: interval %v <= 0", interval)
	case sink == nil:
		return nil, fmt.Errorf("telemetry: nil sink")
	}
	return &Sampler{sched: sched, reg: reg, interval: interval, sink: sink}, nil
}

// Start announces the column set to the sink, takes the t=0 snapshot, and
// schedules the periodic ticks. Register every metric and probe first: the
// field set is fixed here.
func (s *Sampler) Start() error {
	if s.running {
		return nil
	}
	fields := s.reg.Fields()
	if err := s.sink.Begin(fields); err != nil {
		return err
	}
	s.values = make([]float64, 0, len(fields))
	s.running = true
	s.Sample()
	s.pending = s.sched.AfterCall(s.interval, samplerTick, s)
	return nil
}

// Sample takes one snapshot at the current virtual time. Duplicate calls
// at the same instant (e.g. a final sample landing on a tick boundary) are
// skipped, keeping timestamps strictly increasing.
func (s *Sampler) Sample() {
	if s.err != nil {
		return
	}
	now := s.sched.Now().Seconds()
	if s.sampled && now == s.lastT {
		return
	}
	s.values = s.reg.Snapshot(s.values)
	if err := s.sink.Record(now, s.values); err != nil {
		s.err = err
		return
	}
	s.lastT = now
	s.sampled = true
	s.records++
}

// samplerTick is the trampoline a sampler's ticks are filed under.
func samplerTick(a any) { a.(*Sampler).tick() }

func (s *Sampler) tick() {
	if !s.running {
		return
	}
	s.Sample()
	s.pending = s.sched.AfterCall(s.interval, samplerTick, s)
}

// Stop cancels the pending tick.
func (s *Sampler) Stop() {
	s.running = false
	s.sched.Cancel(s.pending)
	s.pending = sim.Handle{}
}

// Records returns the number of snapshot records delivered to the sink.
func (s *Sampler) Records() uint64 { return s.records }

// Close stops sampling, flushes the sink, and returns the first error the
// stream hit.
func (s *Sampler) Close() error {
	s.Stop()
	flushErr := s.sink.Flush()
	if s.err != nil {
		return s.err
	}
	return flushErr
}

// Package traffic implements application-level workload generators. The
// paper's clients generate Poisson traffic — single packets with
// exponentially distributed inter-generation times — which the transport
// layer then modulates. A heavy-tailed Pareto on/off source supports the
// self-similarity extension.
package traffic

import (
	"fmt"

	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/transport"
)

// Generator is a workload source bound to a transport endpoint.
type Generator interface {
	// Start begins generating at the current instant.
	Start()
	// Stop ceases generation; safe to call more than once.
	Stop()
	// Generated returns the number of application packets produced.
	Generated() uint64
}

// PoissonConfig describes a Poisson packet source.
type PoissonConfig struct {
	// MeanInterval is the mean packet inter-generation time 1/λ
	// (paper: 0.01 s).
	MeanInterval sim.Duration
	// Dst receives one Submit call per generated packet. Required.
	Dst transport.Source
	// Sched is the simulation kernel. Required.
	Sched *sim.Scheduler
	// RNG supplies the exponential variates. Required.
	RNG *sim.RNG
	// Generated, when attached, counts every emitted packet into the
	// telemetry registry; the zero handle is a no-op.
	Generated telemetry.Counter
}

// Poisson emits single packets with exponentially distributed
// inter-generation times.
type Poisson struct {
	cfg       PoissonConfig
	running   bool
	pending   sim.Handle
	generated uint64
}

var _ Generator = (*Poisson)(nil)

// NewPoisson returns a stopped Poisson source, or an error for an invalid
// configuration.
func NewPoisson(cfg PoissonConfig) (*Poisson, error) {
	g := new(Poisson)
	if err := InitPoisson(g, cfg); err != nil {
		return nil, err
	}
	return g, nil
}

// InitPoisson is NewPoisson in place, for sources kept in a slab.
func InitPoisson(g *Poisson, cfg PoissonConfig) error {
	switch {
	case cfg.MeanInterval <= 0:
		return fmt.Errorf("poisson: mean interval %v <= 0", cfg.MeanInterval)
	case cfg.Dst == nil:
		return fmt.Errorf("poisson: nil destination")
	case cfg.Sched == nil:
		return fmt.Errorf("poisson: nil scheduler")
	case cfg.RNG == nil:
		return fmt.Errorf("poisson: nil RNG")
	}
	*g = Poisson{cfg: cfg}
	return nil
}

// poissonEmit is the trampoline a Poisson emission is filed under.
func poissonEmit(a any) { a.(*Poisson).emit() }

// Start schedules the first packet one exponential interval from now.
func (g *Poisson) Start() {
	if g.running {
		return
	}
	g.running = true
	g.scheduleNext()
}

// Stop cancels any pending generation.
func (g *Poisson) Stop() {
	g.running = false
	g.cfg.Sched.Cancel(g.pending)
	g.pending = sim.Handle{}
}

// Generated returns the number of packets produced so far.
func (g *Poisson) Generated() uint64 { return g.generated }

func (g *Poisson) scheduleNext() {
	g.pending = g.cfg.Sched.AfterCall(g.cfg.RNG.ExpDuration(g.cfg.MeanInterval), poissonEmit, g)
}

func (g *Poisson) emit() {
	if !g.running {
		return
	}
	g.generated++
	g.cfg.Generated.Inc()
	g.cfg.Dst.Submit()
	g.scheduleNext()
}

package traffic

import (
	"fmt"

	"tcpburst/internal/sim"
	"tcpburst/internal/telemetry"
	"tcpburst/internal/transport"
)

// ParetoOnOffConfig describes a heavy-tailed on/off source: the canonical
// ingredient of self-similar aggregate traffic (Willinger et al.). During an
// "on" period packets are emitted at a fixed interval; on and off period
// lengths are Pareto distributed.
type ParetoOnOffConfig struct {
	// PacketInterval is the emission interval during on periods.
	PacketInterval sim.Duration
	// MeanOn and MeanOff are the mean burst and idle durations.
	MeanOn, MeanOff sim.Duration
	// Shape is the Pareto tail index alpha; values in (1,2] give finite
	// mean but infinite variance (classically 1.5).
	Shape float64
	// Dst receives one Submit call per generated packet. Required.
	Dst transport.Source
	// Sched is the simulation kernel. Required.
	Sched *sim.Scheduler
	// RNG supplies the Pareto variates. Required.
	RNG *sim.RNG
	// Generated, when attached, counts every emitted packet into the
	// telemetry registry; the zero handle is a no-op.
	Generated telemetry.Counter
}

// ParetoOnOff is a heavy-tailed on/off packet source.
type ParetoOnOff struct {
	cfg       ParetoOnOffConfig
	running   bool
	on        bool
	burstEnds sim.Time
	pending   sim.Handle
	generated uint64
	bursts    uint64
}

var _ Generator = (*ParetoOnOff)(nil)

// NewParetoOnOff returns a stopped source, or an error for an invalid
// configuration.
func NewParetoOnOff(cfg ParetoOnOffConfig) (*ParetoOnOff, error) {
	g := new(ParetoOnOff)
	if err := InitParetoOnOff(g, cfg); err != nil {
		return nil, err
	}
	return g, nil
}

// InitParetoOnOff is NewParetoOnOff in place, for sources kept in a slab.
func InitParetoOnOff(g *ParetoOnOff, cfg ParetoOnOffConfig) error {
	switch {
	case cfg.PacketInterval <= 0:
		return fmt.Errorf("pareto: packet interval %v <= 0", cfg.PacketInterval)
	case cfg.MeanOn <= 0 || cfg.MeanOff <= 0:
		return fmt.Errorf("pareto: mean on %v / off %v must be positive", cfg.MeanOn, cfg.MeanOff)
	case cfg.Shape <= 1:
		return fmt.Errorf("pareto: shape %v <= 1 has infinite mean", cfg.Shape)
	case cfg.Dst == nil:
		return fmt.Errorf("pareto: nil destination")
	case cfg.Sched == nil:
		return fmt.Errorf("pareto: nil scheduler")
	case cfg.RNG == nil:
		return fmt.Errorf("pareto: nil RNG")
	}
	*g = ParetoOnOff{cfg: cfg}
	return nil
}

// paretoEmit and paretoBeginBurst are the trampolines a source's emissions
// and burst starts are filed under.
func paretoEmit(a any)       { a.(*ParetoOnOff).emit() }
func paretoBeginBurst(a any) { a.(*ParetoOnOff).beginBurst() }

// Start begins with an off period so sources started together desynchronize.
func (g *ParetoOnOff) Start() {
	if g.running {
		return
	}
	g.running = true
	g.scheduleOff()
}

// Stop cancels any pending emission or state change.
func (g *ParetoOnOff) Stop() {
	g.running = false
	g.cfg.Sched.Cancel(g.pending)
	g.pending = sim.Handle{}
}

// Generated returns the number of packets produced so far.
func (g *ParetoOnOff) Generated() uint64 { return g.generated }

// Bursts returns the number of on periods begun.
func (g *ParetoOnOff) Bursts() uint64 { return g.bursts }

// paretoDuration draws a Pareto-distributed duration with the given mean:
// mean = xm * alpha/(alpha-1), so xm = mean*(alpha-1)/alpha.
func (g *ParetoOnOff) paretoDuration(mean sim.Duration) sim.Duration {
	xm := float64(mean) * (g.cfg.Shape - 1) / g.cfg.Shape
	d := sim.Duration(g.cfg.RNG.Pareto(g.cfg.Shape, xm))
	if d < 1 {
		d = 1
	}
	return d
}

func (g *ParetoOnOff) scheduleOff() {
	g.on = false
	g.pending = g.cfg.Sched.AfterCall(g.paretoDuration(g.cfg.MeanOff), paretoBeginBurst, g)
}

func (g *ParetoOnOff) beginBurst() {
	if !g.running {
		return
	}
	g.on = true
	g.bursts++
	g.burstEnds = g.cfg.Sched.Now().Add(g.paretoDuration(g.cfg.MeanOn))
	g.emit()
}

func (g *ParetoOnOff) emit() {
	if !g.running || !g.on {
		return
	}
	if g.cfg.Sched.Now().After(g.burstEnds) {
		g.scheduleOff()
		return
	}
	g.generated++
	g.cfg.Generated.Inc()
	g.cfg.Dst.Submit()
	g.pending = g.cfg.Sched.AfterCall(g.cfg.PacketInterval, paretoEmit, g)
}

package main

import (
	"fmt"
	"time"

	"tcpburst/internal/core"
	"tcpburst/internal/queue"
	"tcpburst/internal/sim"
)

// Simulated horizons, sized so one run of each workload takes a few host
// seconds on a 2-core x86-64 VM.
const (
	paperSweepDuration = 20 * time.Second
	burstDuration      = 300 * time.Second
	flowsDuration      = 100 * time.Second
	fluidDuration      = 60 * time.Second
)

// burstMeanOff is burst-20k's mean Pareto off period. It is a constant,
// not a share of the horizon, so the set-up configs (horizon = one RTT)
// keep the same source model as the timed ones.
const burstMeanOff = burstDuration / 5

// offeredLoad is the aggregate load, as a share of the bottleneck
// capacity, of the burst-20k and flows-50k workloads.
const offeredLoad = 0.9

// workload is one named set of inputs. A sweep workload runs its
// (cell, clients) grid through core.RunSweepContext; a single workload is
// one core.Run.
type workload struct {
	name string
	// sweep is the grid for sweep workloads, nil for single runs. Its
	// Exec field is filled in per execution.
	sweep *core.SweepOptions
	// single is the configuration of a single-run workload.
	single core.Config
	// cache gives each sweep execution a fresh result cache.
	cache bool
}

var workloadNames = []string{"paper-sweep", "burst-20k", "flows-50k", "fluid-sweep"}

// buildWorkload returns the named workload with every run seeded by seed.
func buildWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper-sweep":
		base := core.BaseConfig(core.WithSeed(seed), core.WithDuration(paperSweepDuration))
		return workload{name: name, cache: true, sweep: &core.SweepOptions{
			Base:    base,
			Clients: core.DefaultSweepClients(),
			Cells:   core.PaperCells(),
		}}, nil
	case "burst-20k":
		cfg := core.DefaultConfig(20_000, core.Reno, core.FIFO)
		cfg.Seed = seed
		cfg.Duration = burstDuration
		cfg.BufferPackets = 20
		pinLoad(&cfg)
		// Bursts leave each client at line rate: the in-burst interval is
		// the access serialization time, and the on period follows from
		// the duty cycle that keeps the long-run rate at 1/MeanInterval.
		ser := sim.SerializationDelay(cfg.PacketSize, cfg.ClientRateBps)
		duty := float64(ser) / float64(cfg.MeanInterval)
		cfg.Traffic = core.TrafficParetoOnOff
		cfg.MeanOffTime = burstMeanOff
		cfg.MeanOnTime = time.Duration(float64(burstMeanOff) * duty / (1 - duty))
		return workload{name: name, single: cfg}, nil
	case "flows-50k":
		spec, err := queue.ParseSpec("codel")
		if err != nil {
			return workload{}, err
		}
		cfg := core.DefaultConfig(50_000, core.Reno, core.FIFO)
		cfg.Gateway = 0
		cfg.Queue = &spec
		cfg.Seed = seed
		cfg.Duration = flowsDuration
		cfg.BufferPackets = 20
		cfg.Shards = 2
		pinLoad(&cfg)
		return workload{name: name, single: cfg}, nil
	case "fluid-sweep":
		base := core.BaseConfig(core.WithSeed(seed), core.WithDuration(fluidDuration), core.WithBackend(core.FluidBackend))
		var clients []int
		for n := 1_000; n <= 1_000_000; n *= 2 {
			clients = append(clients, n)
		}
		return workload{name: name, sweep: &core.SweepOptions{
			Base:    base,
			Clients: clients,
			Cells: []core.Cell{
				{Protocol: core.Reno, Gateway: core.FIFO},
				{Protocol: core.Vegas, Gateway: core.FIFO},
				{Protocol: core.Reno, Gateway: core.RED},
			},
		}}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// pinLoad sets the per-client mean interval so the aggregate offered load
// is offeredLoad times the bottleneck capacity.
func pinLoad(cfg *core.Config) {
	capacity := cfg.BottleneckRateBps / (8 * float64(cfg.PacketSize))
	cfg.MeanInterval = time.Duration(float64(time.Second) * float64(cfg.Clients) / (offeredLoad * capacity))
}

// setupVariant returns the workload with every run's horizon cut to one
// round-trip time, so executing it costs the topology build and little
// else. No config changes but the horizon; the result cache is left out,
// since its file writes are not set-up and would dominate the timing.
func (w workload) setupVariant() workload {
	w.cache = false
	if w.sweep != nil {
		opts := *w.sweep
		opts.Base.Duration = opts.Base.WithDefaults().RTT()
		w.sweep = &opts
		return w
	}
	w.single.Duration = w.single.WithDefaults().RTT()
	return w
}

// packet reports whether the workload runs the packet engine.
func (w workload) packet() bool {
	return w.configs()[0].Backend == core.PacketBackend
}

// configs lists the workload's run configurations in result order.
func (w workload) configs() []core.Config {
	if w.sweep == nil {
		return []core.Config{w.single}
	}
	var out []core.Config
	for _, n := range w.sweep.Clients {
		for _, cell := range w.sweep.Cells {
			cfg := w.sweep.Base
			cfg.Clients = n
			cfg.Protocol = cell.Protocol
			cfg.Gateway = cell.Gateway
			out = append(out, cfg)
		}
	}
	return out
}

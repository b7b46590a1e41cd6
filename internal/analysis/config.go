package analysis

import "strings"

// Config is burstlint's maintained allowlist — the single place that says
// which packages must be deterministic, where the sanctioned escape
// hatches live, and which function names count as hot paths. Changing it
// is a reviewable act: widening an allowlist weakens a machine-checked
// invariant.
type Config struct {
	// SimPackages are the packages that execute inside the virtual-time
	// event loop. Everything here must replay bit-identically from a seed:
	// no wall clock, no global RNG, no goroutines, no order-dependent map
	// iteration.
	SimPackages []string
	// HarnessPackages run outside virtual time (job scheduling, live
	// output) but still feed deterministic artifacts, so they get the same
	// wall-clock and global-RNG rules; goroutines and map iteration are
	// judged by the allowlists below.
	HarnessPackages []string
	// WallClockPackages may read the wall clock. This is the clock seam:
	// every other checked package must route elapsed-time needs through
	// internal/clock so tests can inject a fake.
	WallClockPackages []string
	// GoroutinePackages may launch goroutines (the parallel runner is the
	// one sanctioned concurrency site; simulations are single-threaded by
	// contract).
	GoroutinePackages []string
	// RandImportFiles are file-path suffixes allowed to import math/rand —
	// the seeded sim RNG wrapper only. Global math/rand functions (the
	// process-wide source) are forbidden even here; only rand.New over an
	// explicit seed is legitimate.
	RandImportFiles []string
	// FloatPackages hold measurement code where == / != on floats is
	// forbidden (comparisons against exact sentinels are waived per-site
	// with //burst:floateq-ok).
	FloatPackages []string
	// HotPathFuncs are per-event method names that must stay allocation-
	// and lookup-free: telemetry handles are acquired at construction,
	// never here.
	HotPathFuncs []string
	// HotPathRoots names additional hot-path entry points per package, as
	// "Func" or "Type.Method" — the scheduler's dispatch loop, the
	// timing-wheel and burst-train kernels, the packet pool's get/put.
	// hotpathalloc seeds its per-package reachability closure from these
	// plus every HotPathFuncs-named method in a SimPackage.
	HotPathRoots map[string][]string
	// CorePackage is the experiment-harness package whose Config feeds the
	// runcache key derivation and whose Summary/ChainResult encodings the
	// schema lock pins.
	CorePackage string
	// CmdPackagePrefix marks the CLI packages where configdrift's
	// flag-round-trip rule applies: flag-bound values reach core.Config
	// only through NewConfig options, never by direct field assignment.
	CmdPackagePrefix string
	// PacketPackage is the import path of the pooled-packet package whose
	// Pool.Get results must be released, forwarded, or stored on every
	// exit path.
	PacketPackage string
	// ShardPackage is the import path of the window-barrier executor, the
	// one sanctioned cross-shard exchange surface.
	ShardPackage string
	// ShardHarnessPackages may drive the sharded executor (construct
	// groups, buffer crossings, touch foreign schedulers). Everything else
	// must stay shard-agnostic: sim-tier components ship cross-shard
	// deliveries through lane-stamped XDeliver hooks wired at build time,
	// never by reaching into another shard's state mid-window.
	ShardHarnessPackages []string
	// TelemetryPackage is the import path of the metrics registry whose
	// registration calls are construction-time-only.
	TelemetryPackage string
	// QueuePackage is the import path of the gateway-discipline registry.
	// Factories register there, in init functions, and discipline-name
	// dispatch (comparing or switching on Spec.Name) happens only there:
	// everywhere else goes through queue.Build, queue.Registered, or
	// Spec.Lower, so adding a discipline never means hunting down name
	// switches scattered through the harness.
	QueuePackage string
}

// Default is the repository's live configuration.
var Default = Config{
	SimPackages: []string{
		"tcpburst/internal/sim",
		"tcpburst/internal/tcp",
		"tcpburst/internal/queue",
		"tcpburst/internal/link",
		"tcpburst/internal/node",
		"tcpburst/internal/traffic",
		"tcpburst/internal/packet",
		"tcpburst/internal/trace",
		"tcpburst/internal/transport",
		// The mean-field solver is not event-driven, but it carries the same
		// determinism contract: a fluid solve must replay bit-identically, so
		// no wall clock, no RNG, no goroutines, no map iteration.
		"tcpburst/internal/meanfield",
		// The window-barrier executor runs the event loop itself, K copies at
		// a time; bit-identical replay across shard counts is its whole
		// contract, so it carries the strict tier's rules.
		"tcpburst/internal/shard",
	},
	HarnessPackages: []string{
		"tcpburst/internal/stats",
		"tcpburst/internal/telemetry",
		"tcpburst/internal/runner",
		"tcpburst/internal/clock",
	},
	WallClockPackages: []string{"tcpburst/internal/clock"},
	// The parallel batch runner and the sharded single-run executor are the
	// two sanctioned concurrency sites; simulations are otherwise
	// single-threaded by contract.
	GoroutinePackages: []string{
		"tcpburst/internal/runner",
		"tcpburst/internal/shard",
	},
	RandImportFiles: []string{"internal/sim/rng.go"},
	FloatPackages: []string{
		"tcpburst/internal/stats",
		"tcpburst/internal/core",
		"tcpburst/internal/meanfield",
	},
	HotPathFuncs: []string{"Send", "Recv", "Enqueue", "Dequeue", "OnEvent"},
	// Per-package hot-path entry points beyond the method-name roots: the
	// event kernel's dispatch loop and per-event scheduling surface, the
	// lazy-timer and burst-train kernels, the RNG draws every traffic
	// emit makes (and the source under them), and the packet pool. Everything
	// transitively reachable from these inside their package must stay
	// allocation-free (or carry a //burst:alloc-ok waiver with a reason).
	HotPathRoots: map[string][]string{
		"tcpburst/internal/sim": {
			"Scheduler.Step", "Scheduler.Run", "Scheduler.RunAll",
			"Scheduler.At", "Scheduler.After", "Scheduler.AtCall", "Scheduler.AfterCall",
			"Scheduler.AtOn", "Scheduler.AfterOn", "Scheduler.AtCallOn", "Scheduler.AfterCallOn",
			"Scheduler.InjectAt", "Scheduler.Cancel",
			"Timer.Reset", "Timer.ResetAt", "Timer.Stop", "Timer.fire",
			"Train.Add", "Train.fire",
			"RNG.Float64", "RNG.Exp", "RNG.ExpDuration", "RNG.Pareto",
			"alfg.Uint64", "alfg.Int63",
		},
		"tcpburst/internal/packet": {"Pool.Get", "Pool.Put"},
	},
	CorePackage:      "tcpburst/internal/core",
	CmdPackagePrefix: "tcpburst/cmd/",
	PacketPackage:    "tcpburst/internal/packet",
	ShardPackage:     "tcpburst/internal/shard",
	ShardHarnessPackages: []string{
		"tcpburst/internal/core",
		"tcpburst/internal/shard",
	},
	TelemetryPackage: "tcpburst/internal/telemetry",
	QueuePackage:     "tcpburst/internal/queue",
}

// QueuePackageIs reports whether path is the discipline registry itself.
func (c Config) QueuePackageIs(path string) bool { return path == c.QueuePackage }

// DeterministicPackage reports whether pkg path is under the
// nondeterminism analyzer's jurisdiction at all.
func (c Config) DeterministicPackage(path string) bool {
	return contains(c.SimPackages, path) || contains(c.HarnessPackages, path)
}

// SimPackage reports whether path runs inside the event loop (the strict
// tier: map iteration rules apply).
func (c Config) SimPackage(path string) bool { return contains(c.SimPackages, path) }

// WallClockAllowed reports whether path is the clock seam.
func (c Config) WallClockAllowed(path string) bool { return contains(c.WallClockPackages, path) }

// GoroutineAllowed reports whether path may launch goroutines.
func (c Config) GoroutineAllowed(path string) bool { return contains(c.GoroutinePackages, path) }

// RandImportAllowed reports whether the file at filename may import
// math/rand.
func (c Config) RandImportAllowed(filename string) bool {
	for _, suffix := range c.RandImportFiles {
		if strings.HasSuffix(filename, suffix) {
			return true
		}
	}
	return false
}

// FloatPackage reports whether path is measurement code under floateq.
func (c Config) FloatPackage(path string) bool { return contains(c.FloatPackages, path) }

// HotPathFunc reports whether a method of this name is a per-event hot
// path.
func (c Config) HotPathFunc(name string) bool { return contains(c.HotPathFuncs, name) }

// HotPathRootList returns the explicit hot-path roots declared for the
// package, as "Func" or "Type.Method" names.
func (c Config) HotPathRootList(path string) []string { return c.HotPathRoots[path] }

// CorePackageIs reports whether path is the experiment-harness package.
func (c Config) CorePackageIs(path string) bool { return path == c.CorePackage }

// CmdPackage reports whether path is one of the CLI packages.
func (c Config) CmdPackage(path string) bool {
	return strings.HasPrefix(path, c.CmdPackagePrefix)
}

// ShardHarnessAllowed reports whether path may drive the sharded
// executor.
func (c Config) ShardHarnessAllowed(path string) bool {
	return contains(c.ShardHarnessPackages, path)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

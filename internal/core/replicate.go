package core

import (
	"context"
	"fmt"

	"tcpburst/internal/runner"
	"tcpburst/internal/stats"
)

// Replication harness: the paper reports single runs; honest reproduction
// quotes means with confidence intervals across independent seeds.

// MetricCI pairs a metric name with its cross-replication estimate.
type MetricCI struct {
	Name string
	CI   stats.CI
}

// Replicated aggregates independent-seed replications of one configuration.
type Replicated struct {
	// Config echoes the defaulted base configuration (Seed varies).
	Config Config
	// Seeds lists the seeds actually run.
	Seeds []int64
	// Results holds the per-seed outcomes, in Seeds order.
	Results []*Result

	// COV, LossPct, Delivered, Timeouts and TimeoutDupAckRatio are 95%
	// confidence estimates across the replications.
	COV                stats.CI
	LossPct            stats.CI
	Delivered          stats.CI
	Timeouts           stats.CI
	TimeoutDupAckRatio stats.CI

	// Stats carries the runner's execution telemetry for the batch.
	Stats runner.Stats
}

// RunReplications runs cfg once per seed and aggregates the headline
// metrics with 95% confidence intervals. At least one seed is required;
// two or more are needed for non-zero interval widths. Seeds must be
// distinct and nonzero. Replications run
// across the default worker pool; use RunReplicationsContext to control
// parallelism, caching, and cancellation.
func RunReplications(cfg Config, seeds []int64) (*Replicated, error) {
	return RunReplicationsContext(context.Background(), cfg, seeds, ExecOptions{})
}

// RunReplicationsContext is RunReplications with execution control: the
// per-seed runs fan out across the runner's worker pool and can be served
// from the persistent result cache.
func RunReplicationsContext(ctx context.Context, cfg Config, seeds []int64, exec ExecOptions) (*Replicated, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("replications: no seeds")
	}
	// Seed 0 means unset and runs as WithDefaults' seed 1, so it, like a
	// repeated seed, would count one sample twice.
	seen := make(map[int64]bool, len(seeds))
	cfgs := make([]Config, len(seeds))
	for i, seed := range seeds {
		switch {
		case seed == 0:
			return nil, fmt.Errorf("replications: seed 0 is unset and runs as seed 1; use nonzero seeds")
		case seen[seed]:
			return nil, fmt.Errorf("replications: seed %d listed twice", seed)
		}
		seen[seed] = true
		c := cfg
		c.Seed = seed
		cfgs[i] = c
	}
	results, telemetry, err := RunBatch(ctx, cfgs, exec)
	if err != nil {
		return nil, fmt.Errorf("replications: %w", err)
	}
	rep := &Replicated{Seeds: append([]int64(nil), seeds...), Stats: telemetry}
	var covs, losses, delivered, timeouts, ratios []float64
	for _, res := range results {
		rep.Results = append(rep.Results, res)
		covs = append(covs, res.COV)
		losses = append(losses, res.LossPct)
		delivered = append(delivered, float64(res.Delivered))
		timeouts = append(timeouts, float64(res.Timeouts))
		ratios = append(ratios, res.TimeoutDupAckRatio)
	}
	rep.Config = rep.Results[0].Config
	rep.COV = stats.ReplicationCI(covs)
	rep.LossPct = stats.ReplicationCI(losses)
	rep.Delivered = stats.ReplicationCI(delivered)
	rep.Timeouts = stats.ReplicationCI(timeouts)
	rep.TimeoutDupAckRatio = stats.ReplicationCI(ratios)
	return rep, nil
}

// Metrics lists the confidence estimates in presentation order.
func (r *Replicated) Metrics() []MetricCI {
	return []MetricCI{
		{Name: "cov", CI: r.COV},
		{Name: "loss_pct", CI: r.LossPct},
		{Name: "delivered", CI: r.Delivered},
		{Name: "timeouts", CI: r.Timeouts},
		{Name: "timeout_dupack_ratio", CI: r.TimeoutDupAckRatio},
	}
}

// Seeds1ToN is a convenience seed list {1, ..., n}.
func Seeds1ToN(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

package core

import (
	"testing"
	"time"
)

func TestRunReplicationsRequiresSeeds(t *testing.T) {
	if _, err := RunReplications(shortConfig(5, Reno, FIFO, time.Second), nil); err == nil {
		t.Error("no seeds accepted")
	}
}

// TestRunReplicationsRejectsAliasedSeeds: seed 0 runs as seed 1, so
// {0, 1} and a repeated seed would report an interval over identical
// samples as if they were independent.
func TestRunReplicationsRejectsAliasedSeeds(t *testing.T) {
	cfg := shortConfig(5, Reno, FIFO, time.Second)
	for _, seeds := range [][]int64{{0, 1}, {0}, {2, 3, 2}} {
		if rep, err := RunReplications(cfg, seeds); err == nil {
			t.Errorf("seeds %v accepted (ran %v)", seeds, rep.Seeds)
		}
	}
}

func TestRunReplicationsAggregates(t *testing.T) {
	cfg := shortConfig(20, Reno, FIFO, 15*time.Second)
	rep, err := RunReplications(cfg, Seeds1ToN(4))
	if err != nil {
		t.Fatalf("RunReplications: %v", err)
	}
	if len(rep.Results) != 4 || len(rep.Seeds) != 4 {
		t.Fatalf("results = %d, seeds = %d", len(rep.Results), len(rep.Seeds))
	}
	if rep.COV.Mean <= 0 {
		t.Errorf("cov mean = %v", rep.COV.Mean)
	}
	if rep.COV.HalfWidth <= 0 {
		t.Errorf("cov half-width = %v, want > 0 across different seeds", rep.COV.HalfWidth)
	}
	// The per-seed results genuinely differ.
	if rep.Results[0].COV == rep.Results[1].COV {
		t.Error("two seeds produced identical c.o.v.")
	}
	// The interval brackets every replication loosely: mean within
	// min..max of the values.
	lo, hi := rep.Results[0].COV, rep.Results[0].COV
	for _, r := range rep.Results {
		if r.COV < lo {
			lo = r.COV
		}
		if r.COV > hi {
			hi = r.COV
		}
	}
	if rep.COV.Mean < lo || rep.COV.Mean > hi {
		t.Errorf("cov mean %v outside replication range [%v, %v]", rep.COV.Mean, lo, hi)
	}
	if got := len(rep.Metrics()); got != 5 {
		t.Errorf("Metrics() = %d entries, want 5", got)
	}
}

func TestRunReplicationsSingleSeedZeroWidth(t *testing.T) {
	rep, err := RunReplications(shortConfig(5, Vegas, FIFO, 5*time.Second), []int64{7})
	if err != nil {
		t.Fatalf("RunReplications: %v", err)
	}
	if rep.COV.HalfWidth != 0 {
		t.Errorf("single-seed half-width = %v, want 0", rep.COV.HalfWidth)
	}
}

func TestSeeds1ToN(t *testing.T) {
	got := Seeds1ToN(3)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("Seeds1ToN(3) = %v", got)
	}
	if len(Seeds1ToN(0)) != 0 {
		t.Error("Seeds1ToN(0) not empty")
	}
}

// TestPaperClaimsHoldAcrossSeeds re-checks the headline Figure-2 ordering
// with replication confidence: Reno's heavy-load c.o.v. exceeds Vegas's
// with non-overlapping 95% intervals.
func TestPaperClaimsHoldAcrossSeeds(t *testing.T) {
	seeds := Seeds1ToN(3)
	reno, err := RunReplications(shortConfig(55, Reno, FIFO, 30*time.Second), seeds)
	if err != nil {
		t.Fatalf("reno: %v", err)
	}
	vegas, err := RunReplications(shortConfig(55, Vegas, FIFO, 30*time.Second), seeds)
	if err != nil {
		t.Fatalf("vegas: %v", err)
	}
	if reno.COV.Low() <= vegas.COV.High() {
		t.Errorf("Reno cov %0.4f±%0.4f does not clearly exceed Vegas %0.4f±%0.4f",
			reno.COV.Mean, reno.COV.HalfWidth, vegas.COV.Mean, vegas.COV.HalfWidth)
	}
}

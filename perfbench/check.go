package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"tcpburst/internal/core"
)

// pinSeed is the default seed, the one the pinned digests are taken at.
const pinSeed = 1

// pins holds, per workload, the SHA-256 of every run's MarshalSummaryJSON
// at pinSeed, in sweep point order. flows-50k is pinned from a serial
// (one-shard) run, so matching it proves the two-shard run equals serial.
// Regenerate with -pin after a change that is meant to alter results.
//
//go:embed digests.json
var pinsJSON []byte

// loadPins decodes the embedded digest table.
func loadPins() (map[string][]string, error) {
	pins := map[string][]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

// digest is the SHA-256 of a run's summary JSON.
func digest(r *core.Result) (string, error) {
	raw, err := r.MarshalSummaryJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// checker validates every run of a workload. Each run must satisfy the
// packet accounting identities and reproduce its reference digest: the
// pinned one at pinSeed, otherwise the one the first checked execution
// produced. A violation is counted and reported, never raised.
type checker struct {
	want      []string
	attempted int
	failed    int
	log       io.Writer
}

// newChecker returns a checker; want is the pinned digest list, or nil
// when none applies.
func newChecker(want []string, log io.Writer) *checker {
	return &checker{want: want, log: log}
}

// check validates one execution. results may hold nil entries for runs
// that failed; runs is the number of runs the execution attempted.
func (c *checker) check(label string, results []*core.Result, runs int, runErr error) {
	c.attempted += runs
	if runErr != nil {
		c.failed += runs
		fmt.Fprintf(c.log, "FAIL %s: %v\n", label, runErr)
		return
	}
	got := make([]string, len(results))
	for i, r := range results {
		if err := c.checkRun(r, i, got); err != nil {
			c.failed++
			fmt.Fprintf(c.log, "FAIL %s run %d: %v\n", label, i, err)
		}
	}
	if c.want == nil {
		c.want = got
	}
	if missing := runs - len(results); missing > 0 {
		c.failed += missing
		fmt.Fprintf(c.log, "FAIL %s: %d runs returned no result\n", label, missing)
	}
}

func (c *checker) checkRun(r *core.Result, i int, got []string) error {
	if r == nil {
		return fmt.Errorf("no result")
	}
	if err := accounting(r); err != nil {
		return err
	}
	d, err := digest(r)
	if err != nil {
		return err
	}
	got[i] = d
	if c.want != nil {
		if i >= len(c.want) {
			return fmt.Errorf("no reference digest for run %d of %d", i, len(c.want))
		}
		if d != c.want[i] {
			return fmt.Errorf("%s: summary digest %.12s, want %.12s", r.Config.Label(), d, c.want[i])
		}
	}
	return nil
}

// accounting checks the packet identities every run must satisfy.
func accounting(r *core.Result) error {
	switch {
	case r.Delivered > r.DataSent:
		return fmt.Errorf("delivered %d > data sent %d", r.Delivered, r.DataSent)
	case r.ForwardDrops > r.DataSent:
		return fmt.Errorf("forward drops %d > data sent %d", r.ForwardDrops, r.DataSent)
	case r.Delivered > r.Generated:
		return fmt.Errorf("delivered %d > generated %d", r.Delivered, r.Generated)
	case math.IsNaN(r.COV) || math.IsInf(r.COV, 0):
		return fmt.Errorf("c.o.v. %v is not finite", r.COV)
	}
	return nil
}

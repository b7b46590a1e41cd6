package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// modules are the internal/ packages the per-layer table reports, in
// table order. Self time in any other internal package counts as other.
var modules = []string{
	"sim", "tcp", "link", "node", "queue", "traffic", "transport", "packet",
	"stats", "telemetry", "shard", "core", "runner", "meanfield",
}

// Buckets for self time outside the listed modules.
const (
	runtimeBucket = "go_runtime" // the Go runtime: GC, allocation, scheduling
	otherBucket   = "other"      // everything else: stdlib, this benchmark
)

const modulePrefix = "tcpburst/internal/"

// stack is one profile sample: its value in seconds and its call stack,
// leaf frame first.
type stack struct {
	seconds float64
	frames  []string
}

// profileStacks reads a pprof profile through `go tool pprof -traces`.
// sampleIndex picks the sample type ("" for the profile's default).
func profileStacks(path, sampleIndex string) ([]stack, error) {
	args := []string{"tool", "pprof", "-traces"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	cmd := exec.Command("go", append(args, path)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", path, err, stderr.String())
	}
	return parseTraces(strings.NewReader(string(out)))
}

// parseTraces parses `go tool pprof -traces` text: a header, then one
// block per distinct stack, opened by a dashed separator. A block's first
// line carries the value and the leaf frame; later lines carry callers.
func parseTraces(r io.Reader) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, stack{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil {
			continue // header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(cur.frames) == 0 {
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, err
			}
			cur.seconds = v
			fields = fields[1:]
		}
		if len(fields) > 0 {
			cur.frames = append(cur.frames, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The last separator closes the final block; drop empty blocks.
	kept := out[:0]
	for _, s := range out {
		if len(s.frames) > 0 {
			kept = append(kept, s)
		}
	}
	return kept, nil
}

// durationUnits maps pprof's scaled time suffixes to seconds, longest
// match first.
var durationUnits = []struct {
	suffix string
	scale  float64
}{
	{"ns", 1e-9}, {"us", 1e-6}, {"ms", 1e-3}, {"hrs", 3600}, {"s", 1},
}

func parseDuration(s string) (float64, error) {
	for _, u := range durationUnits {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof traces: bad value %q", s)
			}
			return v * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof traces: value %q has no time unit", s)
}

// moduleOf names the bucket a function's self time belongs to.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
		name := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			name = rest[:i]
		}
		for _, m := range modules {
			if m == name {
				return m
			}
		}
		return otherBucket
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return runtimeBucket
	}
	return otherBucket
}

// foldSelf attributes each sample to the module of its leaf frame. Every
// sample lands in exactly one bucket, so the buckets sum to the total.
func foldSelf(stacks []stack) map[string]float64 {
	out := make(map[string]float64, len(modules)+2)
	for _, s := range stacks {
		out[moduleOf(s.frames[0])] += s.seconds
	}
	return out
}

// timeUnder sums the samples with any frame that match accepts: the
// inclusive ("cum") time of those functions, each sample counted once.
func timeUnder(stacks []stack, match func(fn string) bool) float64 {
	var total float64
	for _, s := range stacks {
		for _, f := range s.frames {
			if match(f) {
				total += s.seconds
				break
			}
		}
	}
	return total
}

package stats

import (
	"fmt"

	"tcpburst/internal/sim"
)

// WindowCounter bins point events (packet arrivals) into fixed-duration
// windows of virtual time — the paper observes the number of packets
// arriving at the gateway in each round-trip propagation delay. Windows
// with no arrivals count as zero, which matters: skipping empty windows
// would understate burstiness.
type WindowCounter struct {
	window  sim.Duration
	start   sim.Time // beginning of the current window
	current float64  // events observed in the current window
	counts  []float64
	opened  bool
}

// NewWindowCounter returns a counter with the given window length. The
// first window opens at the instant of Open (or the first Observe).
func NewWindowCounter(window sim.Duration) (*WindowCounter, error) {
	if window <= 0 {
		return nil, fmt.Errorf("window counter: window %v <= 0", window)
	}
	return &WindowCounter{window: window}, nil
}

// Open anchors the first window at now. Calling Open is optional; the
// first Observe anchors it otherwise.
func (c *WindowCounter) Open(now sim.Time) {
	if !c.opened {
		c.opened = true
		c.start = now
	}
}

// Observe records one event at the given instant. Instants must be
// non-decreasing (simulation time only moves forward).
func (c *WindowCounter) Observe(now sim.Time) {
	c.ObserveN(now, 1)
}

// ObserveN records n simultaneous events at the given instant.
func (c *WindowCounter) ObserveN(now sim.Time, n float64) {
	c.Open(now)
	c.rollTo(now)
	c.current += n
}

// Reserve sizes the count storage for every window that closes by end, so
// a counter observed up to end never regrows it. Call it after Open; an
// unopened counter reserves from TimeZero.
func (c *WindowCounter) Reserve(end sim.Time) {
	if n := int(end.Sub(c.start)/c.window) + 1; n > cap(c.counts) {
		grown := make([]float64, len(c.counts), n)
		copy(grown, c.counts)
		c.counts = grown
	}
}

// Close flushes through the end instant and returns the completed window
// counts. The partial final window is discarded: it would bias the
// distribution toward small counts. The slice is the counter's own
// storage, handed over without a copy: the caller owns it and must not
// observe more events; closing again at the same end returns it again.
func (c *WindowCounter) Close(end sim.Time) []float64 {
	if c.opened {
		c.rollTo(end)
	}
	return c.counts
}

// Counts returns the completed window counts so far.
func (c *WindowCounter) Counts() []float64 {
	out := make([]float64, len(c.counts))
	copy(out, c.counts)
	return out
}

// CompletedBy closes every window that ends at or before now and returns
// the completed window counts so far. The slice aliases the counter's
// storage, so it costs no allocation; callers must not mutate it.
func (c *WindowCounter) CompletedBy(now sim.Time) []float64 {
	if c.opened {
		c.rollTo(now)
	}
	return c.counts
}

// rollTo closes every window that ends at or before now, recording zeros
// for empty ones.
func (c *WindowCounter) rollTo(now sim.Time) {
	for now.Sub(c.start) >= c.window {
		c.counts = append(c.counts, c.current)
		c.current = 0
		c.start = c.start.Add(c.window)
	}
}

// Aggregate sums consecutive runs of m values — the block-aggregation step
// of self-similarity analysis. Trailing values that do not fill a block are
// dropped. m < 1 returns nil.
func Aggregate(xs []float64, m int) []float64 {
	if m < 1 || len(xs) < m {
		return nil
	}
	out := make([]float64, 0, len(xs)/m)
	for i := 0; i+m <= len(xs); i += m {
		out = append(out, blockMean(xs[i:i+m]))
	}
	return out
}

// blockMean is the mean of one aggregation block, summed left to right.
func blockMean(block []float64) float64 {
	var sum float64
	for _, x := range block {
		sum += x
	}
	return sum / float64(len(block))
}

package stats

// DelayDist accumulates one-way packet-delay observations (in seconds): a
// running mean/variance plus a bounded systematic sample for quantile
// estimates. Systematic (every k-th) sampling keeps memory constant
// without a random source and is unbiased for quantiles as long as delays
// are not periodic at exactly the sampling stride.
type DelayDist struct {
	w Welford

	// The kept samples, in arrival order, fill chunks that double in size
	// from one element: full holds the filled ones, tail the one being
	// filled. A stored sample is never copied, the chunks never hold more
	// than twice what they keep, the first costs no more than a first
	// append would, and the last holds only what the cap leaves. Since
	// every chunk but the last is full, full's k-th chunk holds 2^k
	// samples, and the kept count follows from the two slices.
	full [][]float64
	tail []float64
}

const (
	delayStride     = 8
	maxDelaySamples = 1 << 14
)

// Observe folds one delay observation (seconds) in; negatives are ignored.
func (d *DelayDist) Observe(seconds float64) {
	if seconds < 0 {
		return
	}
	// w counts the observations so far: every delayStride-th is kept.
	if d.w.n%delayStride == 0 {
		if n := len(d.tail); n < cap(d.tail) {
			d.tail = d.tail[:n+1]
			d.tail[n] = seconds
		} else {
			d.grow(seconds)
		}
	}
	d.w.Add(seconds)
}

// sampled returns how many samples d keeps.
func (d *DelayDist) sampled() int { return 1<<len(d.full) - 1 + len(d.tail) }

// grow opens the next chunk with s in it, unless the cap is reached.
func (d *DelayDist) grow(s float64) {
	kept := d.sampled()
	if kept >= maxDelaySamples {
		return
	}
	if d.tail != nil {
		d.full = append(d.full, d.tail)
	}
	d.tail = make([]float64, 1, min(kept+1, maxDelaySamples-kept))
	d.tail[0] = s
}

// Count returns the number of observations.
func (d *DelayDist) Count() uint64 { return d.w.Count() }

// Mean returns the mean delay in seconds.
func (d *DelayDist) Mean() float64 { return d.w.Mean() }

// MergeDelays pools the n distributions dist(0), ..., dist(n-1) in that
// order and returns their pooled mean and sampled 95th-percentile delay in
// seconds. The running moments merge one after another; the samples are
// concatenated, up to the cap, into one slice sized exactly up front,
// which the percentile then sorts in place.
func MergeDelays(n int, dist func(i int) *DelayDist) (mean, p95 float64) {
	var w Welford
	total := 0
	for i := 0; i < n; i++ {
		d := dist(i)
		w.Merge(d.w)
		total += d.sampled()
	}
	samples := make([]float64, 0, min(total, maxDelaySamples))
	for i := 0; i < n && len(samples) < cap(samples); i++ {
		d := dist(i)
		for _, c := range d.full {
			samples = appendUpTo(samples, c)
		}
		samples = appendUpTo(samples, d.tail)
	}
	return w.Mean(), QuantileInPlace(samples, 0.95)
}

// appendUpTo appends as much of c to dst as dst's capacity takes.
func appendUpTo(dst, c []float64) []float64 {
	return append(dst, c[:min(len(c), cap(dst)-len(dst))]...)
}

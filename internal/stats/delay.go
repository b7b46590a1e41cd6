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

// grow opens the next chunk with s in it, unless the cap is reached. It
// reopens the chunk a reset left in that place when there is one: chunk k
// always has the same size, so the reused store fills exactly the chunks a
// new one would.
func (d *DelayDist) grow(s float64) {
	kept := d.sampled()
	if kept >= maxDelaySamples {
		return
	}
	if d.tail != nil {
		d.full = append(d.full, d.tail)
	}
	size := min(kept+1, maxDelaySamples-kept)
	if k := len(d.full); k < cap(d.full) && cap(d.full[:k+1][k]) == size {
		d.tail = d.full[:k+1][k][:1]
	} else {
		d.tail = make([]float64, 1, size)
	}
	d.tail[0] = s
}

// Reset empties d for reuse and keeps its chunks in place, past the end
// of full, for grow to reopen in order. Which observations a store keeps
// depends only on its observation count, so a reset store keeps the same
// samples a new one would, in the same chunks, and allocates only past
// the most samples it ever kept.
func (d *DelayDist) Reset() {
	if d.tail != nil {
		d.full = append(d.full, d.tail)
	}
	*d = DelayDist{full: d.full[:0]}
}

// Count returns the number of observations.
func (d *DelayDist) Count() uint64 { return d.w.Count() }

// Mean returns the mean delay in seconds.
func (d *DelayDist) Mean() float64 { return d.w.Mean() }

// MergeDelays pools the n distributions dist(0), ..., dist(n-1) in that
// order and returns their pooled mean and sampled 95th-percentile delay in
// seconds. The running moments merge one after another; the samples are
// concatenated, up to the cap, into scratch's storage, which the
// percentile then sorts in place. The storage, grown when scratch is too
// small, is returned for the caller's next merge.
func MergeDelays(scratch []float64, n int, dist func(i int) *DelayDist) (mean, p95 float64, merged []float64) {
	var w Welford
	total := 0
	for i := 0; i < n; i++ {
		d := dist(i)
		w.Merge(d.w)
		total += d.sampled()
	}
	limit := min(total, maxDelaySamples)
	samples := scratch[:0]
	if cap(samples) < limit {
		samples = make([]float64, 0, limit)
	}
	for i := 0; i < n && len(samples) < limit; i++ {
		d := dist(i)
		for _, c := range d.full {
			samples = appendUpTo(samples, c, limit)
		}
		samples = appendUpTo(samples, d.tail, limit)
	}
	return w.Mean(), QuantileInPlace(samples, 0.95), samples
}

// appendUpTo appends as much of c to dst as keeps dst within limit.
func appendUpTo(dst, c []float64, limit int) []float64 {
	return append(dst, c[:min(len(c), limit-len(dst))]...)
}

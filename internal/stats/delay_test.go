package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refDelayDist is the sample store DelayDist replaced: one slice grown by
// append, merged by append, and copied to sort for the percentile.
type refDelayDist struct {
	w       Welford
	samples []float64
	seen    uint64
}

func (d *refDelayDist) observe(seconds float64) {
	if seconds < 0 {
		return
	}
	d.w.Add(seconds)
	if d.seen%delayStride == 0 && len(d.samples) < maxDelaySamples {
		d.samples = append(d.samples, seconds)
	}
	d.seen++
}

func (d *refDelayDist) merge(o *refDelayDist) {
	d.w.Merge(o.w)
	for _, s := range o.samples {
		if len(d.samples) >= maxDelaySamples {
			break
		}
		d.samples = append(d.samples, s)
	}
}

func (d *refDelayDist) p95() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(d.samples))
	copy(sorted, d.samples)
	sort.Float64s(sorted)
	return quantileSorted(sorted, 0.95)
}

// TestDelayMergeMatchesReference: the chunked store, the one-pass merge
// and the in-place percentile give bit for bit the mean and P95 of the
// append, copy and sort path, for flow counts and sample counts that stay
// under the cap, fill a single flow past it, and overflow it in total.
// The stores are reset and reused from trial to trial and the merge
// scratch is carried along, as a run arena does, so a reused store must
// keep the same samples as a new one whether it shrinks or grows.
func TestDelayMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := make([]DelayDist, 12)
	var scratch []float64
	for trial := 0; trial < 60; trial++ {
		flows := rng.Intn(12)
		maxObs := []int{0, 50, 3000, 20000, 200000}[trial%5]
		dists := pool[:flows]
		var ref refDelayDist
		total := 0
		for i := range dists {
			dists[i].Reset()
			var r refDelayDist
			obs := 0
			if maxObs > 0 {
				obs = rng.Intn(maxObs)
			}
			for j := 0; j < obs; j++ {
				x := rng.ExpFloat64() * 0.05
				if rng.Intn(50) == 0 {
					x = -x
				}
				dists[i].Observe(x)
				r.observe(x)
			}
			if dists[i].Count() != r.w.Count() || dists[i].sampled() != len(r.samples) {
				t.Fatalf("trial %d flow %d: count %d/%d sampled, want %d/%d",
					trial, i, dists[i].Count(), dists[i].sampled(), r.w.Count(), len(r.samples))
			}
			total += len(r.samples)
			ref.merge(&r)
		}
		var mean, p95 float64
		mean, p95, scratch = MergeDelays(scratch, flows, func(i int) *DelayDist { return &dists[i] })
		if math.Float64bits(mean) != math.Float64bits(ref.w.Mean()) ||
			math.Float64bits(p95) != math.Float64bits(ref.p95()) {
			t.Errorf("trial %d (%d flows, %d samples): mean %v p95 %v, want %v %v",
				trial, flows, total, mean, p95, ref.w.Mean(), ref.p95())
		}
	}
}

// TestDelayChunksNeverExceedCap: the store keeps at most maxDelaySamples,
// its chunks double from one element, and they have room for exactly the
// samples kept once the cap is reached.
func TestDelayChunksNeverExceedCap(t *testing.T) {
	var d DelayDist
	for i := 0; i < 10*delayStride*maxDelaySamples; i++ {
		d.Observe(float64(i))
	}
	room := 0
	for k, c := range append(d.full, d.tail) {
		if want := min(1<<k, maxDelaySamples-room); cap(c) != want || len(c) != want {
			t.Errorf("chunk %d holds %d in room for %d, want %d", k, len(c), cap(c), want)
		}
		room += cap(c)
	}
	if d.sampled() != maxDelaySamples || room != maxDelaySamples {
		t.Errorf("sampled %d in room for %d, want %d", d.sampled(), room, maxDelaySamples)
	}
}

// TestDelayResetKeepsChunks: a reset store refills the chunks it kept, in
// order, holds the samples a new store would, and allocates nothing while
// it keeps no more than it kept before.
func TestDelayResetKeepsChunks(t *testing.T) {
	fill := func(d *DelayDist, n int) {
		for i := 0; i < n; i++ {
			d.Observe(float64(i % 977))
		}
	}
	var d DelayDist
	fill(&d, delayStride*maxDelaySamples)
	if allocs := testing.AllocsPerRun(5, func() {
		d.Reset()
		fill(&d, delayStride*maxDelaySamples)
	}); allocs != 0 {
		t.Errorf("refilling a reset store allocated %.0f times, want 0", allocs)
	}
	for _, n := range []int{0, 1, 9, 5000, delayStride * maxDelaySamples * 2} {
		var fresh DelayDist
		d.Reset()
		fill(&d, n)
		fill(&fresh, n)
		got := append(d.full[:len(d.full):len(d.full)], d.tail)
		want := append(fresh.full, fresh.tail)
		if len(got) != len(want) || d.Count() != fresh.Count() {
			t.Fatalf("n=%d: %d chunks, %d observations; want %d, %d", n, len(got), d.Count(), len(want), fresh.Count())
		}
		for k := range got {
			if !slices.Equal(got[k], want[k]) || cap(got[k]) != cap(want[k]) {
				t.Errorf("n=%d chunk %d: %v (room %d), want %v (room %d)", n, k, got[k], cap(got[k]), want[k], cap(want[k]))
			}
		}
	}
}

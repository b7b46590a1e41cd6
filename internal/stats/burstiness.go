package stats

import (
	"math"
	"sort"
)

// The companion measures to the c.o.v. used in the traffic-characterization
// literature the paper engages with: the index of dispersion for counts,
// the peak-to-mean ratio, and distribution quantiles.

// IndexOfDispersion returns the index of dispersion for counts (IDC) of a
// window-count series at aggregation level m: the variance of the
// m-aggregated counts divided by their mean. A Poisson process has IDC = 1
// at every m; IDC growing with m signals long-range dependence. It returns
// 0 when undefined.
func IndexOfDispersion(counts []float64, m int) float64 {
	agg := Aggregate(counts, m)
	if len(agg) < 2 {
		return 0
	}
	// Aggregate() averages blocks; IDC is defined on block sums.
	w := Welford{}
	for _, x := range agg {
		w.Add(x * float64(m))
	}
	if w.Mean() == 0 { //burst:floateq-ok zero-mean guard before division
		return 0
	}
	return w.PopVariance() / w.Mean()
}

// IDCCurve evaluates the IDC at power-of-two aggregation levels up to the
// series length / 8, returning parallel slices of m and IDC(m). This is
// the standard diagnostic plot for traffic burstiness across timescales.
func IDCCurve(counts []float64) (ms []int, idc []float64) {
	for m := 1; len(counts)/m >= 8; m *= 2 {
		v := IndexOfDispersion(counts, m)
		if v == 0 { //burst:floateq-ok IndexOfDispersion returns assigned 0 when undefined
			continue
		}
		ms = append(ms, m)
		idc = append(idc, v)
	}
	return ms, idc
}

// PeakToMean returns the ratio of the maximum to the mean of the series —
// the bluntest burstiness measure, 1 for perfectly smooth traffic. It
// returns 0 when undefined.
func PeakToMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	w := Summarize(xs)
	if w.Mean() == 0 { //burst:floateq-ok zero-mean guard before division
		return 0
	}
	max := math.Inf(-1)
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	return max / w.Mean()
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. It returns 0 for empty input and
// clamps q into [0,1].
func Quantile(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	return QuantileInPlace(sorted, q)
}

// QuantileInPlace is Quantile for a caller that owns xs and needs it no
// more: it sorts xs instead of a copy.
func QuantileInPlace(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return quantileSorted(xs, q)
}

// Quantiles returns several quantiles in one sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	switch {
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

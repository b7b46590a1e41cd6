package stats

import "math"

// The paper (§2.2) argues the c.o.v. reflects statistical-multiplexing
// effectiveness better than the Hurst parameter used by the self-similarity
// literature. To support that comparison the library provides the two
// classic Hurst estimators: the variance-time plot and rescaled-range (R/S)
// analysis. H ≈ 0.5 indicates short-range dependence; H → 1 indicates
// self-similar, long-range-dependent traffic.

// HurstVarianceTime estimates the Hurst parameter of the count series xs by
// the variance-time method: the variance of the m-aggregated series decays
// as m^(2H-2), so a log-log regression of variance against m has slope
// 2H-2. It returns 0.5 (no long-range dependence) when the series is too
// short or degenerate to regress.
//
// Each level's block means stream into its variance in block order, the
// order Summarize(Aggregate(xs, m)) adds them in, so the estimate is bit
// for bit that of aggregating every level into a slice of its own, without
// allocating one.
func HurstVarianceTime(xs []float64) float64 {
	if len(xs) < 16 {
		return 0.5
	}
	// Levels double m while len(xs)/m >= 8, so an int length has fewer
	// than 64 of them.
	var logM, logV [64]float64
	levels := 0
	for m := 1; len(xs)/m >= 8; m *= 2 {
		var w Welford
		for i := 0; i+m <= len(xs); i += m {
			w.Add(blockMean(xs[i : i+m]))
		}
		v := w.PopVariance()
		if v <= 0 {
			continue
		}
		logM[levels] = math.Log(float64(m))
		logV[levels] = math.Log(v)
		levels++
	}
	slope, ok := regressSlope(logM[:levels], logV[:levels])
	if !ok {
		return 0.5
	}
	h := 1 + slope/2
	return clampHurst(h)
}

// HurstRS estimates the Hurst parameter by rescaled-range analysis: for
// each block size n, E[R(n)/S(n)] grows as n^H, so a log-log regression of
// the mean rescaled range against n has slope H. It returns 0.5 for series
// too short or degenerate to regress.
func HurstRS(xs []float64) float64 {
	if len(xs) < 32 {
		return 0.5
	}
	var logN, logRS []float64
	for n := 8; n <= len(xs)/2; n *= 2 {
		var rsSum float64
		var blocks int
		for i := 0; i+n <= len(xs); i += n {
			rs, ok := rescaledRange(xs[i : i+n])
			if !ok {
				continue
			}
			rsSum += rs
			blocks++
		}
		if blocks == 0 {
			continue
		}
		logN = append(logN, math.Log(float64(n)))
		logRS = append(logRS, math.Log(rsSum/float64(blocks)))
	}
	slope, ok := regressSlope(logN, logRS)
	if !ok {
		return 0.5
	}
	return clampHurst(slope)
}

// rescaledRange computes R/S for one block: the range of the mean-adjusted
// cumulative sum divided by the block standard deviation.
func rescaledRange(block []float64) (float64, bool) {
	w := Summarize(block)
	sd := math.Sqrt(w.PopVariance())
	if sd == 0 { //burst:floateq-ok zero-deviation guard before division
		return 0, false
	}
	mean := w.Mean()
	var cum, minCum, maxCum float64
	for _, x := range block {
		cum += x - mean
		if cum < minCum {
			minCum = cum
		}
		if cum > maxCum {
			maxCum = cum
		}
	}
	r := maxCum - minCum
	if r <= 0 {
		return 0, false
	}
	return r / sd, true
}

// regressSlope returns the least-squares slope of y on x.
func regressSlope(x, y []float64) (float64, bool) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, false
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 { //burst:floateq-ok degenerate-denominator guard before division
		return 0, false
	}
	return (n*sxy - sx*sy) / denom, true
}

// Autocorrelation returns the lag-k sample autocorrelation of xs, a direct
// short-range burstiness diagnostic. It returns 0 when undefined.
func Autocorrelation(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		return 0
	}
	w := Summarize(xs)
	denom := w.PopVariance() * float64(len(xs))
	if denom == 0 { //burst:floateq-ok degenerate-denominator guard before division
		return 0
	}
	mean := w.Mean()
	var num float64
	for i := 0; i+k < len(xs); i++ {
		num += (xs[i] - mean) * (xs[i+k] - mean)
	}
	return num / denom
}

func clampHurst(h float64) float64 {
	switch {
	case math.IsNaN(h):
		return 0.5
	case h < 0:
		return 0
	case h > 1:
		return 1
	default:
		return h
	}
}

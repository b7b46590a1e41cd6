package stats

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator for test series.
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(uint64(*g)>>11) / float64(1<<53)
}

func (g *lcg) gaussian() float64 {
	// Box–Muller.
	u1, u2 := g.next(), g.next()
	for u1 == 0 {
		u1 = g.next()
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// whiteNoise returns an iid Gaussian series (H = 0.5).
func whiteNoise(n int, seed uint64) []float64 {
	g := lcg(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 10 + g.gaussian()
	}
	return out
}

// randomWalkIncrBursty builds a strongly positively correlated series by
// smoothing white noise with a long window — long-range-dependence-like at
// the scales the estimators probe, so H estimates should come out high.
func smoothedNoise(n, window int, seed uint64) []float64 {
	base := whiteNoise(n+window, seed)
	out := make([]float64, n)
	for i := range out {
		var sum float64
		for j := 0; j < window; j++ {
			sum += base[i+j]
		}
		out[i] = sum / float64(window)
	}
	return out
}

func TestHurstVarianceTimeWhiteNoise(t *testing.T) {
	h := HurstVarianceTime(whiteNoise(8192, 3))
	if h < 0.4 || h > 0.6 {
		t.Errorf("variance-time H = %v for white noise, want ~0.5", h)
	}
}

func TestHurstVarianceTimeCorrelatedSeries(t *testing.T) {
	h := HurstVarianceTime(smoothedNoise(8192, 64, 5))
	if h < 0.75 {
		t.Errorf("variance-time H = %v for long-memory series, want > 0.75", h)
	}
}

func TestHurstRSWhiteNoise(t *testing.T) {
	h := HurstRS(whiteNoise(8192, 7))
	// R/S is biased upward on short series; accept a generous band
	// centered near 0.5-0.6.
	if h < 0.4 || h > 0.7 {
		t.Errorf("R/S H = %v for white noise, want ~0.5-0.6", h)
	}
}

func TestHurstRSCorrelatedSeries(t *testing.T) {
	h := HurstRS(smoothedNoise(8192, 64, 9))
	if h < 0.75 {
		t.Errorf("R/S H = %v for long-memory series, want > 0.75", h)
	}
}

func TestHurstDegenerateInputs(t *testing.T) {
	if h := HurstVarianceTime(nil); h != 0.5 {
		t.Errorf("nil series: %v, want 0.5", h)
	}
	if h := HurstVarianceTime(make([]float64, 4)); h != 0.5 {
		t.Errorf("short series: %v, want 0.5", h)
	}
	constant := make([]float64, 1024)
	for i := range constant {
		constant[i] = 7
	}
	if h := HurstVarianceTime(constant); h != 0.5 {
		t.Errorf("constant series: %v, want 0.5 fallback", h)
	}
	if h := HurstRS(constant); h != 0.5 {
		t.Errorf("R/S constant series: %v, want 0.5 fallback", h)
	}
}

func TestHurstClamped(t *testing.T) {
	for _, xs := range [][]float64{
		whiteNoise(1024, 1),
		smoothedNoise(1024, 32, 2),
	} {
		for _, h := range []float64{HurstVarianceTime(xs), HurstRS(xs)} {
			if h < 0 || h > 1 {
				t.Errorf("H = %v outside [0,1]", h)
			}
		}
	}
}

func TestAutocorrelation(t *testing.T) {
	// Lag-0 autocorrelation is 1 by definition.
	xs := whiteNoise(4096, 11)
	if got := Autocorrelation(xs, 0); !almostEqual(got, 1, 1e-9) {
		t.Errorf("lag-0 = %v, want 1", got)
	}
	// White noise: lag-1 near 0.
	if got := Autocorrelation(xs, 1); math.Abs(got) > 0.1 {
		t.Errorf("white noise lag-1 = %v, want ~0", got)
	}
	// Alternating series: lag-1 near -1.
	alt := make([]float64, 1024)
	for i := range alt {
		if i%2 == 0 {
			alt[i] = 1
		} else {
			alt[i] = -1
		}
	}
	if got := Autocorrelation(alt, 1); got > -0.9 {
		t.Errorf("alternating lag-1 = %v, want ~-1", got)
	}
	// Smoothed series: strong positive lag-1.
	if got := Autocorrelation(smoothedNoise(4096, 32, 13), 1); got < 0.8 {
		t.Errorf("smoothed lag-1 = %v, want > 0.8", got)
	}
	// Degenerate inputs.
	if Autocorrelation(nil, 1) != 0 || Autocorrelation(xs, -1) != 0 || Autocorrelation(xs, len(xs)) != 0 {
		t.Error("degenerate autocorrelation inputs must return 0")
	}
}

// refHurstVarianceTime is the variance-time estimate as it aggregated each
// level into a slice of its own.
func refHurstVarianceTime(xs []float64) float64 {
	if len(xs) < 16 {
		return 0.5
	}
	var logM, logV []float64
	for m := 1; len(xs)/m >= 8; m *= 2 {
		w := Summarize(Aggregate(xs, m))
		v := w.PopVariance()
		if v <= 0 {
			continue
		}
		logM = append(logM, math.Log(float64(m)))
		logV = append(logV, math.Log(v))
	}
	slope, ok := regressSlope(logM, logV)
	if !ok {
		return 0.5
	}
	return clampHurst(1 + slope/2)
}

// TestHurstVarianceTimeMatchesAggregate: streaming each level's block means
// gives bit for bit the estimate of aggregating every level into a slice,
// on count-like and continuous series of many lengths, and allocates
// nothing.
func TestHurstVarianceTimeMatchesAggregate(t *testing.T) {
	g := lcg(11)
	for _, n := range []int{15, 16, 17, 63, 64, 100, 399, 1000, 4097} {
		for _, counts := range []bool{true, false} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = g.gaussian()*3 + 10
				if counts {
					xs[i] = math.Round(math.Abs(xs[i]))
				}
			}
			got, want := HurstVarianceTime(xs), refHurstVarianceTime(xs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d counts=%v: H=%v, want %v", n, counts, got, want)
			}
			if allocs := testing.AllocsPerRun(3, func() { HurstVarianceTime(xs) }); allocs != 0 {
				t.Errorf("n=%d: HurstVarianceTime allocated %.0f times, want 0", n, allocs)
			}
		}
	}
}

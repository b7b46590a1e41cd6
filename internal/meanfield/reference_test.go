package meanfield

import (
	"fmt"
	"math"
	"testing"
)

// The reference below is the RED closure as it stood before the screened
// bisection and the shared elimination workspace: every bisection step runs
// the dense chain solve, on a freshly allocated [][]float64 system with row
// swaps. The production solver must return bit-identical closures.

// referenceSolveLinear solves the augmented system a·x = b, each row being
// [coefficients..., rhs], by Gauss–Jordan elimination with partial pivoting
// and row swaps.
func referenceSolveLinear(a [][]float64) []float64 {
	n := len(a)
	for col := 0; col < n; col++ {
		best := col
		bestAbs := abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[r][col]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		a[col], a[best] = a[best], a[col]
		piv := a[col][col]
		if bestAbs < 1e-300 {
			continue
		}
		inv := 1 / piv
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := a[r][col] * inv
			if factor == 0 { //burst:floateq-ok exact-zero factor means the row is already eliminated
				continue
			}
			row, prow := a[r], a[col]
			for c := col; c <= n; c++ {
				row[c] -= factor * prow[c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		piv := a[i][i]
		if abs(piv) < 1e-300 {
			x[i] = 0
			continue
		}
		x[i] = a[i][n] / piv
	}
	return x
}

// referenceQueueChain is the slotted chain's stationary law on the
// reference elimination.
func referenceQueueChain(a float64, b int) queueState {
	qs := queueState{a: a}
	if a <= 0 {
		qs.dist = make([]float64, b+1)
		qs.dist[0] = 1
		return qs
	}
	if a >= saturationIntensity {
		qs.dist = make([]float64, b+1)
		qs.dist[b] = 1
		qs.meanQ = float64(b)
		qs.lossFrac = 1 - 1/a
		return qs
	}
	kmax := int(a + 12*math.Sqrt(a) + 25)
	r := make([]float64, kmax+1)
	r[0] = math.Exp(-a)
	for k := 1; k <= kmax; k++ {
		r[k] = r[k-1] * a / float64(k)
	}
	n := b + 1
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
	}
	for q := 0; q < n; q++ {
		base := max(q-1, 0)
		var tail float64 = 1
		for k := 0; k <= kmax; k++ {
			j := base + k
			if j >= b {
				m[b][q] += tail
				break
			}
			m[j][q] += r[k]
			tail -= r[k]
		}
	}
	for i := 0; i < n; i++ {
		m[i][i]--
	}
	for j := 0; j < n; j++ {
		m[n-1][j] = 1
	}
	m[n-1][n] = 1
	pi := referenceSolveLinear(m)

	var sum float64
	for i := range pi {
		if pi[i] < 0 {
			pi[i] = 0
		}
		sum += pi[i]
	}
	if sum <= 0 {
		pi = make([]float64, n)
		pi[0] = 1
		sum = 1
	}
	var mean, mean2, overflow float64
	for q := 0; q < n; q++ {
		pi[q] /= sum
		fq := float64(q)
		mean += pi[q] * fq
		mean2 += pi[q] * fq * fq
		base := max(q-1, 0)
		excessFrom := max(b-base+1, 0)
		var ex float64
		for k := excessFrom; k <= kmax; k++ {
			ex += r[k] * float64(base+k-b)
		}
		overflow += pi[q] * ex
	}
	qs.dist = pi
	qs.meanQ = mean
	qs.varQ = mean2 - mean*mean
	if qs.varQ < 0 {
		qs.varQ = 0
	}
	qs.lossFrac = overflow / a
	if qs.lossFrac < 0 {
		qs.lossFrac = 0
	}
	if qs.lossFrac > 1 {
		qs.lossFrac = 1
	}
	return qs
}

// referenceSolveRED is the RED closure with a dense solve at every
// bisection step.
func referenceSolveRED(a float64, b int, red REDParams) redClosure {
	eval := func(pe float64) (redClosure, float64) {
		admitted := a
		if !red.ECN {
			admitted = a * (1 - pe)
		}
		var rc redClosure
		rc.queue = referenceQueueChain(admitted, b)
		rc.avgMean = rc.queue.meanQ
		rc.avgStd = math.Sqrt(rc.queue.varQ * red.Weight / (2 - red.Weight))
		return rc, redRampMean(rc.avgMean, rc.avgStd, red)
	}
	if red.ECN {
		rc, pe := eval(0)
		rc.pEarly = pe
		return rc
	}
	if rc, pe := eval(0); pe <= 0 {
		rc.pEarly = 0
		return rc
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if _, pe := eval(mid); pe > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	pe := 0.5 * (lo + hi)
	rc, _ := eval(pe)
	rc.pEarly = pe
	return rc
}

// sameBits reports whether x and y are the same float64, bit for bit.
func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// checkSameClosure fails t unless got and want agree bit for bit.
func checkSameClosure(t *testing.T, name string, got, want redClosure) {
	t.Helper()
	fields := []struct {
		field     string
		got, want float64
	}{
		{"pEarly", got.pEarly, want.pEarly},
		{"avgMean", got.avgMean, want.avgMean},
		{"avgStd", got.avgStd, want.avgStd},
		{"a", got.queue.a, want.queue.a},
		{"meanQ", got.queue.meanQ, want.queue.meanQ},
		{"varQ", got.queue.varQ, want.queue.varQ},
		{"lossFrac", got.queue.lossFrac, want.queue.lossFrac},
	}
	for _, f := range fields {
		if !sameBits(f.got, f.want) {
			t.Errorf("%s: %s = %v, reference %v", name, f.field, f.got, f.want)
		}
	}
	if len(got.queue.dist) != len(want.queue.dist) {
		t.Fatalf("%s: dist has %d states, reference %d", name, len(got.queue.dist), len(want.queue.dist))
	}
	for i := range got.queue.dist {
		if !sameBits(got.queue.dist[i], want.queue.dist[i]) {
			t.Errorf("%s: dist[%d] = %v, reference %v", name, i, got.queue.dist[i], want.queue.dist[i])
			return
		}
	}
}

// referenceREDs covers the standard and gentle laws with varied thresholds,
// weight and max-p, including thresholds beyond small buffers. The first
// three are paper-like: a slow average over a ramp several packets wide.
var referenceREDs = []REDParams{
	{MinThreshold: 10, MaxThreshold: 40, Weight: 0.002, MaxProb: 0.1},
	{MinThreshold: 5, MaxThreshold: 15, Weight: 0.002, MaxProb: 0.1},
	{MinThreshold: 5, MaxThreshold: 15, Weight: 0.05, MaxProb: 0.5, Gentle: true},
	{MinThreshold: 0.5, MaxThreshold: 1.5, Weight: 0.3, MaxProb: 1},
	{MinThreshold: 2, MaxThreshold: 120, Weight: 0.9, MaxProb: 0.02, Gentle: true},
	{MinThreshold: 10, MaxThreshold: 40, Weight: 0.002, MaxProb: 0.1, ECN: true},
}

// steepREDs are laws whose response amplifies the dense solve's round-off:
// ramps a fraction of a packet wide, some under a near-unit weight. A fixed
// margin alone lets the screen and the dense solve disagree on them.
var steepREDs = []REDParams{
	{MinThreshold: 0.001, MaxThreshold: 0.002, Weight: 0.999, MaxProb: 1},
	{MinThreshold: 0.001, MaxThreshold: 0.002, Weight: 0.002, MaxProb: 1},
	{MinThreshold: 100, MaxThreshold: 101, Weight: 0.999, MaxProb: 1},
	{MinThreshold: 49.9, MaxThreshold: 49.95, Weight: 0.5, MaxProb: 0.3},
}

// referenceIntensities reach past saturationIntensity.
var referenceIntensities = []float64{0.05, 0.3, 0.7, 0.95, 1, 1.3, 2, 5, 12, 30, 49.9, saturationIntensity, 75}

func TestSolveREDMatchesReference(t *testing.T) {
	// The reference runs 62 dense solves per closure, each O(B³), so the
	// larger buffers take a sample of the grid.
	grid := []struct {
		b           int
		intensities []float64
		reds        []REDParams
	}{
		{1, referenceIntensities, append(referenceREDs, steepREDs...)},
		{2, referenceIntensities, append(referenceREDs, steepREDs...)},
		{20, referenceIntensities, append(referenceREDs, steepREDs...)},
		{50, referenceIntensities, append(referenceREDs, steepREDs...)},
		{200, []float64{0.3, 0.95, 49.9}, append(referenceREDs[1:3], steepREDs[2])},
		{512, []float64{0.95}, referenceREDs[1:2]},
	}
	for _, g := range grid {
		for _, a := range g.intensities {
			for i, red := range g.reds {
				name := fmt.Sprintf("a=%v/B=%d/red%d", a, g.b, i)
				got := new(workspace).solveRED(a, g.b, red)
				checkSameClosure(t, name, got, referenceSolveRED(a, g.b, red))
			}
		}
	}
}

// TestQueueChainMatchesReference checks the shared workspace against the
// reference elimination directly, reusing one workspace across buffer
// sizes so a stale row or permutation would show.
func TestQueueChainMatchesReference(t *testing.T) {
	ws := new(workspace)
	for _, b := range []int{1, 2, 20, 50, 200, 512, 3} {
		for _, a := range []float64{1e-3, 0.5, 0.99, 1.7, 8, 45} {
			got, want := ws.solveQueueChain(a, b), referenceQueueChain(a, b)
			checkSameClosure(t, fmt.Sprintf("a=%v/B=%d", a, b), redClosure{queue: got}, redClosure{queue: want})
		}
	}
}

// TestLinSystemMatchesReference solves systems with zero entries, ties and
// a singular column on the workspace and on the reference elimination.
func TestLinSystemMatchesReference(t *testing.T) {
	var sys linSystem
	for _, n := range []int{1, 2, 5, 17, 64} {
		for variant := 0; variant < 3; variant++ {
			ref := make([][]float64, n)
			sys.reset(n)
			for i := 0; i < n; i++ {
				ref[i] = make([]float64, n+1)
				for j := 0; j <= n; j++ {
					v := math.Sin(float64(7*i+13*j+variant)) * float64(1+(i*j)%5)
					switch {
					case variant == 1 && (i+j)%3 == 0:
						v = 0 // sparse: exact-zero factors
					case variant == 2 && j == n/2 && j < n:
						v = 0 // singular column
					case variant == 2 && j == 0:
						v = 1 // ties in the first pivot search
					}
					ref[i][j] = v
					sys.row(i)[j] = v
				}
			}
			got := sys.solve()
			want := referenceSolveLinear(ref)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Errorf("n=%d variant %d: x[%d] = %v, reference %v", n, variant, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCutLawMatchesDense measures the screen's headroom. For the
// paper-like laws the cut recursion's RED response agrees with the dense
// solve's to within 1e-11, a hundred times inside screenMargin. For every
// law, steep ones included, the dense response lies inside screenRED's
// round-off band or within 1e-11 of it, so no comparison the screen
// decides can come out otherwise on the dense solve.
func TestCutLawMatchesDense(t *testing.T) {
	const tol = 1e-11
	laws := append(append([]REDParams(nil), referenceREDs...), steepREDs...)
	ws := new(workspace)
	var worstPoint, worstBand float64
	for _, b := range []int{1, 2, 10, 20, 50, 100, 512} {
		for _, a := range []float64{0.02, 0.05, 0.2, 0.5, 0.8, 0.95, 0.98, 1, 1.02, 1.1, 1.5, 2, 3, 5, 8, 12, 20, 35, 49.9} {
			dense := ws.solveQueueChain(a, b)
			cut := make([]float64, b+1)
			newChainOp(a, b).cutLaw(cut)
			var mean, mean2 float64
			for q, p := range cut {
				mean += p * float64(q)
				mean2 += p * float64(q) * float64(q)
			}
			for i, red := range laws {
				want := redRampMean(dense.meanQ, avgStd(dense.varQ, red.Weight), red)
				if i < 3 {
					point := redRampMean(mean, avgStd(mean2-mean*mean, red.Weight), red)
					if d := abs(point - want); d > tol {
						t.Errorf("a=%v B=%d law %d: cut-law response %v, dense %v (|Δ| = %.3g)", a, b, i, point, want, d)
					} else {
						worstPoint = max(worstPoint, d)
					}
				}
				lo, hi := ws.screenRED(a, b, red)
				if out := max(lo-want, want-hi, 0); out > tol {
					t.Errorf("a=%v B=%d law %d: dense response %v outside screened band [%v, %v]", a, b, i, want, lo, hi)
				} else {
					worstBand = max(worstBand, out)
				}
			}
		}
	}
	t.Logf("largest |cut law − dense| response: %.3g; largest dense excursion outside the band: %.3g", worstPoint, worstBand)
}

// FuzzSolveREDMatchesReference checks that the screened, cached closure
// stays bit-identical to the every-step-dense reference over intensities,
// buffers and RED laws.
func FuzzSolveREDMatchesReference(f *testing.F) {
	for _, b := range []int{1, 2, 20, 50} {
		for _, a := range referenceIntensities {
			for _, red := range append(referenceREDs, steepREDs...) {
				f.Add(a, uint16(b), red.MinThreshold, red.MaxThreshold-red.MinThreshold, red.Weight, red.MaxProb, red.Gentle, red.ECN)
			}
		}
	}
	f.Fuzz(func(t *testing.T, a float64, b uint16, minTh, span, weight, maxProb float64, gentle, ecn bool) {
		// Fold the inputs into the ranges Params.Validate admits.
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(a) || !finite(minTh) || !finite(span) || !finite(weight) || !finite(maxProb) {
			t.Skip("non-finite input")
		}
		red := REDParams{
			MinThreshold: 1e-3 + math.Mod(abs(minTh), 600),
			Weight:       math.Mod(abs(weight), 1),
			MaxProb:      math.Mod(abs(maxProb), 1),
			Gentle:       gentle,
			ECN:          ecn,
		}
		red.MaxThreshold = red.MinThreshold + 1e-3 + math.Mod(abs(span), 600)
		if red.Weight <= 0 || red.MaxProb <= 0 {
			t.Skip("zero weight or max-p")
		}
		a = math.Mod(abs(a), 2*saturationIntensity)
		buf := 1 + int(b)%512
		got := new(workspace).solveRED(a, buf, red)
		checkSameClosure(t, fmt.Sprintf("a=%v B=%d %+v", a, buf, red), got, referenceSolveRED(a, buf, red))
	})
}

package meanfield

// Window-density discretization. Each TCP class carries a probability
// density f over window sizes w ∈ [1, MaxWindow], discretized on a uniform
// grid of Bins finite volumes. The mean-field dynamics are a
// transport-jump process on that grid:
//
//	∂f/∂t + ∂(g(w)·f)/∂w = jump terms
//
// with drift g(w) from the congestion-avoidance (or Vegas) law and jumps
// from loss signals: rate μ(w) = p·x(w) per flow, landing at w/2 (Reno
// halving) or 1 (Tahoe reset, or a timeout when w is too small for fast
// retransmit). The same discrete generator drives both the RK4 transient
// (Integrator) and the stationary solve (fixed point), so the two agree by
// construction.

// grid is the shared window discretization.
type grid struct {
	n       int
	lo, hi  float64
	dw      float64
	centers []float64
}

func newGrid(bins int, maxWindow float64) grid {
	g := grid{n: bins, lo: 1, hi: maxWindow}
	if g.hi <= g.lo {
		// Degenerate advertised window: a single bin at w = 1.
		g.hi = g.lo
		g.n = 1
	}
	if g.n > 1 {
		g.dw = (g.hi - g.lo) / float64(g.n)
	} else {
		g.dw = 1
	}
	g.centers = make([]float64, g.n)
	for j := 0; j < g.n; j++ {
		g.centers[j] = g.lo + (float64(j)+0.5)*g.dw
	}
	return g
}

// bin maps a window value to its grid index, clamped.
func (g grid) bin(w float64) int {
	if g.n == 1 || w <= g.lo {
		return 0
	}
	j := int((w - g.lo) / g.dw)
	if j >= g.n {
		j = g.n - 1
	}
	return j
}

// classEnv is the environment one class's density evolves in: the drop
// signal, the round-trip time, and the retransmission-inflated application
// rate. It changes between fixed-point iterations and RK4 stages; the
// grid does not.
type classEnv struct {
	class Class
	// lambdaEff is the per-flow send demand λ/(1−p_drop): the application
	// rate inflated by retransmissions of dropped packets.
	lambdaEff float64
	// rtt is the current round-trip time R = R0 + (Q+1)/C in seconds.
	rtt float64
	// baseRTT is the propagation-only round trip R0.
	baseRTT float64
	// pSignal is the probability an arriving packet carries a loss signal
	// (drop or ECN mark) — the window-halving driver.
	pSignal float64
	// pTimeoutLoss is the probability a retransmission is itself lost,
	// escalating a fast retransmit into a timeout (≈ p_drop).
	pTimeoutLoss float64
	minRTO       float64
	vegas        VegasParams
}

// sendRate returns the per-flow packet send rate at window w: the window
// rate w/R capped by the application demand, scaled by the timeout
// availability 1/(1+p·x·q_to·T0) — the renewal-theoretic fraction of time
// a flow is not idling in RTO (DESIGN.md §10).
func (e classEnv) sendRate(w float64) float64 {
	x := w / e.rtt
	if e.lambdaEff < x {
		x = e.lambdaEff
	}
	qto := e.pTimeoutLoss
	if w < timeoutWindow {
		qto = 1 // too small for three duplicate ACKs: every loss times out
	}
	denom := 1 + e.pSignal*x*qto*e.minRTO
	return x / denom
}

// timeoutFrac returns the fraction of loss signals at window w that
// escalate to timeouts rather than fast retransmits.
func (e classEnv) timeoutFrac(w float64) float64 {
	if w < timeoutWindow {
		return 1
	}
	return e.pTimeoutLoss
}

// vegasRamp is the width in packets over which the Vegas threshold law is
// smoothed. Real Vegas switches its per-RTT adjustment discontinuously at
// the α and β backlog thresholds; in the mean-field map that hard switch
// flips the drift sign of whole grid bins under infinitesimal RTT changes,
// so the steady-state response becomes discontinuous in (p, R) and the
// fixed-point iteration limit-cycles across the threshold instead of
// converging. Ramping the gain linearly over half a packet keeps the map
// Lipschitz while leaving the law unchanged away from the thresholds.
const vegasRamp = 0.5

// vegasGain maps the Vegas backlog estimate diff = W·(R−R0)/R to the
// per-RTT window adjustment in [−1, +1]: +1 below α, −1 above β, 0 in the
// hold band, with linear ramps of width vegasRamp at both thresholds.
func vegasGain(diff float64, v VegasParams) float64 {
	switch {
	case diff <= v.Alpha-vegasRamp:
		return 1
	case diff < v.Alpha:
		return (v.Alpha - diff) / vegasRamp
	case diff <= v.Beta:
		return 0
	case diff < v.Beta+vegasRamp:
		return -(diff - v.Beta) / vegasRamp
	default:
		return -1
	}
}

// drift returns the window growth velocity g(w) in packets/second.
func (e classEnv) drift(w float64) float64 {
	switch e.class.Variant {
	case Vegas:
		// Vegas keeps diff = W·(R−R0)/R — its estimate of packets parked
		// in the queue — inside [α, β], adjusting by one packet per RTT
		// (smoothed at the thresholds; see vegasGain).
		diff := w * (e.rtt - e.baseRTT) / e.rtt
		return vegasGain(diff, e.vegas) / e.rtt
	default:
		// Reno-family congestion avoidance: +1/(b·W) per delivered ACK.
		return e.sendRate(w) * (1 - e.pSignal) / (e.class.ackFactor() * w)
	}
}

// lossTarget returns the post-loss window for a flow at w.
func (e classEnv) lossTarget(w float64, timeout bool) float64 {
	if timeout || e.class.Variant == Tahoe {
		return 1
	}
	h := w / 2
	if h < 1 {
		h = 1
	}
	return h
}

// applyGenerator accumulates df/dt for one class into dst (same length as
// f): upwind advection of the drift plus the loss-jump redistribution.
// dst is NOT zeroed here so RK4 stages can reuse one buffer per class.
func (e classEnv) applyGenerator(g grid, f, dst []float64) {
	for j := 0; j < g.n; j++ {
		fj := f[j]
		if fj <= 0 {
			continue
		}
		w := g.centers[j]

		// Advection: mass moves one bin per dw of window growth. The top
		// bin absorbs upward drift (the advertised-window cap); the bottom
		// bin absorbs downward drift (Vegas backing off at w = 1).
		v := e.drift(w)
		if v > 0 && j < g.n-1 {
			r := v / g.dw * fj
			dst[j] -= r
			dst[j+1] += r
		} else if v < 0 && j > 0 {
			r := -v / g.dw * fj
			dst[j] -= r
			dst[j-1] += r
		}

		// Loss jumps at rate p·x(w): a timeout share resets to one packet,
		// the rest halves.
		if e.pSignal > 0 {
			mu := e.pSignal * e.sendRate(w)
			if mu > 0 {
				to := e.timeoutFrac(w)
				if to > 0 {
					r := mu * to * fj
					dst[j] -= r
					dst[g.bin(e.lossTarget(w, true))] += r
				}
				if to < 1 {
					r := mu * (1 - to) * fj
					dst[j] -= r
					dst[g.bin(e.lossTarget(w, false))] += r
				}
			}
		}
	}
}

// classMoments summarizes a density under an environment.
type classMoments struct {
	meanW, meanW2 float64
	// sendPPS is the per-flow send rate E[x(W)].
	sendPPS float64
	// windowPPS is the pure window-limited rate E[(W/R)·avail] ignoring
	// the application cap — the capacity the window law would sustain.
	windowPPS float64
	// timeoutPPS and lossPPS are per-flow timeout and loss-signal event
	// rates.
	timeoutPPS, lossPPS float64
}

// moments integrates the density against the environment.
func (e classEnv) moments(g grid, f []float64) classMoments {
	var m classMoments
	for j := 0; j < g.n; j++ {
		fj := f[j]
		if fj <= 0 {
			continue
		}
		w := g.centers[j]
		x := e.sendRate(w)
		m.meanW += fj * w
		m.meanW2 += fj * w * w
		m.sendPPS += fj * x

		// Window-only rate: same availability penalty, no app cap.
		wr := w / e.rtt
		qto := e.timeoutFrac(w)
		m.windowPPS += fj * wr / (1 + e.pSignal*wr*qto*e.minRTO)

		loss := e.pSignal * x
		m.lossPPS += fj * loss
		m.timeoutPPS += fj * loss * qto
	}
	return m
}

// stationaryDensity solves the stationary transport-jump balance for one
// class: the density f with generator(f) = 0 and Σf = 1. The discrete
// generator is assembled column by column from applyGenerator (so the
// stationary state is exactly the RK4 dynamics' rest point) and the linear
// system is solved densely with partial pivoting in sys.
func (e classEnv) stationaryDensity(g grid, sys *linSystem) []float64 {
	n := g.n
	if n == 1 {
		return []float64{1}
	}
	// Row i, column j holds d(df_i/dt)/d f_j — columns of the generator.
	sys.reset(n)
	basis := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range col {
			col[i] = 0
		}
		basis[j] = 1
		e.applyGenerator(g, basis, col)
		basis[j] = 0
		for i := 0; i < n; i++ {
			sys.row(i)[j] = col[i]
		}
	}
	// Replace the last balance equation (redundant: columns sum to zero)
	// with the normalization Σf = 1.
	last := sys.row(n - 1)
	for j := range last {
		last[j] = 1
	}
	f := append([]float64(nil), sys.solve()...)
	// Clamp tiny negative round-off and renormalize.
	var sum float64
	for i := range f {
		if f[i] < 0 {
			f[i] = 0
		}
		sum += f[i]
	}
	if sum <= 0 {
		// Pathological system: fall back to all mass at the cap, the
		// no-loss rest point.
		for i := range f {
			f[i] = 0
		}
		f[n-1] = 1
		return f
	}
	for i := range f {
		f[i] /= sum
	}
	return f
}

// linSystem is a dense augmented system [A | b] of order n, stored row-major
// with stride n+1 in one backing array that every solve of a fixed-point run
// reuses. Partial pivoting permutes perm, which maps a pivot position to the
// stored row, instead of moving rows.
type linSystem struct {
	n    int
	a    []float64
	perm []int
	x    []float64
}

// reset sizes the system to order n, zeroes it and clears the permutation.
func (s *linSystem) reset(n int) {
	s.n = n
	s.a = resize(s.a, n*(n+1))
	clear(s.a)
	s.x = resize(s.x, n)
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	}
	s.perm = s.perm[:n]
	for i := range s.perm {
		s.perm[i] = i
	}
}

// row returns stored row i: n coefficients, then the right-hand side.
func (s *linSystem) row(i int) []float64 {
	w := s.n + 1
	return s.a[i*w : (i+1)*w]
}

// solve runs Gauss–Jordan elimination with partial pivoting and returns the
// solution, which aliases s and is overwritten by the next solve. A column
// without a usable pivot leaves its unknown at zero for the caller to
// renormalize.
func (s *linSystem) solve() []float64 {
	n, w := s.n, s.n+1
	a, perm := s.a, s.perm
	for col := 0; col < n; col++ {
		// Pivot: largest magnitude in this column at or below the diagonal.
		best := col
		bestAbs := abs(a[perm[col]*w+col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[perm[r]*w+col]); v > bestAbs {
				best, bestAbs = r, v
			}
		}
		perm[col], perm[best] = perm[best], perm[col]
		if bestAbs < 1e-300 {
			continue // singular column: leave zeros, caller renormalizes
		}
		// Each row's update reads only itself and the pivot row, so the
		// stored order of the other rows does not change a result.
		pivot := perm[col]*w + col
		prow := a[pivot : pivot+w-col]
		inv := 1 / prow[0]
		for start := col; start < len(a); start += w {
			if start == pivot {
				continue
			}
			row := a[start : start+len(prow)]
			factor := row[0] * inv
			if factor == 0 { //burst:floateq-ok exact-zero factor means the row is already eliminated
				continue
			}
			for c, v := range prow {
				row[c] -= factor * v
			}
		}
	}
	for i := 0; i < n; i++ {
		row := s.row(perm[i])
		piv := row[i]
		if abs(piv) < 1e-300 {
			s.x[i] = 0
			continue
		}
		s.x[i] = row[n] / piv
	}
	return s.x
}

// resize returns buf with length n, reallocating only when it is too small.
// The contents are unspecified.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

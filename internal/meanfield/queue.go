package meanfield

import "math"

// Stochastic queue closure for the steady-state solver. A deterministic
// fluid queue predicts zero loss whenever the load ρ = A/C is below one,
// but a packet simulation at ρ = 0.95 still drops packets: the finite-N
// arrival process fluctuates around its mean. The mean-field closure for
// that is classical: the superposition of many thin independent point
// processes converges to a Poisson process (Palm–Khintchine), and the
// bottleneck serves fixed-size packets at a constant rate, so the queue
// seen at service completions is the slotted M/D/1/B chain
//
//	q' = min(max(q−1, 0) + K, B),   K ~ Poisson(a),  a = admitted pkts/slot
//
// with one slot = one deterministic service time 1/C. Its stationary law
// gives the loss fraction (expected overflow per slot), the queue moments
// behind the RTT estimate, and — for RED — the mean and variance feeding
// the averaged-queue Gaussian closure. An M/M/1/B closure would be wrong
// here: exponential service overstates loss by an order of magnitude at
// the buffer sizes and loads the paper uses.

// queueState is the solved bottleneck closure for one arrival intensity.
type queueState struct {
	// a is the admitted arrival intensity in packets per service slot.
	a float64
	// dist is the stationary distribution over occupancies 0..B at slot
	// boundaries.
	dist []float64
	// lossFrac is the fraction of admitted packets lost to overflow.
	lossFrac float64
	// meanQ and varQ are the stationary occupancy moments.
	meanQ, varQ float64
}

// saturationIntensity is the per-slot arrival intensity beyond which the
// chain is replaced by its saturated limit (queue pinned at B). Far above
// any fixed-point trajectory — the window law throttles arrivals long
// before 50× overload — but it keeps intermediate iterates finite.
const saturationIntensity = 50.0

// workspace is one Solve's scratch space: the dense system that both
// stationary solves (window densities and the queue chain) fill, the chain
// operator and cut-law buffers of the RED screen, and the solver's counts.
type workspace struct {
	sys    linSystem
	op     chainOp
	cut    []float64
	counts SolveCounts
}

// solveQueueChain computes the stationary law of the slotted chain with
// buffer B and admitted intensity a.
func (ws *workspace) solveQueueChain(a float64, b int) queueState {
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
	ws.counts.DenseSolves++

	// Poisson batch pmf r_k, truncated where the tail is negligible.
	ws.op.reset(a, b)
	r := ws.op.r
	kmax := len(r) - 1

	// Transition operator: from q, the slot serves one packet (if any),
	// admits K, clips at B. P(q→j): for qs = max(q−1,0), j = min(qs+K, B).
	// Stationary distribution by dense solve of (Pᵀ−I)π = 0 with
	// normalization — B+1 states, skip-free to the left, so the system is
	// small and well conditioned (core caps fluid buffers at 512).
	n := b + 1
	m := &ws.sys
	m.reset(n)
	for q := 0; q < n; q++ {
		base := q - 1
		if base < 0 {
			base = 0
		}
		var tail float64 = 1
		for k := 0; k <= kmax; k++ {
			j := base + k
			if j >= b {
				// All remaining batch mass lands in the full state.
				m.row(b)[q] += tail
				break
			}
			m.row(j)[q] += r[k]
			tail -= r[k]
		}
	}
	for i := 0; i < n; i++ {
		m.row(i)[i]--
	}
	last := m.row(n - 1)
	for j := range last {
		last[j] = 1
	}
	pi := append([]float64(nil), m.solve()...)

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

		// Expected packets clipped this slot from state q: E[(qs+K−B)⁺].
		base := q - 1
		if base < 0 {
			base = 0
		}
		excessFrom := b - base + 1 // first K producing overflow
		if excessFrom < 0 {
			excessFrom = 0
		}
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

// Retransmission-echo closure. A packet dropped at the gateway returns
// roughly MinRTO later — well inside the queue's relaxation time at the
// loads the paper studies — so it faces the queue CONDITIONED on having
// been full one RTO ago, not the stationary queue. Ignoring this is the
// single largest loss bias of a plain Poisson closure against the packet
// engine (~1.5× at ρ = 0.98): stationary occupancy moments match almost
// exactly while drops, which live entirely on the full-buffer boundary,
// are systematically underpredicted. The closure below evolves the chain's
// transient from the full state and reads the tagged-arrival drop
// probability at the RTO-backoff lags.

// chainOp is the slotted chain's one-step transition operator plus the
// tagged-arrival drop law, shared by the transient evolution.
type chainOp struct {
	a    float64
	b    int
	r    []float64 // Poisson batch pmf, truncated
	tail []float64 // tail[k] = P(K >= k)
}

func newChainOp(a float64, b int) chainOp {
	var op chainOp
	op.reset(a, b)
	return op
}

// reset rebuilds op for intensity a and buffer b, reusing its slices.
func (op *chainOp) reset(a float64, b int) {
	kmax := int(a + 12*math.Sqrt(a) + 25)
	op.a, op.b = a, b
	op.r = resize(op.r, kmax+1)
	op.r[0] = math.Exp(-a)
	for k := 1; k <= kmax; k++ {
		op.r[k] = op.r[k-1] * a / float64(k)
	}
	op.tail = resize(op.tail, kmax+2)
	op.tail[kmax+1] = 0
	for k := kmax; k >= 0; k-- {
		op.tail[k] = op.tail[k+1] + op.r[k]
	}
}

// cutLaw fills pi (length B+1) with the chain's stationary law from the
// cut equations. Across the cut between {0..j} and {j+1..B} the only
// downward move is j+1 → j (an empty batch), so
//
//	π_{j+1}·r_0 = Σ_{q≤j} π_q·P(K > j − max(q−1, 0)),
//
// an O(B²) recursion of positive terms. It agrees with the dense solve to
// round-off, not bit for bit, so solveRED uses it only to screen
// comparisons.
func (op chainOp) cutLaw(pi []float64) {
	pi[0] = 1
	for j := 0; j < op.b; j++ {
		var up float64
		for q := 0; q <= j; q++ {
			k := j + 2 - q // P(K >= k) = P(K > j − (q−1))
			if q == 0 {
				k = j + 1
			}
			if k < len(op.tail) {
				up += pi[q] * op.tail[k]
			}
		}
		pi[j+1] = up / op.r[0]
		// r_0 = e^−a, so π grows by up to e^a per state: rescale before
		// the recursion overflows.
		if pi[j+1] > 1e200 {
			s := 1 / pi[j+1]
			for q := 0; q <= j+1; q++ {
				pi[q] *= s
			}
		}
	}
	var sum float64
	for _, v := range pi {
		sum += v
	}
	for q := range pi {
		pi[q] /= sum
	}
}

// step advances dist by one service slot (serve one, admit a Poisson
// batch, clip at B) into next; next is overwritten.
func (op chainOp) step(dist, next []float64) {
	for j := range next {
		next[j] = 0
	}
	for q, mass := range dist {
		if mass == 0 { //burst:floateq-ok exact empty-bin skip, value is assigned 0
			continue
		}
		base := q - 1
		if base < 0 {
			base = 0
		}
		for k := 0; k < len(op.r); k++ {
			j := base + k
			if j >= op.b {
				next[op.b] += mass * op.tail[k]
				break
			}
			next[j] += mass * op.r[k]
		}
	}
}

// tagDropProb is the drop probability of one tagged arrival in a slot whose
// start occupancy is distributed as dist: the tagged packet is clipped iff
// max(q−1, 0) + K >= B counting the K other (Poisson) arrivals. By the
// Poisson identity E[(qs+K−B)⁺] = a·P(qs+K >= B), this is exactly the
// chain's per-arrival clip fraction when dist is stationary, so the echo
// ladder degrades gracefully to the stationary loss at long lags.
func (op chainOp) tagDropProb(dist []float64) float64 {
	var p float64
	for q, mass := range dist {
		if mass == 0 { //burst:floateq-ok exact empty-bin skip, value is assigned 0
			continue
		}
		need := op.b - q + 1
		if q == 0 {
			need = op.b
		}
		if need <= 0 {
			p += mass
			continue
		}
		if need < len(op.tail) {
			p += mass * op.tail[need]
		}
	}
	return p
}

// echoAttempts is how many RTO-backoff retransmission attempts get the
// conditional (transient) drop probability; later attempts are far enough
// out to see the stationary queue.
const echoAttempts = 3

// maxEchoSteps caps the transient evolution for extreme RTO·C products;
// past the cap the chain has long mixed and the stationary loss applies.
const maxEchoSteps = 1 << 15

// echoProbs returns the tagged-arrival drop probabilities at lags
// slotsRTO·2^k, k = 0..echoAttempts−1, for a chain started from the full
// state — the loss seen by the k-th retransmission of a packet whose
// previous attempt was dropped (each drop re-conditions the queue to full,
// and TCP's exponential backoff doubles the wait each time).
func echoProbs(a float64, b, slotsRTO int, stat queueState) []float64 {
	e := make([]float64, echoAttempts)
	if a <= 0 || slotsRTO <= 0 {
		for i := range e {
			e[i] = stat.lossFrac
		}
		return e
	}
	if a >= saturationIntensity {
		for i := range e {
			e[i] = 1
		}
		return e
	}
	op := newChainOp(a, b)
	dist := make([]float64, b+1)
	dist[b] = 1
	next := make([]float64, b+1)
	step := 0
	mixed := false
	for k := 0; k < echoAttempts; k++ {
		target := slotsRTO << k
		if target > maxEchoSteps {
			mixed = true
		}
		for !mixed && step < target {
			op.step(dist, next)
			dist, next = next, dist
			step++
			if step%256 == 0 {
				var l1 float64
				for i := range dist {
					l1 += abs(dist[i] - stat.dist[i])
				}
				if l1 < 1e-9 {
					mixed = true
				}
			}
		}
		if mixed {
			e[k] = stat.lossFrac
			continue
		}
		e[k] = op.tagDropProb(dist)
	}
	return e
}

// echoCache memoizes the ladder across fixed-point iterations: the
// transient evolution is the most expensive piece of an evaluate() sweep,
// and the admitted intensity moves by less than the cache slack per
// iteration once the outer loop starts converging. After maxEchoRefreshes
// recomputations the ladder freezes permanently: the cache boundary makes
// the fixed-point map discontinuous, and without a freeze the iterate can
// ping-pong across it forever at a residual equal to the ladder jump. By
// freeze time the intensity is within the slack of its equilibrium, and
// the ladder's influence on the drop probability is second-order.
type echoCache struct {
	valid     bool
	frozen    bool
	refreshes int
	a         float64
	b, slots  int
	e         []float64
}

const (
	echoCacheSlack   = 1e-3
	maxEchoRefreshes = 50
)

func (c *echoCache) probs(a float64, b, slotsRTO int, stat queueState) []float64 {
	if c.valid && (c.frozen ||
		(c.b == b && c.slots == slotsRTO && abs(a-c.a) <= echoCacheSlack*(c.a+1e-12))) {
		return c.e
	}
	c.e = echoProbs(a, b, slotsRTO, stat)
	c.a, c.b, c.slots, c.valid = a, b, slotsRTO, true
	c.refreshes++
	if c.refreshes >= maxEchoRefreshes {
		c.frozen = true
	}
	return c.e
}

// echoDropProb folds the attempt ladder into one per-arrival drop
// probability. fresh is the drop probability of a first transmission
// (stationary), attempt[k] that of the k-th retransmission (conditional);
// attempts past the ladder see the stationary queue again. Every drop
// spawns exactly one retransmission, so with D = expected drops per fresh
// packet the per-arrival probability is D/(1+D).
func echoDropProb(fresh float64, attempt []float64) float64 {
	if fresh <= 0 {
		return 0
	}
	if fresh >= 1 {
		return 1
	}
	m := fresh / (1 - fresh) // expected further drops once stationary again
	for k := len(attempt) - 1; k >= 0; k-- {
		ak := attempt[k]
		if ak > 0.999999 {
			ak = 0.999999
		}
		m = ak * (1 + m)
	}
	d := fresh * (1 + m)
	return d / (1 + d)
}

// quantile returns the smallest occupancy whose cumulative stationary mass
// reaches p.
func (q queueState) quantile(p float64) float64 {
	var cum float64
	for i, m := range q.dist {
		cum += m
		if cum >= p {
			return float64(i)
		}
	}
	return float64(len(q.dist) - 1)
}

// massAtOrAbove returns the stationary probability of occupancy >= lo.
func (q queueState) massAtOrAbove(lo int) float64 {
	if lo < 0 {
		lo = 0
	}
	var mass float64
	for i := lo; i < len(q.dist); i++ {
		mass += q.dist[i]
	}
	return mass
}

// redClosure is the solved RED coupling around the queue chain.
type redClosure struct {
	queue queueState
	// pEarly is the expected RED early-action probability (drop, or mark
	// under ECN) per arriving packet.
	pEarly float64
	// avgMean and avgStd are the stationary law of the averaged queue:
	// avg ~ Normal(E[Q], Var[Q]·w/(2−w)), the EWMA variance-reduction of
	// the instantaneous occupancy (DESIGN.md §10).
	avgMean, avgStd float64
}

// screenMargin is how far the cut recursion's RED response must sit from a
// bisection threshold, beyond the dense solve's round-off band (see
// screenRED), for the screen to decide the comparison. Then a comparison
// the screen decides comes out as the dense solve's would, and the
// bisection walks the same brackets.
const screenMargin = 1e-9

// denseRoundoff bounds the absolute round-off the dense elimination leaves
// in each state's stationary mass. Measured against the cut recursion over
// buffers up to 512, the error is about 3e-17 of unit mass at light load
// and larger near a = 1, where the chain mixes slowly; with 1e-14, every
// measured dense response, steep and gentle RED laws included, fell inside
// screenRED's band or within 1e-12 of it.
const denseRoundoff = 1e-14

// solveRED solves the inner RED fixed point for gross arrival intensity a
// (packets per slot before early drops). Under ECN the early action never
// thins the stream, so the closure is a single evaluation. Without ECN the
// response map φ(pe) — early drops thin the stream into the chain, the
// chain's moments set the averaged-queue law, the law sets the ramp
// probability — is non-increasing in pe (dropping more empties the queue),
// so φ(pe) − pe has exactly one sign change on [0, 1] and bisection finds
// it unconditionally; a damped iteration would limit-cycle in the heavily
// overloaded regimes where φ is steep.
//
// Only the bracket's comparisons use the screen and the cache; the
// returned closure always comes from the dense solve.
func (ws *workspace) solveRED(a float64, b int, red REDParams) redClosure {
	rs := redSolve{ws: ws, a: a, b: b, red: red}
	if red.ECN {
		rc, pe := rs.eval(0)
		rc.pEarly = pe
		return rc
	}
	if !rs.above(0, 0) {
		// Queue too light to ever reach the ramp: pe = 0 is the fixed point.
		rc, _ := rs.eval(0)
		rc.pEarly = 0
		return rc
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := 0.5 * (lo + hi)
		if rs.above(mid, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	pe := 0.5 * (lo + hi)
	rc, _ := rs.eval(pe)
	rc.pEarly = pe
	return rc
}

// redSolve is one solveRED call: its inputs and a two-entry cache of exact
// evaluations. Once the bracket is narrower than about 2⁻⁵³, a·(1−pe)
// stops changing, so the last steps repeat an admitted intensity.
type redSolve struct {
	ws    *workspace
	a     float64
	b     int
	red   REDParams
	cache [2]redEval
	next  int
}

// redEval is one exact closure evaluation, keyed by the bits of its
// admitted intensity.
type redEval struct {
	ok  bool
	key uint64
	rc  redClosure
	pe  float64
}

// admitted returns the intensity entering the chain at early-action
// probability pe.
func (rs *redSolve) admitted(pe float64) float64 {
	if rs.red.ECN {
		return rs.a
	}
	return rs.a * (1 - pe)
}

// lookup returns the cached exact evaluation at an admitted intensity.
func (rs *redSolve) lookup(admitted float64) (redEval, bool) {
	key := math.Float64bits(admitted)
	for _, e := range rs.cache {
		if e.ok && e.key == key {
			rs.ws.counts.CacheHits++
			return e, true
		}
	}
	return redEval{}, false
}

// eval returns the closure and its response φ(pe) from the dense solve.
func (rs *redSolve) eval(pe float64) (redClosure, float64) {
	admitted := rs.admitted(pe)
	if e, ok := rs.lookup(admitted); ok {
		return e.rc, e.pe
	}
	var rc redClosure
	rc.queue = rs.ws.solveQueueChain(admitted, rs.b)
	rc.avgMean = rc.queue.meanQ
	rc.avgStd = avgStd(rc.queue.varQ, rs.red.Weight)
	resp := redRampMean(rc.avgMean, rc.avgStd, rs.red)
	rs.cache[rs.next] = redEval{ok: true, key: math.Float64bits(admitted), rc: rc, pe: resp}
	rs.next ^= 1
	return rc, resp
}

// above reports whether φ(pe) > threshold. A cached exact evaluation
// answers first; then the cut recursion, when its whole round-off band
// clears the threshold by more than screenMargin; the dense solve
// otherwise.
func (rs *redSolve) above(pe, threshold float64) bool {
	admitted := rs.admitted(pe)
	if e, ok := rs.lookup(admitted); ok {
		return e.pe > threshold
	}
	if admitted > 0 && admitted < saturationIntensity {
		lo, hi := rs.ws.screenRED(admitted, rs.b, rs.red)
		if lo > threshold+screenMargin || hi < threshold-screenMargin {
			rs.ws.counts.Screened++
			return lo > threshold
		}
	}
	_, resp := rs.eval(pe)
	return resp > threshold
}

// screenRED bounds the RED response the dense solve would return at an
// admitted intensity, from the cut recursion's stationary law. With up to
// denseRoundoff of error in each of the B+1 masses, the dense mean can sit
// ε·(B+1)² away and the variance, a q²-weighted sum less the squared mean,
// ε·((B+1)³ + E[Q²]) away. The response rises with the mean, so the bounds
// take the low mean for lo and the high mean for hi, each at both ends of
// the variance range.
func (ws *workspace) screenRED(admitted float64, b int, red REDParams) (lo, hi float64) {
	ws.op.reset(admitted, b)
	ws.cut = resize(ws.cut, b+1)
	ws.op.cutLaw(ws.cut)
	var mean, mean2 float64
	for q, p := range ws.cut {
		fq := float64(q)
		mean += p * fq
		mean2 += p * fq * fq
	}
	n := float64(b + 1)
	dm := denseRoundoff * n * n
	dv := denseRoundoff * (n*n*n + mean2)
	varQ := mean2 - mean*mean
	sLo := avgStd(math.Max(varQ-dv, 0), red.Weight)
	sHi := avgStd(varQ+dv, red.Weight)
	lo = math.Min(redRampMean(mean-dm, sLo, red), redRampMean(mean-dm, sHi, red))
	hi = math.Max(redRampMean(mean+dm, sLo, red), redRampMean(mean+dm, sHi, red))
	return lo, hi
}

// avgStd is the standard deviation √(Var[Q]·w/(2−w)) of RED's averaged
// queue, the EWMA's variance reduction of the occupancy (DESIGN.md §10).
func avgStd(varQ, weight float64) float64 {
	return math.Sqrt(varQ * weight / (2 - weight))
}

// redRampMean returns E[ramp(X)] for X ~ Normal(m, s²), where ramp is the
// RED action probability: 0 below MinThreshold, linear to MaxProb at
// MaxThreshold, then (gentle) linear to 1 at 2·MaxThreshold or (standard)
// an immediate forced 1. Piecewise-linear Gaussian expectations reduce to
// Φ and φ terms.
func redRampMean(m, s float64, red REDParams) float64 {
	lo, hi := red.MinThreshold, red.MaxThreshold
	if s < 1e-9 {
		return redRamp(m, red)
	}
	var p float64
	// Segment [lo, hi): MaxProb·(x−lo)/(hi−lo).
	c1 := red.MaxProb / (hi - lo)
	p += gaussSegment(m, s, lo, hi, -c1*lo, c1)
	if red.Gentle {
		// Segment [hi, 2hi): MaxProb + (1−MaxProb)·(x−hi)/hi.
		c1 = (1 - red.MaxProb) / hi
		p += gaussSegment(m, s, hi, 2*hi, red.MaxProb-c1*hi, c1)
		p += 1 - gaussCDF((2*hi-m)/s)
	} else {
		p += 1 - gaussCDF((hi-m)/s)
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}

// redRamp is the deterministic RED action probability at averaged queue x.
func redRamp(x float64, red REDParams) float64 {
	lo, hi := red.MinThreshold, red.MaxThreshold
	switch {
	case x < lo:
		return 0
	case x < hi:
		return red.MaxProb * (x - lo) / (hi - lo)
	case red.Gentle && x < 2*hi:
		return red.MaxProb + (1-red.MaxProb)*(x-hi)/hi
	default:
		return 1
	}
}

// gaussSegment returns E[(c0 + c1·X)·1{l ≤ X < u}] for X ~ Normal(m, s²).
func gaussSegment(m, s, l, u, c0, c1 float64) float64 {
	alpha := (l - m) / s
	beta := (u - m) / s
	mass := gaussCDF(beta) - gaussCDF(alpha)
	if mass <= 0 {
		return 0
	}
	// E[X·1{α ≤ Z < β}] = m·mass − s·(φ(β) − φ(α)).
	ex := m*mass - s*(gaussPDF(beta)-gaussPDF(alpha))
	return c0*mass + c1*ex
}

func gaussCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}

func gaussPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

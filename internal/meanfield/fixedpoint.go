package meanfield

import (
	"fmt"
	"math"
)

// Steady-state solver: the mean-field equilibrium is a fixed point of the
// coupling loop
//
//	(p, R) → per-class stationary window densities → aggregate arrival
//	rate A → queue closure (chain + RED) → (p', R')
//
// iterated with damping until the drop probability and round-trip time
// stop moving. This is where the Summary metrics come from; the RK4
// Integrator covers the transient.

// SteadyState is the solved mean-field equilibrium.
type SteadyState struct {
	// DropProb is the probability an arriving data packet is dropped
	// (early RED drop or buffer overflow).
	DropProb float64
	// SignalProb is the probability an arriving packet carries a
	// window-halving signal — equal to DropProb except under ECN, where
	// marks signal without dropping.
	SignalProb float64
	// EarlyProb and OverflowProb split DropProb's sources: EarlyProb is
	// the RED early-action probability per arrival (a mark rate under
	// ECN), OverflowProb the buffer-overflow fraction per admitted packet.
	EarlyProb, OverflowProb float64
	// RTT is the equilibrium round-trip time in seconds.
	RTT float64
	// ArrivalPPS is the aggregate data arrival rate at the gateway,
	// retransmissions included.
	ArrivalPPS float64
	// GoodputPPS is the aggregate application-delivery rate.
	GoodputPPS float64
	// DropPPS and MarkPPS are aggregate drop and ECN-mark rates.
	DropPPS, MarkPPS float64
	// Utilization is the bottleneck busy fraction.
	Utilization float64
	// QueueMean, QueueStd, QueueP95, QueueMax summarize the stationary
	// occupancy (QueueMax is the 99.99th percentile — the fluid analogue
	// of a finite run's observed peak).
	QueueMean, QueueStd, QueueP95, QueueMax float64
	// QueueFullFrac is the stationary probability the occupancy is at or
	// above 95% of the buffer — the packet backend's near-full measure.
	QueueFullFrac float64
	// REDAvgMean is the mean of the RED averaged queue (zero for FIFO).
	REDAvgMean float64
	// COV is the coefficient of variation of gateway data arrivals counted
	// in BaseRTT-sized windows — the paper's burstiness measure.
	COV float64
	// Dispersion is the index of dispersion of counts behind COV.
	Dispersion float64
	// MeanWindow and MeanWindowSq average the window over the TCP
	// population.
	MeanWindow, MeanWindowSq float64
	// TimeoutPPS and FastRecoveryPPS are population loss-event rates split
	// by recovery path.
	TimeoutPPS, FastRecoveryPPS float64
	// Classes holds the per-class equilibria in Params order.
	Classes []ClassSteady
	// Iterations is how many fixed-point steps convergence took; Residual
	// is the final (p, R) update magnitude.
	Iterations int
	Residual   float64
	// Counts tallies the queue closure's work over the whole solve, every
	// iteration included. It describes cost, not the equilibrium.
	Counts SolveCounts
}

// SolveCounts tallies the queue closure's work over one Solve.
type SolveCounts struct {
	// DenseSolves counts the queue chain's dense eliminations.
	DenseSolves int
	// Screened counts RED bisection comparisons the cut recursion decided
	// without a dense solve.
	Screened int
	// CacheHits counts RED closure evaluations answered from an exact
	// evaluation at the same admitted intensity.
	CacheHits int
}

// ClassSteady is one class's equilibrium.
type ClassSteady struct {
	Class Class
	// SendPPS is the per-flow send rate, retransmissions included.
	SendPPS float64
	// GoodputPPS is the per-flow application-delivery rate.
	GoodputPPS float64
	// MeanWindow and MeanWindowSq are window moments (zero for UDP).
	MeanWindow, MeanWindowSq float64
	// WindowLimitedFrac is the batch-burstiness weight: 0 when the
	// application rate is far below what the window allows (arrivals stay
	// Poisson), 1 when the window is the binding constraint (arrivals
	// clump into window-sized batches).
	WindowLimitedFrac float64
	// TimeoutPPS is the per-flow timeout rate.
	TimeoutPPS float64
	// Density and WindowGrid expose the stationary window density over its
	// bin centers (nil for UDP).
	Density, WindowGrid []float64
}

// ConvergenceError reports fixed-point exhaustion with enough diagnostics
// to see how far the iteration got and where it stalled.
type ConvergenceError struct {
	// Iterations is the number of steps taken (== MaxIterations).
	Iterations int
	// Residual is the best (p, R) update magnitude the iteration reached;
	// Tolerance the target it failed to hit.
	Residual, Tolerance float64
	// LastDropProb and LastRTT are the iterate the solver stopped at.
	LastDropProb, LastRTT float64
}

func (e *ConvergenceError) Error() string {
	return fmt.Sprintf(
		"meanfield: fixed point did not converge after %d iterations: residual %.3g > tolerance %.3g (last p=%.6g rtt=%.6gs)",
		e.Iterations, e.Residual, e.Tolerance, e.LastDropProb, e.LastRTT)
}

// fixedPointDamping is the initial (p, R) update weight; 0.5 converges for
// every paper cell while damping the drop-probability/window-density
// oscillation the undamped map exhibits near saturation. Far past
// saturation the map gets steeper than any fixed weight can handle, so
// Solve halves the weight whenever the residual stops improving
// (fixedPointMinDamping bounds it away from a standstill).
const (
	fixedPointDamping    = 0.5
	fixedPointMinDamping = 1.0 / 64
)

// Stall acceptance: the frozen retransmission-echo ladder (echoCache) and
// the discretized window grid leave a small residual floor the damped
// iteration cannot descend below at some operating points. When the best
// residual seen has not improved for fixedPointStallWindow consecutive
// iterations and sits under fixedPointStallTol — orders of magnitude below
// any physically meaningful precision — the best iterate is accepted as
// the fixed point rather than burning the remaining budget to return a
// *ConvergenceError. Genuinely divergent solves still error: their best
// residual stays far above the stall tolerance.
const (
	fixedPointStallWindow = 60
	fixedPointStallTol    = 1e-7
)

// Solve computes the mean-field steady state for p, or a *ConvergenceError
// when MaxIterations is exhausted before the residual reaches Tolerance.
func Solve(params Params) (*SteadyState, error) {
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	g := newGrid(params.Bins, params.MaxWindow)

	pDrop, pSignal := 0.0, 0.0
	rtt := params.BaseRTT + 1/params.CapacityPPS
	damp := fixedPointDamping
	prev := math.Inf(1)
	var residual float64

	var best *SteadyState
	bestResidual := math.Inf(1)
	stall := 0

	var ec echoCache
	ws := new(workspace)
	for iter := 1; iter <= params.MaxIterations; iter++ {
		st := evaluate(params, g, pDrop, pSignal, rtt, &ec, ws)
		residual = abs(st.DropProb-pDrop) + abs(st.SignalProb-pSignal) +
			abs(st.RTT-rtt)/params.BaseRTT
		if residual <= params.Tolerance {
			st.Iterations = iter
			st.Residual = residual
			st.Counts = ws.counts
			return st, nil
		}
		if residual < bestResidual {
			bestResidual = residual
			best = st
			best.Iterations = iter
			best.Residual = residual
			stall = 0
		} else {
			stall++
			if stall >= fixedPointStallWindow && bestResidual <= fixedPointStallTol {
				best.Counts = ws.counts
				return best, nil
			}
		}
		// A non-improving residual means the damped map is still
		// overshooting (a limit cycle around a steep fixed point, typical
		// deep into overload); shrink the step until it contracts.
		if residual >= prev && damp > fixedPointMinDamping {
			damp /= 2
		}
		prev = residual
		pDrop += damp * (st.DropProb - pDrop)
		pSignal += damp * (st.SignalProb - pSignal)
		rtt += damp * (st.RTT - rtt)
	}
	if bestResidual <= fixedPointStallTol {
		best.Counts = ws.counts
		return best, nil
	}
	return nil, &ConvergenceError{
		Iterations:   params.MaxIterations,
		Residual:     bestResidual,
		Tolerance:    params.Tolerance,
		LastDropProb: pDrop,
		LastRTT:      rtt,
	}
}

// evaluate runs one sweep of the coupling loop at the iterate
// (pDrop, pSignal, rtt) and returns the implied steady state — the fixed
// point is reached when the output reproduces the input. ec memoizes the
// retransmission-echo transient across sweeps; ws is the solve's scratch
// space.
func evaluate(params Params, g grid, pDrop, pSignal, rtt float64, ec *echoCache, ws *workspace) *SteadyState {
	st := &SteadyState{Classes: make([]ClassSteady, len(params.Classes))}

	// Per-class stationary densities and send rates under the iterate.
	var arrival, udpArrival float64
	envs := make([]classEnv, len(params.Classes))
	for i, c := range params.Classes {
		cs := ClassSteady{Class: c}
		if c.Variant == UDP {
			// UDP neither retransmits nor modulates: it arrives at λ.
			cs.SendPPS = c.Lambda
			arrival += float64(c.Flows) * c.Lambda
			udpArrival += float64(c.Flows) * c.Lambda
			st.Classes[i] = cs
			continue
		}
		env := classEnv{
			class:        c,
			lambdaEff:    c.Lambda / (1 - math.Min(pDrop, 0.99)),
			rtt:          rtt,
			baseRTT:      params.BaseRTT,
			pSignal:      pSignal,
			pTimeoutLoss: pDrop,
			minRTO:       params.MinRTO,
			vegas:        params.Vegas,
		}
		envs[i] = env
		f := env.stationaryDensity(g, &ws.sys)
		m := env.moments(g, f)
		cs.SendPPS = m.sendPPS
		cs.MeanWindow = m.meanW
		cs.MeanWindowSq = m.meanW2
		cs.TimeoutPPS = m.timeoutPPS
		if m.windowPPS > 0 {
			cs.WindowLimitedFrac = math.Min(1, env.lambdaEff/m.windowPPS)
		}
		cs.Density = f
		cs.WindowGrid = g.centers
		st.Classes[i] = cs
		arrival += float64(c.Flows) * m.sendPPS
	}
	st.ArrivalPPS = arrival

	// Queue closure at intensity a packets per service slot.
	a := arrival / params.CapacityPPS
	var chain queueState
	var pe float64
	if params.Queue == RED {
		rc := ws.solveRED(a, params.Buffer, params.RED)
		chain = rc.queue
		pe = rc.pEarly
		st.REDAvgMean = rc.avgMean
	} else {
		chain = ws.solveQueueChain(a, params.Buffer)
	}
	st.EarlyProb = pe
	st.OverflowProb = chain.lossFrac

	// Retransmission-echo loss: TCP resends every drop ~MinRTO later, into
	// a queue still correlated with the congested state that caused the
	// drop, so retransmitted traffic faces the chain's transient drop law,
	// not the stationary one (see echoProbs). UDP never retransmits and
	// keeps the stationary law; the population drop probability mixes the
	// two by arrival share. Under ECN only buffer overflow drops; RED early
	// action is folded into each attempt's probability otherwise.
	ecn := params.Queue == RED && params.RED.ECN
	var pUDP float64
	if ecn {
		pUDP = chain.lossFrac
	} else {
		pUDP = pe + (1-pe)*chain.lossFrac
	}
	pTCP := pUDP
	tcpShare := 0.0
	if arrival > 0 {
		tcpShare = (arrival - udpArrival) / arrival
	}
	if tcpShare > 0 && pTCP > 0 {
		slotsRTO := int(math.Round(params.MinRTO * params.CapacityPPS))
		e := ec.probs(chain.a, params.Buffer, slotsRTO, chain)
		attempt := make([]float64, len(e))
		for k := range e {
			if ecn {
				attempt[k] = e[k]
			} else {
				attempt[k] = pe + (1-pe)*e[k]
			}
		}
		pTCP = echoDropProb(pUDP, attempt)
	}
	st.DropProb = tcpShare*pTCP + (1-tcpShare)*pUDP
	if ecn {
		// Marks signal without dropping; only overflow drops.
		st.SignalProb = pe + (1-pe)*pTCP
		st.MarkPPS = arrival * pe
	} else {
		st.SignalProb = pTCP
	}
	st.DropPPS = arrival * st.DropProb
	st.RTT = params.BaseRTT + (chain.meanQ+1)/params.CapacityPPS
	st.QueueMean = chain.meanQ
	st.QueueStd = math.Sqrt(chain.varQ)
	st.QueueP95 = chain.quantile(0.95)
	st.QueueMax = chain.quantile(0.9999)
	st.QueueFullFrac = chain.massAtOrAbove(int(math.Ceil(0.95 * float64(params.Buffer))))
	st.Utilization = math.Min(1, arrival*(1-st.DropProb)/params.CapacityPPS)

	// Delivery, burstiness, and population aggregates.
	var dispersionNum float64
	var tcpFlows, winSum, winSqSum float64
	for i := range st.Classes {
		cs := &st.Classes[i]
		n := float64(cs.Class.Flows)
		if cs.Class.Variant == UDP {
			cs.GoodputPPS = cs.Class.Lambda * (1 - pUDP)
			dispersionNum += n * cs.SendPPS // Poisson: D = 1
		} else {
			// Reliable delivery: goodput is send minus losses, capped by
			// what the application offered.
			cs.GoodputPPS = math.Min(cs.Class.Lambda, cs.SendPPS*(1-pTCP))
			d := 1.0
			if cs.MeanWindow > 0 {
				batch := cs.MeanWindowSq / cs.MeanWindow
				if batch > 1 {
					d += (batch - 1) * cs.WindowLimitedFrac
				}
			}
			dispersionNum += n * cs.SendPPS * d
			tcpFlows += n
			winSum += n * cs.MeanWindow
			winSqSum += n * cs.MeanWindowSq
			st.TimeoutPPS += n * cs.TimeoutPPS
			if env := envs[i]; env.class.Flows > 0 {
				m := env.moments(g, cs.Density)
				st.FastRecoveryPPS += n * (m.lossPPS - m.timeoutPPS)
			}
		}
		st.GoodputPPS += n * cs.GoodputPPS
	}
	// Delivered traffic cannot outrun the bottleneck; trim round-off.
	if st.GoodputPPS > params.CapacityPPS {
		st.GoodputPPS = params.CapacityPPS
	}
	if tcpFlows > 0 {
		st.MeanWindow = winSum / tcpFlows
		st.MeanWindowSq = winSqSum / tcpFlows
	}
	if arrival > 0 {
		st.Dispersion = dispersionNum / arrival
		// c.o.v. of counts in BaseRTT windows: var = D·mean for count mean
		// A·τ, so cov = sqrt(D/(A·τ)).
		st.COV = math.Sqrt(st.Dispersion / (arrival * params.BaseRTT))
	}
	return st
}

package core

import "encoding/json"

// SummarySchemaVersion stamps the serialized encoding of Summary. Bump it whenever the JSON shape changes incompatibly; the
// run cache treats entries stored under any other version as misses.
const SummarySchemaVersion = 2

// Summary is the flat, JSON-serializable digest of a Result — everything a
// plotting or tooling pipeline needs without the bulky trace series.
type Summary struct {
	// SchemaVersion is SummarySchemaVersion at encoding time.
	SchemaVersion int `json:"schemaVersion,omitempty"`

	Clients  int    `json:"clients"`
	Protocol string `json:"protocol"`
	Gateway  string `json:"gateway"`
	Seed     int64  `json:"seed"`
	Duration string `json:"duration"`

	COV              float64 `json:"cov"`
	AnalyticCOV      float64 `json:"poissonCov"`
	ModulationFactor float64 `json:"modulationFactor"`
	MeanWindowCount  float64 `json:"meanWindowCount"`

	Generated       uint64  `json:"generated"`
	Delivered       uint64  `json:"delivered"`
	DataSent        uint64  `json:"dataSent"`
	ForwardDrops    uint64  `json:"forwardDrops"`
	BottleneckDrops uint64  `json:"bottleneckDrops"`
	LossPct         float64 `json:"lossPct"`
	Utilization     float64 `json:"utilization"`

	Timeouts           uint64  `json:"timeouts"`
	FastRetransmits    uint64  `json:"fastRetransmits"`
	TimeoutDupAckRatio float64 `json:"timeoutDupAckRatio"`

	JainFairness  float64 `json:"jainFairness"`
	Hurst         float64 `json:"hurst"`
	CwndSyncIndex float64 `json:"cwndSyncIndex"`
	DelayMeanSec  float64 `json:"delayMeanSec"`
	DelayP95Sec   float64 `json:"delayP95Sec"`

	QueueMean     float64 `json:"queueMean"`
	QueueP95      float64 `json:"queueP95"`
	QueueMax      float64 `json:"queueMax"`
	QueueFullFrac float64 `json:"queueFullFrac"`

	WireLosses uint64 `json:"wireLosses,omitempty"`
	AckDrops   uint64 `json:"ackDrops,omitempty"`

	REDEarlyDrops  uint64  `json:"redEarlyDrops,omitempty"`
	REDForcedDrops uint64  `json:"redForcedDrops,omitempty"`
	REDMarks       uint64  `json:"redMarks,omitempty"`
	REDFinalAvg    float64 `json:"redFinalAvg,omitempty"`

	// AQM* mirror Result.AQM for disciplines other than RED that report
	// stats; omitted for FIFO, DRR and RED runs.
	AQMEarlyDrops  uint64  `json:"aqmEarlyDrops,omitempty"`
	AQMForcedDrops uint64  `json:"aqmForcedDrops,omitempty"`
	AQMMarks       uint64  `json:"aqmMarks,omitempty"`
	AQMShed        uint64  `json:"aqmShed,omitempty"`
	AQMFinalAvg    float64 `json:"aqmFinalAvg,omitempty"`

	// SimEvents is the kernel's executed-event count — run telemetry, kept
	// in the digest so cached results still report throughput.
	SimEvents uint64 `json:"simEvents,omitempty"`
	// TelemetryRecords counts snapshot records streamed during the run.
	TelemetryRecords uint64 `json:"telemetryRecords,omitempty"`

	// Backend names the execution engine for fluid runs; omitted (empty)
	// for packet runs so their digests are byte-identical to before the
	// fluid backend existed. The Fluid* fields mirror Result.Fluid.
	Backend         string  `json:"backend,omitempty"`
	FluidIterations int     `json:"fluidIterations,omitempty"`
	FluidResidual   float64 `json:"fluidResidual,omitempty"`
	FluidDropProb   float64 `json:"fluidDropProb,omitempty"`
	FluidSignalProb float64 `json:"fluidSignalProb,omitempty"`
	FluidRTTSec     float64 `json:"fluidRttSec,omitempty"`
	FluidMeanWindow float64 `json:"fluidMeanWindow,omitempty"`
	FluidDispersion float64 `json:"fluidDispersion,omitempty"`
	FluidArrivalPPS float64 `json:"fluidArrivalPps,omitempty"`
	FluidGoodputPPS float64 `json:"fluidGoodputPps,omitempty"`

	// Bottlenecks and Groups mirror Result's per-bottleneck and per-group
	// measurements; omitted for single-bottleneck runs.
	Bottlenecks []BottleneckStats `json:"bottlenecks,omitempty"`
	Groups      []GroupStats      `json:"groups,omitempty"`
}

// Summary flattens the result for serialization.
func (r *Result) Summary() Summary {
	s := Summary{
		SchemaVersion:      SummarySchemaVersion,
		Clients:            r.Config.Clients,
		Protocol:           r.Config.Protocol.String(),
		Gateway:            r.Config.QueueName(),
		Seed:               r.Config.Seed,
		Duration:           r.Config.Duration.String(),
		COV:                r.COV,
		AnalyticCOV:        r.AnalyticCOV,
		ModulationFactor:   ModulationFactor(r),
		MeanWindowCount:    r.MeanWindowCount,
		Generated:          r.Generated,
		Delivered:          r.Delivered,
		DataSent:           r.DataSent,
		ForwardDrops:       r.ForwardDrops,
		BottleneckDrops:    r.BottleneckDrops,
		LossPct:            r.LossPct,
		Utilization:        r.Utilization,
		Timeouts:           r.Timeouts,
		FastRetransmits:    r.FastRetransmits,
		TimeoutDupAckRatio: r.TimeoutDupAckRatio,
		JainFairness:       r.JainFairness,
		Hurst:              r.Hurst,
		CwndSyncIndex:      r.CwndSyncIndex,
		DelayMeanSec:       r.DelayMeanSec,
		DelayP95Sec:        r.DelayP95Sec,
		QueueMean:          r.Queue.Mean,
		QueueP95:           r.Queue.P95,
		QueueMax:           r.Queue.Max,
		QueueFullFrac:      r.Queue.FullFrac,
		WireLosses:         r.WireLosses,
		AckDrops:           r.AckDrops,
		SimEvents:          r.SimEvents,
		TelemetryRecords:   r.TelemetryRecords,
		Bottlenecks:        r.Bottlenecks,
		Groups:             r.Groups,
	}
	if r.RED != nil {
		s.REDEarlyDrops = r.RED.EarlyDrops
		s.REDForcedDrops = r.RED.ForcedDrops
		s.REDMarks = r.RED.Marks
		s.REDFinalAvg = r.RED.FinalAvg
	}
	if r.AQM != nil {
		s.AQMEarlyDrops = r.AQM.EarlyDrops
		s.AQMForcedDrops = r.AQM.ForcedDrops
		s.AQMMarks = r.AQM.Marks
		s.AQMShed = r.AQM.Shed
		s.AQMFinalAvg = r.AQM.FinalAvg
	}
	if r.Fluid != nil {
		s.Backend = r.Config.Backend.String()
		s.FluidIterations = r.Fluid.Iterations
		s.FluidResidual = r.Fluid.Residual
		s.FluidDropProb = r.Fluid.DropProb
		s.FluidSignalProb = r.Fluid.SignalProb
		s.FluidRTTSec = r.Fluid.RTTSec
		s.FluidMeanWindow = r.Fluid.MeanWindow
		s.FluidDispersion = r.Fluid.Dispersion
		s.FluidArrivalPPS = r.Fluid.ArrivalPPS
		s.FluidGoodputPPS = r.Fluid.GoodputPPS
	}
	return s
}

// MarshalSummaryJSON renders the summary as indented JSON.
func (r *Result) MarshalSummaryJSON() ([]byte, error) {
	return json.MarshalIndent(r.Summary(), "", "  ")
}

// ResultFromSummary reconstructs the scalar portion of a Result from a
// cached digest. cfg must be the defaulted configuration whose content
// hash the summary was stored under — the cache key guarantees the match.
// Series-typed fields (WindowCounts, Flows, traces, packet logs) are not
// part of the digest and stay empty, which is why the runner only caches
// runs that request none of them (see cacheable).
func ResultFromSummary(cfg Config, s Summary) *Result {
	r := &Result{
		Config:             cfg,
		COV:                s.COV,
		AnalyticCOV:        s.AnalyticCOV,
		MeanWindowCount:    s.MeanWindowCount,
		Generated:          s.Generated,
		Delivered:          s.Delivered,
		DataSent:           s.DataSent,
		ForwardDrops:       s.ForwardDrops,
		BottleneckDrops:    s.BottleneckDrops,
		AckDrops:           s.AckDrops,
		WireLosses:         s.WireLosses,
		LossPct:            s.LossPct,
		Utilization:        s.Utilization,
		Timeouts:           s.Timeouts,
		FastRetransmits:    s.FastRetransmits,
		TimeoutDupAckRatio: s.TimeoutDupAckRatio,
		JainFairness:       s.JainFairness,
		Hurst:              s.Hurst,
		CwndSyncIndex:      s.CwndSyncIndex,
		DelayMeanSec:       s.DelayMeanSec,
		DelayP95Sec:        s.DelayP95Sec,
		Queue: QueueStats{
			Mean:     s.QueueMean,
			P95:      s.QueueP95,
			Max:      s.QueueMax,
			FullFrac: s.QueueFullFrac,
		},
		SimEvents:        s.SimEvents,
		TelemetryRecords: s.TelemetryRecords,
		Bottlenecks:      s.Bottlenecks,
		Groups:           s.Groups,
	}
	// The family (RED, generic AQM or neither) is the one a fresh run of
	// cfg's discipline reports. cfg passed validation before its result
	// was stored, so the scratch build cannot fail.
	q, _ := cfg.scratchQueue()
	red, aqm := disciplineStats(q)
	if red != nil {
		r.RED = &REDStats{
			EarlyDrops:  s.REDEarlyDrops,
			ForcedDrops: s.REDForcedDrops,
			Marks:       s.REDMarks,
			FinalAvg:    s.REDFinalAvg,
		}
	}
	if aqm != nil {
		r.AQM = &AQMStats{
			EarlyDrops:  s.AQMEarlyDrops,
			ForcedDrops: s.AQMForcedDrops,
			Marks:       s.AQMMarks,
			Shed:        s.AQMShed,
			FinalAvg:    s.AQMFinalAvg,
		}
	}
	if cfg.Backend == FluidBackend {
		r.Fluid = &FluidStats{
			Iterations: s.FluidIterations,
			Residual:   s.FluidResidual,
			DropProb:   s.FluidDropProb,
			SignalProb: s.FluidSignalProb,
			RTTSec:     s.FluidRTTSec,
			MeanWindow: s.FluidMeanWindow,
			Dispersion: s.FluidDispersion,
			ArrivalPPS: s.FluidArrivalPPS,
			GoodputPPS: s.FluidGoodputPPS,
		}
	}
	return r
}

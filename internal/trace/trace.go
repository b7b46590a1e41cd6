// Package trace holds the time series a simulation records — the
// congestion-window traces behind the paper's Figures 5–12 and queue-length
// traces for gateway analysis, sampled by core through telemetry.Sampler —
// and an ns-style packet event log.
package trace

import (
	"fmt"
	"strings"

	"tcpburst/internal/sim"
)

// Sample is one (time, value) observation.
type Sample struct {
	At    sim.Time
	Value float64
}

// Series is a named sequence of samples.
type Series struct {
	Name    string
	Samples []Sample
}

// Last returns the most recent sample value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].Value
}

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, smp := range s.Samples {
		out[i] = smp.Value
	}
	return out
}

// WriteCSV renders the series as CSV with a shared time column. Series are
// assumed to be sampled on the same clock (as a run's traces are); rows
// beyond a shorter series are left empty.
func WriteCSV(sb *strings.Builder, series []*Series) {
	sb.WriteString("time_s")
	maxLen := 0
	for _, s := range series {
		sb.WriteString(",")
		sb.WriteString(s.Name)
		if len(s.Samples) > maxLen {
			maxLen = len(s.Samples)
		}
	}
	sb.WriteString("\n")
	for i := 0; i < maxLen; i++ {
		wroteTime := false
		var row strings.Builder
		for _, s := range series {
			if i < len(s.Samples) {
				if !wroteTime {
					fmt.Fprintf(sb, "%.3f", s.Samples[i].At.Seconds())
					wroteTime = true
				}
				fmt.Fprintf(&row, ",%g", s.Samples[i].Value)
			} else {
				row.WriteString(",")
			}
		}
		if !wroteTime {
			sb.WriteString("0")
		}
		sb.WriteString(row.String())
		sb.WriteString("\n")
	}
}

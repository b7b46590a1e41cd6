package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"tcpburst/internal/queue"
)

func TestSummaryFlattensResult(t *testing.T) {
	cfg := shortConfig(10, Reno, RED, 10*time.Second)
	cfg.CwndSampleInterval = 100 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := res.Summary()
	if s.Clients != 10 || s.Protocol != "reno" || s.Gateway != "red" {
		t.Errorf("identity fields: %+v", s)
	}
	if s.COV != res.COV || s.Delivered != res.Delivered {
		t.Error("metric fields do not match result")
	}
	if s.ModulationFactor != ModulationFactor(res) {
		t.Error("modulation factor mismatch")
	}
	if s.QueueMean != res.Queue.Mean {
		t.Error("queue fields mismatch")
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	res, err := Run(shortConfig(5, Vegas, FIFO, 5*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	raw, err := res.MarshalSummaryJSON()
	if err != nil {
		t.Fatalf("MarshalSummaryJSON: %v", err)
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, res.Summary()) {
		t.Error("JSON round trip lost data")
	}
	if !strings.Contains(string(raw), `"protocol": "vegas"`) {
		t.Errorf("JSON missing protocol tag:\n%s", raw)
	}
}

func TestSummaryOmitsEmptyExtensionFields(t *testing.T) {
	res, err := Run(shortConfig(5, Reno, FIFO, 5*time.Second))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	raw, err := res.MarshalSummaryJSON()
	if err != nil {
		t.Fatalf("MarshalSummaryJSON: %v", err)
	}
	for _, absent := range []string{"wireLosses", "redEarlyDrops", "redMarks", "bottlenecks", "groups"} {
		if strings.Contains(string(raw), absent) {
			t.Errorf("JSON contains %q for a run without that feature", absent)
		}
	}
}

// TestSummaryLabelsREDVariants checks that the summary's gateway label is
// the run's full discipline spec, so an ECN-RED run is told apart from a
// dropping RED run in summary JSON.
func TestSummaryLabelsREDVariants(t *testing.T) {
	labels := map[string]string{}
	for _, spec := range []string{"red", "red?ecn=true"} {
		cfg := shortConfig(10, Reno, 0, 2*time.Second)
		cfg.Queue = &queue.Spec{Name: "red"}
		if spec != "red" {
			cfg.Queue.Params = map[string]string{"ecn": "true"}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run %s: %v", spec, err)
		}
		labels[spec] = res.Summary().Gateway
	}
	if labels["red"] != "red" || labels["red?ecn=true"] != "red?ecn=true" {
		t.Errorf("summary gateway labels = %v, want each run's spec", labels)
	}
}

// TestResultFromSummaryStatsFamily checks that a result rebuilt from its
// summary carries the same discipline-stats family a fresh run reports:
// RED's own fields for RED, the generic AQM fields for other reporting
// disciplines, and neither for FIFO and DRR.
func TestResultFromSummaryStatsFamily(t *testing.T) {
	for _, spec := range []string{"fifo", "drr", "red", "red?gentle=true", "codel", "pie"} {
		s, err := queue.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := shortConfig(10, Reno, 0, 2*time.Second)
		cfg.Queue = &s
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run %s: %v", spec, err)
		}
		back := ResultFromSummary(res.Config, res.Summary())
		if (back.RED == nil) != (res.RED == nil) || (back.AQM == nil) != (res.AQM == nil) {
			t.Errorf("%s: rebuilt RED=%v AQM=%v, fresh run RED=%v AQM=%v",
				spec, back.RED, back.AQM, res.RED, res.AQM)
		}
		if back.RED != nil && *back.RED != *res.RED {
			t.Errorf("%s: rebuilt RED stats %+v, want %+v", spec, *back.RED, *res.RED)
		}
		if back.AQM != nil && *back.AQM != *res.AQM {
			t.Errorf("%s: rebuilt AQM stats %+v, want %+v", spec, *back.AQM, *res.AQM)
		}
	}
}

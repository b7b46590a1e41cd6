package trace

import (
	"strings"
	"testing"
	"time"

	"tcpburst/internal/sim"
)

func TestSeriesValues(t *testing.T) {
	s := &Series{Name: "x", Samples: []Sample{{At: 0, Value: 1}, {At: 1, Value: 2}}}
	vals := s.Values()
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("Values() = %v", vals)
	}
	empty := &Series{Name: "e"}
	if empty.Last() != 0 {
		t.Errorf("empty Last() = %v", empty.Last())
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "a", Samples: []Sample{
		{At: sim.TimeZero, Value: 1},
		{At: sim.TimeZero.Add(100 * time.Millisecond), Value: 2},
	}}
	b := &Series{Name: "b", Samples: []Sample{
		{At: sim.TimeZero, Value: 10},
	}}
	var sb strings.Builder
	WriteCSV(&sb, []*Series{a, b})
	got := sb.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV = %q", got)
	}
	if lines[0] != "time_s,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "0.000,1,10" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != "0.100,2," {
		t.Errorf("row 2 = %q", lines[2])
	}
}

package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestRingRetainsRecentRecords(t *testing.T) {
	r := NewRing(3)
	if err := r.Begin([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := r.Record(float64(i), []float64{float64(i * 10), float64(i * 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if r.Count() != 5 || r.Len() != 3 {
		t.Fatalf("count=%d len=%d, want 5/3", r.Count(), r.Len())
	}
	// Oldest retained is record 2.
	for i := 0; i < 3; i++ {
		ts, row := r.At(i)
		want := float64(i + 2)
		if ts != want || row[0] != want*10 || row[1] != want*100 {
			t.Fatalf("At(%d) = %g %v, want t=%g", i, ts, row, want)
		}
	}
	if got := r.Value(1, "b"); got != 300 {
		t.Fatalf("Value(1, b) = %g, want 300", got)
	}
	if r.FieldIndex("missing") != -1 || r.Value(0, "missing") != 0 {
		t.Fatal("missing field should be -1 / 0")
	}
}

func TestRingRecordAllocs(t *testing.T) {
	r := NewRing(64)
	if err := r.Begin([]string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	row := []float64{1, 2, 3}
	if avg := testing.AllocsPerRun(1000, func() {
		_ = r.Record(1.5, row)
	}); avg != 0 {
		t.Fatalf("ring record allocates %.1f/op, want 0", avg)
	}
}

func TestJSONLStream(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLRun(&sb, "reno n=45 seed=1")
	if err := s.Begin([]string{"gw.arrivals", "cov.rtt"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(0.5, []float64{42, 0.125}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(1, []float64{50, math.NaN()}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec["t"] != 0.5 || rec["run"] != "reno n=45 seed=1" || rec["gw.arrivals"] != 42.0 || rec["cov.rtt"] != 0.125 {
		t.Fatalf("record = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("NaN line not JSON: %v", err)
	}
	if rec["cov.rtt"] != 0.0 {
		t.Fatalf("NaN should sanitize to 0, got %v", rec["cov.rtt"])
	}
}

// TestJSONLEncodesNamesAsJSON: labels and field names are JSON strings —
// control characters use JSON escapes, HTML characters stay literal — and
// a record still encodes without allocating.
func TestJSONLEncodesNamesAsJSON(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLRun(&sb, "a\x01b codel?target=5ms&interval=100ms")
	if err := s.Begin([]string{"x<\"y\">"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(1, []float64{2}); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1,"run":"a\u0001b codel?target=5ms&interval=100ms","x<\"y\">":2}` + "\n"
	if sb.String() != want {
		t.Fatalf("line = %q, want %q", sb.String(), want)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &rec); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}

	d := NewJSONLRun(io.Discard, "reno n=45 seed=1")
	if err := d.Begin([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	row := []float64{1, 2.5}
	if avg := testing.AllocsPerRun(1000, func() {
		_ = d.Record(1.5, row)
	}); avg != 0 {
		t.Fatalf("JSONL record allocates %.1f/op, want 0", avg)
	}
}

// FuzzJSONL: whatever the run label, field names and values, every line the
// JSONL sink writes decodes as JSON, carries the label and names verbatim,
// and reads non-finite values as 0.
func FuzzJSONL(f *testing.F) {
	f.Add("reno n=45 seed=1", "gw.arrivals", "cov.rtt", 0.5, 42.0, 0.125)
	f.Add("a\x01b", "x\"y", "<&>", 1.0, math.NaN(), math.Inf(-1))
	f.Add("", "t", "run", 1e300, math.Inf(1), -0.0)
	f.Fuzz(func(t *testing.T, label, name1, name2 string, ts, v1, v2 float64) {
		if !utf8.ValidString(label) || !utf8.ValidString(name1) || !utf8.ValidString(name2) {
			t.Skip("JSON strings carry valid UTF-8 only")
		}
		var sb strings.Builder
		s := NewJSONLRun(&sb, label)
		if err := s.Begin([]string{name1, name2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Record(ts, []float64{v1, v2}); err != nil {
				t.Fatal(err)
			}
		}
		lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
		if len(lines) != 2 {
			t.Fatalf("%d lines, want 2: %q", len(lines), sb.String())
		}
		finite := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		for _, line := range lines {
			var rec map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("line %q is not JSON: %v", line, err)
			}
			// Names that collide with each other or with the fixed keys
			// overwrite one another in a decoded map; decoding is all
			// that can be checked for them.
			reserved := map[string]bool{"t": true, "run": true}
			if reserved[name1] || reserved[name2] || name1 == name2 {
				continue
			}
			want := map[string]float64{"t": finite(ts), name1: finite(v1), name2: finite(v2)}
			for key, w := range want {
				var got float64
				if err := json.Unmarshal(rec[key], &got); err != nil || got != w {
					t.Fatalf("%q = %s (%v), want %v in %q", key, rec[key], err, w, line)
				}
			}
			if label != "" {
				var run string
				if err := json.Unmarshal(rec["run"], &run); err != nil || run != label {
					t.Fatalf("run = %s (%v), want %q", rec["run"], err, label)
				}
			}
		}
	})
}

func TestCSVStream(t *testing.T) {
	var sb strings.Builder
	s := NewCSV(&sb)
	if err := s.Begin([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(0.1, []float64{1, 2.5}); err != nil {
		t.Fatal(err)
	}
	want := "t,a,b\n0.1,1,2.5\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

// TestCSVQuotesHeaderNames pins the header of names that hold the
// separator, a quote or a line break: each stays one column.
func TestCSVQuotesHeaderNames(t *testing.T) {
	var sb strings.Builder
	s := NewCSV(&sb)
	if err := s.Begin([]string{"a,b", `say "hi"`, "two\nlines"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	want := "t,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n1,1,2,3\n"
	if sb.String() != want {
		t.Fatalf("csv = %q, want %q", sb.String(), want)
	}
}

// TestCSVRecordAllocFree keeps the per-snapshot row path allocation-free.
func TestCSVRecordAllocFree(t *testing.T) {
	s := NewCSV(io.Discard)
	if err := s.Begin([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	values := []float64{1.5, math.NaN()}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Record(0.25, values) }); allocs != 0 {
		t.Errorf("CSV.Record allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzCSV checks that encoding/csv reads back whatever the CSV sink
// writes: the header ["t", names...] and rows of len(names)+1 fields whose
// values parse to the recorded ones, non-finite values read as 0. The
// reader folds a quoted field's CRLF into LF, so names compare after the
// same folding.
func FuzzCSV(f *testing.F) {
	f.Add("gw.arrivals", "cov.rtt", 0.5, 42.0, 0.125)
	f.Add("a,b", "x\"y", 1.0, math.NaN(), math.Inf(-1))
	f.Add("", "line\r\nbreak", 1e300, math.Inf(1), -0.0)
	f.Add(" lead", "\\.", 3.0, 1e-300, -7.0)
	f.Fuzz(func(t *testing.T, name1, name2 string, ts, v1, v2 float64) {
		names := []string{name1, name2}
		var sb strings.Builder
		s := NewCSV(&sb)
		if err := s.Begin(names); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := s.Record(ts, []float64{v1, v2}); err != nil {
				t.Fatal(err)
			}
		}
		r := csv.NewReader(strings.NewReader(sb.String()))
		r.FieldsPerRecord = -1
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("csv %q does not read back: %v", sb.String(), err)
		}
		if len(recs) != 3 {
			t.Fatalf("%d records, want a header and 2 rows: %q", len(recs), sb.String())
		}
		want := []string{"t"}
		for _, n := range names {
			want = append(want, strings.ReplaceAll(n, "\r\n", "\n"))
		}
		if !reflect.DeepEqual(recs[0], want) {
			t.Fatalf("header = %q, want %q", recs[0], want)
		}
		finite := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return v
		}
		for _, row := range recs[1:] {
			if len(row) != len(names)+1 {
				t.Fatalf("row %q has %d fields, want %d", row, len(row), len(names)+1)
			}
			for i, v := range []float64{ts, v1, v2} {
				got, err := strconv.ParseFloat(row[i], 64)
				if err != nil || got != finite(v) {
					t.Fatalf("field %d = %q (%v), want %v", i, row[i], err, finite(v))
				}
			}
		}
	})
}

func TestMultiSinkFansOut(t *testing.T) {
	a, b := NewRing(4), NewRing(4)
	m := MultiSink(a, b)
	if err := m.Begin([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := m.Record(1, []float64{9}); err != nil {
		t.Fatal(err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1 || b.Count() != 1 {
		t.Fatalf("counts = %d/%d, want 1/1", a.Count(), b.Count())
	}
}

func TestLiveLineSkipsMissingFields(t *testing.T) {
	var sb strings.Builder
	l := NewLiveLine(&sb, "present", "missing")
	l.every = 0 // no wall-clock throttle in tests
	if err := l.Begin([]string{"present"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(1.5, []float64{42}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "present=42") || strings.Contains(out, "missing") {
		t.Fatalf("live line = %q", out)
	}
}

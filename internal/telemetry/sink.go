package telemetry

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcpburst/internal/clock"
)

// Sink consumes the snapshot stream. Begin is called once with the column
// names before any record; Record receives the virtual timestamp in
// seconds and one value per column — the slice is reused between calls and
// only valid during the call; Flush is called once when the run ends.
type Sink interface {
	Begin(fields []string) error
	Record(t float64, values []float64) error
	Flush() error
}

// Ring is an in-memory sink retaining the most recent records in a
// preallocated circular buffer — allocation-free per record, sized for
// tests and for runs that want the series on the Result rather than
// streamed out.
type Ring struct {
	fields   []string
	capacity int
	times    []float64
	data     []float64 // capacity rows of len(fields) values
	count    int       // total records ever observed
}

// NewRing returns a ring retaining the last capacity records.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{capacity: capacity}
}

// Begin sizes the buffers for the column set.
func (r *Ring) Begin(fields []string) error {
	r.fields = append([]string(nil), fields...)
	r.times = make([]float64, r.capacity)
	r.data = make([]float64, r.capacity*len(fields))
	r.count = 0
	return nil
}

// Record copies the snapshot into the next slot, overwriting the oldest
// once full.
func (r *Ring) Record(t float64, values []float64) error {
	slot := r.count % r.capacity
	r.times[slot] = t
	copy(r.data[slot*len(r.fields):(slot+1)*len(r.fields)], values)
	r.count++
	return nil
}

// Flush is a no-op.
func (r *Ring) Flush() error { return nil }

// Fields returns the column names.
func (r *Ring) Fields() []string { return r.fields }

// Count returns the total number of records observed, including any that
// have been overwritten.
func (r *Ring) Count() int { return r.count }

// Len returns the number of records retained.
func (r *Ring) Len() int {
	if r.count < r.capacity {
		return r.count
	}
	return r.capacity
}

// At returns the i-th retained record, oldest first. The row is a view
// into the ring; callers must not mutate it.
func (r *Ring) At(i int) (t float64, row []float64) {
	if i < 0 || i >= r.Len() {
		panic(fmt.Sprintf("telemetry: ring index %d outside [0,%d)", i, r.Len()))
	}
	slot := i
	if r.count > r.capacity {
		slot = (r.count + i) % r.capacity
	}
	return r.times[slot], r.data[slot*len(r.fields) : (slot+1)*len(r.fields)]
}

// FieldIndex returns the column position of name, or -1.
func (r *Ring) FieldIndex(name string) int {
	for i, f := range r.fields {
		if f == name {
			return i
		}
	}
	return -1
}

// Value returns field's value in the i-th retained record (oldest first),
// or 0 for an unknown field.
func (r *Ring) Value(i int, field string) float64 {
	j := r.FieldIndex(field)
	if j < 0 {
		return 0
	}
	_, row := r.At(i)
	return row[j]
}

// PerRun is implemented by sinks that can take the records of many runs at
// once, such as a JSONL stream that a whole sweep shares. ForRun returns the
// sink for one run's records, labelled with the run.
type PerRun interface {
	ForRun(label string) Sink
}

// JSONL streams one self-describing JSON object per record:
//
//	{"t":1.2,"run":"reno n=45 seed=1","gw.arrivals":412,...}
//
// The encoder reuses one buffer and emits each record in a single Write,
// so concurrently running samplers can interleave whole lines onto a
// shared SyncWriter. The optional run label distinguishes them.
type JSONL struct {
	w     io.Writer
	run   []byte   // `,"run":"label"`, or empty for an unlabelled stream
	heads [][]byte // per-field `,"name":` fragments, built at Begin
	buf   []byte
}

// NewJSONL returns a JSONL sink writing to w. Used as a run's sink it
// serves every run through ForRun, so each record names its run.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

// NewJSONLRun returns a JSONL sink that stamps every record with a "run"
// label — sweeps use one labeled sink per job over a shared SyncWriter.
func NewJSONLRun(w io.Writer, run string) *JSONL {
	j := &JSONL{w: w}
	if run != "" {
		j.run = appendJSONString([]byte(`,"run":`), run)
	}
	return j
}

// ForRun returns a sink writing run's labelled records to the same writer.
func (j *JSONL) ForRun(label string) Sink { return NewJSONLRun(j.w, label) }

// Begin precomputes the per-field key fragments.
func (j *JSONL) Begin(fields []string) error {
	j.heads = make([][]byte, len(fields))
	for i, f := range fields {
		j.heads[i] = append(appendJSONString([]byte{','}, f), ':')
	}
	if j.buf == nil {
		j.buf = make([]byte, 0, 256)
	}
	return nil
}

// Record emits one JSON line. NaN and infinite values (possible for
// ratio-typed probes before any data) are written as 0 to keep the stream
// parseable.
func (j *JSONL) Record(t float64, values []float64) error {
	b := append(j.buf[:0], `{"t":`...)
	b = appendJSONFloat(b, t)
	b = append(b, j.run...)
	for i, v := range values {
		b = append(b, j.heads[i]...)
		b = appendJSONFloat(b, v)
	}
	b = append(b, '}', '\n')
	j.buf = b
	_, err := j.w.Write(b)
	return err
}

// appendJSONString appends s as a JSON string. HTML characters stay
// literal, so a label such as "codel?target=5ms&interval=100ms" keeps its
// '&'.
func appendJSONString(b []byte, s string) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // encoding a string cannot fail
	return append(b, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
}

// Flush forwards to the underlying writer when it supports flushing.
func (j *JSONL) Flush() error { return flushWriter(j.w) }

// CSV streams records as comma-separated rows under a "t,field..." header.
// Single-run sinks only: the header is fixed at Begin. Header names that
// hold a comma, a quote or a line break are quoted per RFC 4180, so the
// header always has one column per row field.
type CSV struct {
	w   io.Writer
	buf []byte
}

// NewCSV returns a CSV sink writing to w.
func NewCSV(w io.Writer) *CSV { return &CSV{w: w} }

// Begin writes the header row.
func (c *CSV) Begin(fields []string) error {
	if c.buf == nil {
		c.buf = make([]byte, 0, 256)
	}
	hw := csv.NewWriter(c.w)
	if err := hw.Write(append([]string{"t"}, fields...)); err != nil {
		return err
	}
	hw.Flush()
	return hw.Error()
}

// Record writes one row.
func (c *CSV) Record(t float64, values []float64) error {
	b := appendJSONFloat(c.buf[:0], t)
	for _, v := range values {
		b = append(b, ',')
		b = appendJSONFloat(b, v)
	}
	b = append(b, '\n')
	c.buf = b
	_, err := c.w.Write(b)
	return err
}

// Flush forwards to the underlying writer when it supports flushing.
func (c *CSV) Flush() error { return flushWriter(c.w) }

// appendJSONFloat formats v compactly ('g', shortest round-trip),
// sanitizing non-finite values to 0 so the output stays valid JSON/CSV.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, '0')
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// flushWriter flushes w if it exposes a Flush method (bufio.Writer,
// SyncWriter, nested sinks' writers).
func flushWriter(w io.Writer) error {
	if f, ok := w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// MultiSink fans each call out to every sink, returning the first error.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

func (m multiSink) Begin(fields []string) error {
	for _, s := range m {
		if err := s.Begin(fields); err != nil {
			return err
		}
	}
	return nil
}

func (m multiSink) Record(t float64, values []float64) error {
	var first error
	for _, s := range m {
		if err := s.Record(t, values); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m multiSink) Flush() error {
	var first error
	for _, s := range m {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SyncWriter serializes Write (and Flush) calls from concurrently running
// samplers onto one underlying writer, so a sweep can stream every job's
// labeled JSONL records into a single file.
type SyncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSyncWriter returns a mutex-guarded writer over w.
func NewSyncWriter(w io.Writer) *SyncWriter { return &SyncWriter{w: w} }

// Write forwards one serialized write.
func (s *SyncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Flush forwards to the underlying writer when it supports flushing.
func (s *SyncWriter) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return flushWriter(s.w)
}

// LiveLine renders a throttled, carriage-return-overwritten progress line
// from a few selected fields — the CLIs tee it onto stderr so a streaming
// run shows its pulse without drowning the terminal. Fields missing from
// the registry are silently skipped.
type LiveLine struct {
	w      io.Writer
	clk    clock.Clock
	pick   []string
	idx    []int
	every  time.Duration
	last   time.Time
	width  int
	record int
	wrote  bool
}

// NewLiveLine returns a live line writing to w showing the given fields,
// throttled against the real wall clock.
func NewLiveLine(w io.Writer, fields ...string) *LiveLine {
	return &LiveLine{w: w, clk: clock.Wall, pick: fields, every: 100 * time.Millisecond}
}

// SetClock replaces the throttling clock — tests use a fake so repaint
// behavior is deterministic instead of sleep-based.
func (l *LiveLine) SetClock(clk clock.Clock) { l.clk = clk }

// Begin resolves the selected fields against the column set.
func (l *LiveLine) Begin(fields []string) error {
	kept := l.pick[:0]
	l.idx = l.idx[:0]
	for _, want := range l.pick {
		for i, f := range fields {
			if f == want {
				kept = append(kept, want)
				l.idx = append(l.idx, i)
				break
			}
		}
	}
	l.pick = kept
	l.record = 0
	return nil
}

// Record repaints the line, throttled to wall-clock intervals.
func (l *LiveLine) Record(t float64, values []float64) error {
	l.record++
	now := l.clk.Now()
	if now.Sub(l.last) < l.every {
		return nil
	}
	l.last = now
	return l.render(t, values)
}

func (l *LiveLine) render(t float64, values []float64) error {
	line := fmt.Sprintf("\rtelemetry t=%.1fs · %d records", t, l.record)
	for i, j := range l.idx {
		line += fmt.Sprintf(" · %s=%.4g", l.pick[i], values[j])
	}
	if pad := l.width - (len(line) - 1); pad > 0 {
		line += strings.Repeat(" ", pad)
	}
	l.width = len(line) - 1
	_, err := fmt.Fprint(l.w, line)
	l.wrote = err == nil
	return err
}

// Flush terminates the line.
func (l *LiveLine) Flush() error {
	if !l.wrote {
		return nil
	}
	_, err := fmt.Fprintln(l.w)
	return err
}

// OpenLiveSink returns the sink a single-run command streams to: a live
// line on w showing the given fields, teed — when path is set — into a
// buffered file at path, written as CSV for a ".csv" extension and JSONL
// otherwise. The close function flushes and closes the file; without one
// it does nothing.
func OpenLiveSink(w io.Writer, path string, fields ...string) (Sink, func() error, error) {
	live := NewLiveLine(w, fields...)
	if path == "" {
		return live, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("telemetry: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var file Sink = NewJSONL(bw)
	if filepath.Ext(path) == ".csv" {
		file = NewCSV(bw)
	}
	closeFn := func() error {
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return MultiSink(file, live), closeFn, nil
}

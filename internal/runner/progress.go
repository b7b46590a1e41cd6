package runner

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"tcpburst/internal/clock"
)

// Progress renders the pool's event stream as one live, carriage-return
// overwritten status line — the CLIs point it at stderr so the CSV/report
// on stdout stays clean. It is an Options.OnEvent observer; call Finish
// once the batch returns to terminate the line with a newline.
type Progress struct {
	w   io.Writer
	clk clock.Clock

	mu        sync.Mutex
	start     time.Time
	last      time.Time
	width     int
	total     int
	ran       int
	cached    int
	failed    int
	simEvents uint64
}

// NewProgress returns a progress renderer writing to w on the real wall
// clock.
func NewProgress(w io.Writer) *Progress {
	return NewProgressClock(w, clock.Wall)
}

// NewProgressClock returns a progress renderer on an explicit clock, so
// tests can drive throttling and the elapsed column deterministically.
func NewProgressClock(w io.Writer, clk clock.Clock) *Progress {
	return &Progress{w: w, clk: clk, start: clk.Now()}
}

// Observe consumes one pool event; pass it as Options.OnEvent (directly or
// via core.ExecOptions.OnEvent).
func (p *Progress) Observe(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = ev.Total
	switch ev.Kind {
	case EventDone:
		p.ran++
		p.simEvents += ev.SimEvents
	case EventCached:
		p.cached++
		p.simEvents += ev.SimEvents
	case EventFailed:
		p.failed++
	default:
		return
	}
	// Terminal events only, throttled so a fast cache-warm batch does not
	// spend its time repainting the terminal.
	now := p.clk.Now()
	if now.Sub(p.last) < 100*time.Millisecond && p.ran+p.cached+p.failed < p.total {
		return
	}
	p.last = now
	p.render()
}

// render repaints the status line; callers hold p.mu.
func (p *Progress) render() {
	done := p.ran + p.cached + p.failed
	elapsed := p.clk.Since(p.start)
	line := fmt.Sprintf("\r%d/%d jobs · %d ran · %d cached", done, p.total, p.ran, p.cached)
	if p.failed > 0 {
		line += fmt.Sprintf(" · %d FAILED", p.failed)
	}
	if elapsed > 0 && p.simEvents > 0 {
		line += fmt.Sprintf(" · %s ev/s", siCount(float64(p.simEvents)/elapsed.Seconds()))
	}
	line += fmt.Sprintf(" · %s", elapsed.Round(100*time.Millisecond))
	if pad := p.width - (len(line) - 1); pad > 0 {
		line += strings.Repeat(" ", pad)
	}
	p.width = len(line) - 1
	fmt.Fprint(p.w, line)
}

// Finish repaints the final counts and terminates the line.
func (p *Progress) Finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.total == 0 {
		return
	}
	p.render()
	fmt.Fprintln(p.w)
}

// Table renders the batch telemetry as an aligned summary block — the
// CLIs print it on stderr under the -stats flag.
func (s Stats) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "run telemetry\n")
	fmt.Fprintf(&sb, "  jobs        %d total · %d ran · %d cached · %d failed",
		s.Total, s.Ran, s.Cached, s.Failed)
	if s.Skipped > 0 {
		fmt.Fprintf(&sb, " · %d skipped", s.Skipped)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  wall time   %s", s.Wall.Round(time.Millisecond))
	if s.Ran > 0 {
		fmt.Fprintf(&sb, " · job time %s · %.1fx parallel speedup",
			s.JobWall.Round(time.Millisecond), s.Speedup())
	}
	sb.WriteByte('\n')
	if s.SimEvents > 0 {
		fmt.Fprintf(&sb, "  sim events  %s · %s ev/s aggregate\n",
			siCount(float64(s.SimEvents)), siCount(s.EventsPerSec()))
	}
	if s.TelemetryRecords > 0 {
		fmt.Fprintf(&sb, "  telemetry   %s snapshot records streamed\n",
			siCount(float64(s.TelemetryRecords)))
	}
	if s.AllocBytes > 0 {
		fmt.Fprintf(&sb, "  heap        %.1f MB allocated · %d GC cycles\n",
			float64(s.AllocBytes)/1e6, s.GCCycles)
	}
	return sb.String()
}

// siCount formats a count with an SI suffix (12.3k, 4.5M, 1.2G).
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

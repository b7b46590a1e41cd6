package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != TimeZero {
		t.Fatalf("Now() = %v, want %v", s.Now(), TimeZero)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestScheduleAndRunSingleEvent(t *testing.T) {
	s := NewScheduler()
	var firedAt Time = -1
	s.After(time.Second, func() { firedAt = s.Now() })
	if err := s.Run(TimeZero.Add(2 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedAt != TimeZero.Add(time.Second) {
		t.Errorf("event fired at %v, want 1s", firedAt)
	}
	if got, want := s.Now(), TimeZero.Add(2*time.Second); got != want {
		t.Errorf("clock finished at %v, want %v", got, want)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(3*time.Second, func() { order = append(order, 3) })
	s.After(1*time.Second, func() { order = append(order, 1) })
	s.After(2*time.Second, func() { order = append(order, 2) })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { order = append(order, i) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: order = %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.After(time.Second, func() {
		fired = append(fired, s.Now())
		s.After(time.Second, func() {
			fired = append(fired, s.Now())
		})
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if fired[1] != TimeZero.Add(2*time.Second) {
		t.Errorf("nested event fired at %v, want 2s", fired[1])
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	h := s.After(time.Second, func() { fired = true })
	s.Cancel(h)
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelZeroAndDoubleCancel(t *testing.T) {
	s := NewScheduler()
	s.Cancel(Handle{}) // must not panic
	h := s.After(time.Second, func() {})
	s.Cancel(h)
	s.Cancel(h) // double cancel must not panic
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
}

func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	s := NewScheduler()
	stale := s.After(time.Second, func() {})
	s.Cancel(stale)
	// The canceled event's slot is recycled by the next schedule; the old
	// handle must not reach the new occupant.
	fired := false
	fresh := s.After(time.Second, func() { fired = true })
	s.Cancel(stale) // no-op: generation mismatch
	if !s.Active(fresh) {
		t.Fatal("fresh event inactive after stale cancel")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !fired {
		t.Error("fresh event in recycled slot never fired")
	}
}

func TestActiveTracksLifecycle(t *testing.T) {
	s := NewScheduler()
	h := s.After(time.Second, func() {})
	if !s.Active(h) {
		t.Error("scheduled event not active")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Active(h) {
		t.Error("fired event still active")
	}
	if s.Active(Handle{}) {
		t.Error("zero handle active")
	}
}

func TestSchedulingInPastReturnsZeroHandle(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if h := s.At(TimeZero, func() {}); !h.IsZero() {
		t.Error("At(past) returned a non-zero handle")
	}
	if h := s.At(s.Now(), func() {}); h.IsZero() {
		t.Error("At(now) returned zero handle; scheduling at the current instant must work")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(-time.Second, func() { fired = true })
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !fired {
		t.Error("negative-delay event never fired")
	}
	if s.Now() != TimeZero {
		t.Errorf("clock moved to %v for a clamped event", s.Now())
	}
}

func TestAfterCallThreadsArgument(t *testing.T) {
	s := NewScheduler()
	type payload struct{ n int }
	var got []int
	deliver := func(arg any) { got = append(got, arg.(*payload).n) }
	s.AfterCall(2*time.Second, deliver, &payload{n: 2})
	s.AfterCall(1*time.Second, deliver, &payload{n: 1})
	if h := s.AtCall(TimeZero.Add(-time.Second), deliver, &payload{}); !h.IsZero() {
		t.Error("AtCall(past) returned a non-zero handle")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AfterCall order = %v, want [1 2]", got)
	}
}

func TestAfterCallCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	h := s.AfterCall(time.Second, func(any) { fired = true }, nil)
	s.Cancel(h)
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("canceled AfterCall event fired")
	}
}

func TestRunHorizonLeavesLaterEvents(t *testing.T) {
	s := NewScheduler()
	early, late := false, false
	s.After(time.Second, func() { early = true })
	s.After(10*time.Second, func() { late = true })
	if err := s.Run(TimeZero.Add(5 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !early || late {
		t.Errorf("early=%v late=%v, want true/false", early, late)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	// Resume past the later event.
	if err := s.Run(TimeZero.Add(20 * time.Second)); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !late {
		t.Error("late event never fired after resuming")
	}
}

func TestEventAtExactHorizonFires(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(time.Second, func() { fired = true })
	if err := s.Run(TimeZero.Add(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("event at the exact horizon did not fire")
	}
}

func TestRunBackwardHorizonErrors(t *testing.T) {
	s := NewScheduler()
	s.After(time.Second, func() {})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if err := s.Run(TimeZero); err == nil {
		t.Error("Run(past horizon) succeeded, want error")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run(TimeZero.Add(time.Minute))
	if err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("executed %d events before stop, want 3", count)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.After(time.Millisecond, func() {})
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if s.Fired() != 5 {
		t.Errorf("Fired() = %d, want 5", s.Fired())
	}
}

// TestPendingCounterUnderCancel checks the O(1) live-event counter against
// every lifecycle transition: schedule, cancel, fire.
func TestPendingCounterUnderCancel(t *testing.T) {
	s := NewScheduler()
	var hs []Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, s.After(Duration(i+1)*time.Second, func() {}))
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending() = %d, want 10", s.Pending())
	}
	s.Cancel(hs[0])
	s.Cancel(hs[5])
	s.Cancel(hs[5]) // double cancel must not double-decrement
	if s.Pending() != 8 {
		t.Fatalf("Pending() after cancels = %d, want 8", s.Pending())
	}
	for s.Step() {
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() after drain = %d, want 0", s.Pending())
	}
}

// TestEventOrderProperty checks, for random schedules, that events always
// fire in non-decreasing time order and that every uncanceled event fires
// exactly once.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delaysMs []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, d := range delaysMs {
			s.After(Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		if err := s.RunAll(); err != nil {
			return false
		}
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHeapStressRandomCancel interleaves scheduling and canceling randomly
// and checks bookkeeping stays consistent across slot recycling.
func TestHeapStressRandomCancel(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(42))
	var live []Handle
	fired := 0
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) == 0 && len(live) > 0 {
			idx := rng.Intn(len(live))
			s.Cancel(live[idx])
			live = append(live[:idx], live[idx+1:]...)
			continue
		}
		h := s.After(Duration(rng.Intn(1000))*time.Millisecond, func() { fired++ })
		live = append(live, h)
	}
	want := len(live)
	if s.Pending() != want {
		t.Errorf("Pending() = %d, want %d", s.Pending(), want)
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired != want {
		t.Errorf("fired %d events, want %d (uncanceled)", fired, want)
	}
}

// TestEachPendingVisitsEveryEvent files events into the wheel and into
// every level of the ring, up to the last representable instant, cancels
// some, and checks that EachPending visits each pending argument exactly
// once, before and after a run has moved part of them into the wheel, and
// that Reset leaves nothing pending and no ring bucket marked. A run
// harness returns every in-flight packet through EachPending.
func TestEachPendingVisitsEveryEvent(t *testing.T) {
	s := NewScheduler()
	nop := func(any) {}
	at := []Time{0, Time(time.Microsecond), Time(5 * time.Millisecond), Time(time.Second),
		Time(5 * time.Second), Time(20 * time.Second), Time(time.Minute), Time(3 * time.Hour),
		Time(200 * 24 * time.Hour), TimeMax}
	var handles []Handle
	for _, t0 := range at {
		for k := 0; k < 3; k++ {
			handles = append(handles, s.AtCall(t0+Time(k), nop, len(handles)))
		}
	}
	for j := range s.rings {
		if s.rings[j].n == 0 {
			t.Errorf("ring level %d holds no event", j)
		}
	}
	for _, i := range []int{4, 13, 20, 29} {
		s.Cancel(handles[i])
	}
	check := func(when string) {
		t.Helper()
		seen := make(map[int]int)
		s.EachPending(func(a any) { seen[a.(int)]++ })
		for i := range handles {
			want := 0
			if s.Active(handles[i]) {
				want = 1
			}
			if seen[i] != want {
				t.Errorf("%s: event %d visited %d times, want %d", when, i, seen[i], want)
			}
		}
		if len(seen) != s.Pending() {
			t.Errorf("%s: EachPending visited %d events, Pending() = %d", when, len(seen), s.Pending())
		}
	}
	check("after filing")
	if err := s.Run(Time(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	check("after a run")
	s.Reset()
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Reset", s.Pending())
	}
	for j := range s.rings {
		for w, bits := range s.rings[j].bits {
			if bits != 0 {
				t.Errorf("ring level %d word %d is %#x after Reset", j, w, bits)
			}
		}
	}
	s.EachPending(func(a any) { t.Errorf("EachPending visited %v after Reset", a) })

	// The reset scheduler runs the same deadlines, TimeMax included, to
	// the end in order.
	var fired []Time
	for _, t0 := range at {
		s.At(t0, func() { fired = append(fired, s.Now()) })
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fired, at) {
		t.Errorf("fired at %v, want %v", fired, at)
	}
}

// Allocation budgets: the kernel hot paths must not allocate in steady
// state. Regressions fail here instead of silently eroding the perf win.

// TestEventSlotSize pins the slot arena's element: one fn(arg) callback,
// the (time, ord) key and three words of bookkeeping.
func TestEventSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(eventSlot{}); got != 56 {
		t.Errorf("eventSlot is %d bytes, want 56", got)
	}
}

// TestScheduleStepAllocFree files a capturing func() closure through At:
// the closure is boxed into the slot's arg as (callFunc, fn), which must
// not allocate.
func TestScheduleStepAllocFree(t *testing.T) {
	s := NewScheduler()
	n := 0
	fn := func() { n++ }
	// Warm the slot arena.
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, fn)
	}
	for s.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.At(s.Now().Add(time.Microsecond), fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("At+Step allocates %.1f objects/op, want 0", allocs)
	}
	if want := 64 + 1001; n != want {
		t.Errorf("%d closure events ran, want %d", n, want)
	}
}

func TestScheduleCancelAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.Cancel(s.After(time.Second, fn))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Cancel(s.After(time.Second, fn))
	})
	if allocs != 0 {
		t.Errorf("After+Cancel allocates %.1f objects/op, want 0", allocs)
	}
}

func TestAfterCallAllocFree(t *testing.T) {
	s := NewScheduler()
	fn := func(any) {}
	arg := &struct{ n int }{}
	for i := 0; i < 64; i++ {
		s.AfterCall(time.Microsecond, fn, arg)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterCall(time.Microsecond, fn, arg)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("AfterCall+Step allocates %.1f objects/op, want 0", allocs)
	}
}

func TestTimerResetStopAllocFree(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func(any) {}, nil)
	for i := 0; i < 64; i++ {
		tm.Reset(time.Second)
		tm.Stop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Second)
		tm.Stop()
	})
	if allocs != 0 {
		t.Errorf("Timer Reset+Stop allocates %.1f objects/op, want 0", allocs)
	}
}

// expiryCounter is a timer owner: the timer calls back into it through a
// package-level function and the owner as receiver, as the transport
// endpoints do.
type expiryCounter struct{ n int }

func countExpiry(a any) { a.(*expiryCounter).n++ }

// TestTimerExpiryAllocFree covers the dispatch of an expiry: arming
// files (timerFire, timer), the pop runs the owner's callback, and
// neither side allocates.
func TestTimerExpiryAllocFree(t *testing.T) {
	s := NewScheduler()
	owner := &expiryCounter{}
	var tm Timer
	tm.Init(s, countExpiry, owner)
	for i := 0; i < 64; i++ {
		tm.Reset(time.Microsecond)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(time.Microsecond)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("Timer Reset+expiry allocates %.1f objects/op, want 0", allocs)
	}
	if want := 64 + 1001; owner.n != want {
		t.Errorf("%d expiries, want %d", owner.n, want)
	}
}

// TestTimerResetReplacesPending re-arms a pending timer to a later and to
// an earlier deadline: either way it fires once, at the new instant.
func TestTimerResetReplacesPending(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, next Duration
	}{
		{"later", time.Second, 2 * time.Second},
		{"earlier", 100 * time.Millisecond, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler()
			var firings []Time
			tm := NewTimer(s, func(any) { firings = append(firings, s.Now()) }, nil)
			tm.Reset(tc.first)
			tm.Reset(tc.next) // replaces, does not add
			if err := s.RunAll(); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			if want := []Time{TimeZero.Add(tc.next)}; !slices.Equal(firings, want) {
				t.Errorf("timer fired at %v, want %v", firings, want)
			}
		})
	}
}

// TestTimerStopAndArmed tracks Armed through Reset and Stop, and checks a
// timer stopped before its deadline never fires.
func TestTimerStopAndArmed(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := NewTimer(s, func(any) { fired = true }, nil)
	if tm.Armed() {
		t.Error("new timer is armed")
	}
	tm.Stop() // stopping an unarmed timer is safe
	tm.Reset(time.Second)
	if !tm.Armed() {
		t.Error("timer not armed after Reset")
	}
	tm.Stop()
	if tm.Armed() {
		t.Error("timer armed after Stop")
	}
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if fired {
		t.Error("stopped timer fired")
	}
}

// TestLazyTimerStopSwallowsStalePop stops a timer from inside an event
// after its expiry is filed: the expiry must neither run the callback nor
// count as an executed event, and the clock must not advance to it.
func TestLazyTimerStopSwallowsStalePop(t *testing.T) {
	s := NewScheduler()
	calls := 0
	tm := NewTimer(s, func(any) { calls++ }, nil)
	tm.Reset(10 * time.Millisecond)
	armedAtStop := false
	s.At(TimeZero.Add(5*time.Millisecond), func() {
		armedAtStop = tm.Armed()
		tm.Stop()
	})
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if !armedAtStop {
		t.Error("timer unarmed before its deadline")
	}
	if calls != 0 {
		t.Errorf("stopped timer fired %d times", calls)
	}
	if tm.Armed() {
		t.Error("Armed() = true after Stop")
	}
	if got := s.Fired(); got != 1 {
		t.Errorf("Fired() = %d, want 1 (only the event that called Stop)", got)
	}
	if s.Now() != TimeZero.Add(5*time.Millisecond) {
		t.Errorf("clock ended at %v, want 5ms: a stopped expiry must not pop", s.Now())
	}
}

// timerModel is the one-deadline reference FuzzTimerMatchesModel checks
// Timer against: at most one pending expiry, keyed like every scheduler
// event by (instant, schedule order), beside a set of plain marker events
// that move the clock.
type timerModel struct {
	now     Time
	seq     uint64 // schedule order; every Reset and marker takes one
	armed   bool
	at      Time
	atSeq   uint64
	markers []modelEvent
	fired   uint64
	firings []Time
	rearm   Duration // re-arm delay the expiry callback applies; <0 for none
}

type modelEvent struct {
	at  Time
	seq uint64
}

func (m *timerModel) reset(d Duration) {
	m.seq++
	m.armed, m.at, m.atSeq = true, m.now.Add(max(d, 0)), m.seq
}

func (m *timerModel) schedule(d Duration) {
	m.seq++
	m.markers = append(m.markers, modelEvent{m.now.Add(max(d, 0)), m.seq})
}

// step pops the earliest pending event, as Scheduler.Step does.
func (m *timerModel) step() bool {
	next := -1
	for i, e := range m.markers {
		if next < 0 || e.at < m.markers[next].at || (e.at == m.markers[next].at && e.seq < m.markers[next].seq) {
			next = i
		}
	}
	timerFirst := m.armed && (next < 0 || m.at < m.markers[next].at ||
		(m.at == m.markers[next].at && m.atSeq < m.markers[next].seq))
	switch {
	case timerFirst:
		m.now, m.armed = m.at, false
		m.fired++
		m.firings = append(m.firings, m.now)
		if m.rearm >= 0 {
			m.reset(m.rearm)
		}
	case next >= 0:
		m.now = m.markers[next].at
		m.markers = append(m.markers[:next], m.markers[next+1:]...)
		m.fired++
	default:
		return false
	}
	return true
}

// fuzzDelay decodes one byte into a delay: the low six bits are a count
// n and the top two pick microseconds (same-bucket ties), milliseconds
// (inside the wheel window), a far delay or negative milliseconds
// (clamped to now). A far delay is n·100 ms for n < 48 (the ring's finest
// level, up to 4.7 s) and (n−47)² minutes for n ≥ 48 (1 min to 4.3 h, up
// to two levels coarser: a heavy-tailed off period, a backed-off RTO).
func fuzzDelay(b byte) Duration {
	n := Duration(b & 0x3f)
	switch b >> 6 {
	case 0:
		return n * time.Microsecond
	case 1:
		return n * time.Millisecond
	case 2:
		if n < 48 {
			return n * 100 * time.Millisecond
		}
		return (n - 47) * (n - 47) * time.Minute
	}
	return -n * time.Millisecond
}

// FuzzTimerMatchesModel decodes bytes into a sequence of Reset(d), Stop,
// Step, marker-event and re-arm-in-callback operations and checks Timer
// against timerModel after every one: the firing instants, Armed, the
// clock and Fired. A stopped or replaced expiry that ran would show as an
// extra firing.
func FuzzTimerMatchesModel(f *testing.F) {
	f.Add([]byte{0, 10, 2, 2})
	f.Add([]byte{0, 0x50, 0, 0x45, 2, 2, 2})                // reset, then reset earlier
	f.Add([]byte{0, 0x4a, 3, 0x45, 1, 5, 2, 0, 0x4a, 1, 2}) // stop a filed expiry
	f.Add([]byte{4, 0x42, 0, 0x81, 3, 0x81, 2, 2, 2, 4, 0xff, 2, 2})
	f.Add([]byte{0, 0xc5, 3, 0x03, 2, 0, 0x03, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewScheduler()
		m := &timerModel{rearm: -1}
		var firings []Time
		var tm *Timer
		tm = NewTimer(s, func(any) {
			firings = append(firings, s.Now())
			if m.rearm >= 0 {
				tm.Reset(m.rearm)
			}
		}, nil)
		for i := 0; i+1 < len(ops); i += 2 {
			op, d := ops[i]%5, fuzzDelay(ops[i+1])
			switch op {
			case 0:
				tm.Reset(d)
				m.reset(d)
			case 1:
				tm.Stop()
				m.armed = false
			case 2:
				if got, want := s.Step(), m.step(); got != want {
					t.Fatalf("op %d: Step() = %v, model %v", i/2, got, want)
				}
			case 3:
				s.After(d, func() {})
				m.schedule(d)
			case 4:
				// Re-arm from inside the expiry callback; a negative
				// delay turns re-arming off.
				m.rearm = d
			}
			if got := tm.Armed(); got != m.armed {
				t.Fatalf("op %d: Armed() = %v, model %v", i/2, got, m.armed)
			}
			if s.Now() != m.now || s.Fired() != m.fired {
				t.Fatalf("op %d: Now() = %v, Fired() = %d; model %v, %d", i/2, s.Now(), s.Fired(), m.now, m.fired)
			}
			if !slices.Equal(firings, m.firings) {
				t.Fatalf("op %d: timer fired at %v, model %v", i/2, firings, m.firings)
			}
		}
	})
}

func TestTimerRearmInsideCallback(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tm *Timer
	tm = NewTimer(s, func(any) {
		count++
		if count < 3 {
			tm.Reset(time.Second)
		}
	}, nil)
	tm.Reset(time.Second)
	if err := s.RunAll(); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if count != 3 {
		t.Errorf("timer fired %d times, want 3", count)
	}
}

// schedModel is the reference FuzzSchedulerMatchesModel checks the
// scheduler against: the pending events as a plain list sorted by
// (time, ord), where ord is the schedule order every At and AtCall draws
// from the default lane. An event's ord doubles as its identity.
type schedModel struct {
	now     Time
	ord     uint64
	pending []modelEvent
	fired   uint64
	firings []uint64
}

// schedule files an event at t and returns its ord, or 0 for an instant
// in the past, which the scheduler refuses without drawing an ordinal.
func (m *schedModel) schedule(t Time) uint64 {
	if t < m.now {
		return 0
	}
	m.ord++
	// The new ord is the largest, so it goes after every event at t.
	i := slices.IndexFunc(m.pending, func(e modelEvent) bool { return e.at > t })
	if i < 0 {
		i = len(m.pending)
	}
	m.pending = slices.Insert(m.pending, i, modelEvent{t, m.ord})
	return m.ord
}

func (m *schedModel) cancel(ord uint64) {
	m.pending = slices.DeleteFunc(m.pending, func(e modelEvent) bool { return e.seq == ord })
}

func (m *schedModel) live(ord uint64) bool {
	return slices.ContainsFunc(m.pending, func(e modelEvent) bool { return e.seq == ord })
}

// fireFirst runs the head of the pending list.
func (m *schedModel) fireFirst() {
	e := m.pending[0]
	m.pending = m.pending[1:]
	m.now = e.at
	m.fired++
	m.firings = append(m.firings, e.seq)
}

// run mirrors Scheduler.Run: a horizon behind the clock is an error;
// otherwise every event up to and at the horizon fires and the clock ends
// at the horizon.
func (m *schedModel) run(horizon Time) bool {
	if horizon < m.now {
		return false
	}
	for len(m.pending) > 0 && m.pending[0].at <= horizon {
		m.fireFirst()
	}
	m.now = horizon
	return true
}

// FuzzSchedulerMatchesModel decodes bytes into At and AtCall events at
// wheel and ring deadlines (and refused past ones), Cancel of live and
// stale handles, Step, Run(horizon) and NextTime, and after every
// operation checks the scheduler against schedModel: the order events
// fired in, Now, Fired, Pending and Active for every handle issued so far.
func FuzzSchedulerMatchesModel(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 5, 3, 0, 3, 0, 3, 0})                // same-instant ties
	f.Add([]byte{0, 0x81, 1, 0x41, 4, 0x50, 0, 0x3f, 4, 0x90, 3, 0}) // far ring, horizon split
	f.Add([]byte{0, 0x45, 1, 0x45, 2, 0, 2, 0, 0, 0x45, 3, 0, 3, 0}) // cancel, double cancel, slot reuse
	f.Add([]byte{0, 0x82, 4, 0x41, 0, 0x20, 1, 0xc3, 4, 0xc1, 3, 0, 3, 0, 3, 0})
	// Ring wraparound: from 4.7 s, a deadline past the finest level's
	// rotation (8.6 s) and one past the next level's (2.4 h).
	f.Add([]byte{0, 0xaf, 4, 0xaf, 0, 0xaf, 1, 0x8a, 0, 0xbf, 3, 0, 3, 0, 3, 0})
	// Three events in one ring bucket; cancel the middle of the chain,
	// then its head, then the last one, and file into the bucket again.
	f.Add([]byte{0, 0x8a, 1, 0x8a, 0, 0x8a, 2, 1, 2, 2, 2, 0, 0, 0x8a, 3, 0, 3, 0})
	// Peek with an empty wheel, then run to 0.999 s, inside the ring
	// bucket of the 1 s event but before it.
	f.Add([]byte{0, 0x8a, 5, 0, 4, 0x89, 4, 0x7f, 4, 0x64, 5, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewScheduler()
		m := &schedModel{}
		var firings []uint64
		record := func(a any) { firings = append(firings, a.(uint64)) }
		var handles []Handle
		var ords []uint64
		for i := 0; i+1 < len(ops); i += 2 {
			op, b := ops[i]%6, ops[i+1]
			switch op {
			case 0, 1:
				at := s.Now().Add(fuzzDelay(b))
				ord := m.schedule(at)
				var h Handle
				if op == 0 {
					h = s.At(at, func() { firings = append(firings, ord) })
				} else {
					h = s.AtCall(at, record, ord)
				}
				if h.IsZero() != (ord == 0) {
					t.Fatalf("op %d: scheduling at %v returned %v, model ord %d", i/2, at, h, ord)
				}
				handles, ords = append(handles, h), append(ords, ord)
			case 2:
				if len(handles) > 0 {
					k := int(b) % len(handles)
					s.Cancel(handles[k])
					m.cancel(ords[k])
				}
			case 3:
				if got, want := s.Step(), len(m.pending) > 0; got != want {
					t.Fatalf("op %d: Step() = %v, model %v", i/2, got, want)
				}
				if len(m.pending) > 0 {
					m.fireFirst()
				}
			case 4:
				horizon := s.Now().Add(fuzzDelay(b))
				if got, want := s.Run(horizon) == nil, m.run(horizon); got != want {
					t.Fatalf("op %d: Run(%v) succeeded = %v, model %v", i/2, horizon, got, want)
				}
			case 5:
				got, ok := s.NextTime()
				if want := len(m.pending) > 0; ok != want || ok && got != m.pending[0].at {
					t.Fatalf("op %d: NextTime() = %v, %v; model %v", i/2, got, ok, m.pending)
				}
			}
			if !slices.Equal(firings, m.firings) {
				t.Fatalf("op %d: fired %v, model %v", i/2, firings, m.firings)
			}
			if s.Now() != m.now || s.Fired() != m.fired || s.Pending() != len(m.pending) {
				t.Fatalf("op %d: Now() = %v, Fired() = %d, Pending() = %d; model %v, %d, %d",
					i/2, s.Now(), s.Fired(), s.Pending(), m.now, m.fired, len(m.pending))
			}
			for k, h := range handles {
				if got, want := s.Active(h), ords[k] != 0 && m.live(ords[k]); got != want {
					t.Fatalf("op %d: Active(handle %d) = %v, model %v", i/2, k, got, want)
				}
			}
		}
	})
}

// TestStaleHandleInactiveAfterReset: Reset drops every pending event and
// its callback, keeps the slot arena, and advances every slot's
// generation, so no handle from before the reset, pending, fired or
// canceled, reads as Active, not even once the next run fills its slot
// again; and the reset scheduler runs like a new one.
func TestStaleHandleInactiveAfterReset(t *testing.T) {
	s := NewScheduler()
	fired := 0
	count := func() { fired++ }
	var old []Handle
	for i := 0; i < 40; i++ {
		// Near events fill the wheel, far ones the ring.
		old = append(old, s.At(Time(i)*Time(time.Millisecond), count), s.At(Time(i)*Time(time.Hour), count))
	}
	s.Cancel(old[3])
	if err := s.Run(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	slots := len(s.slots)
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Fired() != 0 || s.ScheduledOps() != 0 {
		t.Fatalf("after Reset: %d pending, clock %v, %d fired, %d ops", s.Pending(), s.Now(), s.Fired(), s.ScheduledOps())
	}
	if len(s.slots) != slots {
		t.Errorf("Reset kept %d of %d slots", len(s.slots), slots)
	}
	for i, sl := range s.slots {
		if sl.fn != nil || sl.arg != nil {
			t.Errorf("slot %d kept its callback after Reset", i)
		}
	}
	// Refill every slot, twice over, with events of the next run.
	fired = 0
	var fresh []Handle
	for i := 0; i < 2*slots; i++ {
		fresh = append(fresh, s.At(Time(i), count))
	}
	for i, h := range old {
		if s.Active(h) {
			t.Errorf("handle %d from before Reset reads as Active", i)
		}
		s.Cancel(h) // a no-op: it must not cancel the next run's event
	}
	for i, h := range fresh {
		if !s.Active(h) {
			t.Errorf("event %d of the next run is not Active", i)
		}
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired != len(fresh) {
		t.Errorf("the reset scheduler fired %d events, want %d", fired, len(fresh))
	}
}

// farBench is BenchmarkKernelFarTimers' workload: a stream of near events
// (one every 20 µs, an ACK each) that re-arms the retransmission timers
// round robin at RTO-scale distances.
type farBench struct {
	s      *Scheduler
	timers []Timer
	rto    []Duration
	k      int
}

func farBenchAck(a any) {
	f := a.(*farBench)
	f.timers[f.k%len(f.timers)].Reset(f.rto[f.k%len(f.rto)])
	f.k++
	f.s.AfterCall(20*time.Microsecond, farBenchAck, f)
}

// farBenchExpire re-arms an expired timer, as a backed-off
// retransmission does.
func farBenchExpire(a any) { a.(*Timer).Reset(time.Second) }

// BenchmarkKernelFarTimers times the far path as a congested run drives
// it: 20k timers, each re-armed every 400 ms of simulated time at an RTO
// drawn from 200 ms to 3.2 s, so most are canceled in the ring and the
// rest expire, under a near-event stream. One op is one executed event.
func BenchmarkKernelFarTimers(b *testing.B) {
	const timers = 20_000
	rng := rand.New(rand.NewSource(1))
	f := &farBench{s: NewScheduler(), timers: make([]Timer, timers), rto: make([]Duration, 4096)}
	for i := range f.rto {
		f.rto[i] = 200*time.Millisecond + Duration(rng.Int63n(int64(3*time.Second)))
	}
	for i := range f.timers {
		f.timers[i].Init(f.s, farBenchExpire, &f.timers[i])
		f.timers[i].Reset(f.rto[i%len(f.rto)])
	}
	f.s.AfterCall(0, farBenchAck, f)
	// Reach steady state: every timer re-armed a few times.
	if err := f.s.Run(Time(2 * time.Second)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.s.Step()
	}
}

package sim

import (
	"fmt"
	"testing"
	"time"
)

// collect returns a train whose deliveries append (arg, Now) to a log.
type delivery struct {
	arg string
	at  Time
}

func collectTrain(s *Scheduler, lane *Lane, log *[]delivery) *Train {
	return NewTrain(s, lane, func(_, arg any) {
		*log = append(*log, delivery{arg.(string), s.Now()})
	}, nil)
}

func TestTrainDeliversInOrderWithOneScheduleOp(t *testing.T) {
	s := NewScheduler()
	lane := NewLanes().Next()
	var log []delivery
	tr := collectTrain(s, lane, &log)
	tr.Add(TimeZero.Add(1*time.Millisecond), "a")
	tr.Add(TimeZero.Add(2*time.Millisecond), "b")
	tr.Add(TimeZero.Add(3*time.Millisecond), "c")
	if got := tr.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
	if err := s.Run(TimeZero.Add(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []delivery{
		{"a", TimeZero.Add(1 * time.Millisecond)},
		{"b", TimeZero.Add(2 * time.Millisecond)},
		{"c", TimeZero.Add(3 * time.Millisecond)},
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("deliveries = %v, want %v", log, want)
	}
	// Each chained element still counts as an executed event...
	if got := s.Fired(); got != 3 {
		t.Errorf("Fired() = %d, want 3", got)
	}
	// ...but the whole uncontested train costs one scheduler insertion.
	if got := s.ScheduledOps(); got != 1 {
		t.Errorf("ScheduledOps() = %d, want 1", got)
	}
	if got := tr.Len(); got != 0 {
		t.Errorf("Len() after run = %d, want 0", got)
	}
}

// TestTrainSplitsAtInterveningEvent is the kernel image of a RED or
// probabilistic drop decision landing mid-burst: an independent event
// keyed between two train elements must execute in its slot, splitting
// the chain, with the train re-scheduling its remaining head.
func TestTrainSplitsAtInterveningEvent(t *testing.T) {
	s := NewScheduler()
	lane := NewLanes().Next()
	var log []delivery
	tr := collectTrain(s, lane, &log)
	tr.Add(TimeZero.Add(1*time.Millisecond), "t1")
	tr.Add(TimeZero.Add(3*time.Millisecond), "t3")
	s.At(TimeZero.Add(2*time.Millisecond), func() {
		log = append(log, delivery{"mid", s.Now()})
	})
	if err := s.Run(TimeZero.Add(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []delivery{
		{"t1", TimeZero.Add(1 * time.Millisecond)},
		{"mid", TimeZero.Add(2 * time.Millisecond)},
		{"t3", TimeZero.Add(3 * time.Millisecond)},
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("deliveries = %v, want %v", log, want)
	}
	// Head schedule + At + re-schedule of the split-off tail.
	if got := s.ScheduledOps(); got != 3 {
		t.Errorf("ScheduledOps() = %d, want 3", got)
	}
}

// TestTrainSameInstantOrdinalDrawAtAdd pins the property the equivalence
// argument leans on: Add draws the element's lane ordinal at Add time —
// the same draw the unbatched path performs inside schedule — so
// same-instant tie-breaks against other events on the same lane depend
// only on creation order, not on batching.
func TestTrainSameInstantOrdinalDrawAtAdd(t *testing.T) {
	at := TimeZero.Add(5 * time.Millisecond)
	run := func(trainFirst bool) []delivery {
		s := NewScheduler()
		lane := NewLanes().Next()
		var log []delivery
		tr := collectTrain(s, lane, &log)
		addEvent := func() {
			s.scheduleOrd(at, lane.Take(), func(arg any) {
				log = append(log, delivery{arg.(string), s.Now()})
			}, "event")
		}
		if trainFirst {
			tr.Add(at, "train")
			addEvent()
		} else {
			addEvent()
			tr.Add(at, "train")
		}
		if err := s.Run(TimeZero.Add(time.Second)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log
	}
	if log := run(true); log[0].arg != "train" || log[1].arg != "event" {
		t.Errorf("train added first: order = %v, want train before event", log)
	}
	if log := run(false); log[0].arg != "event" || log[1].arg != "train" {
		t.Errorf("event scheduled first: order = %v, want event before train", log)
	}
}

// TestTrainStraddlesRunHorizon covers the shard-window edge: elements
// beyond the window's horizon must survive the Run unexecuted, remain
// visible to NextTime (the window coordinator's probe), and fire in the
// next window.
func TestTrainStraddlesRunHorizon(t *testing.T) {
	s := NewScheduler()
	lane := NewLanes().Next()
	var log []delivery
	tr := collectTrain(s, lane, &log)
	tr.Add(TimeZero.Add(1*time.Second), "w1")
	tr.Add(TimeZero.Add(2*time.Second), "edge") // exactly at the horizon
	tr.Add(TimeZero.Add(3*time.Second), "w2")
	if err := s.Run(TimeZero.Add(2 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(log) != 2 || log[0].arg != "w1" || log[1].arg != "edge" {
		t.Fatalf("first window delivered %v, want [w1 edge]", log)
	}
	if got := tr.Len(); got != 1 {
		t.Errorf("Len() between windows = %d, want 1", got)
	}
	nt, ok := s.NextTime()
	if !ok || nt != TimeZero.Add(3*time.Second) {
		t.Errorf("NextTime() = %v, %v; want 3s, true", nt, ok)
	}
	if err := s.Run(TimeZero.Add(4 * time.Second)); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if len(log) != 3 || log[2].arg != "w2" {
		t.Errorf("second window delivered %v, want trailing w2", log)
	}
	if got := s.Fired(); got != 3 {
		t.Errorf("Fired() = %d, want 3", got)
	}
}

// deliveryCounter is a train owner; deliveries reach it through a
// package-level function with the owner as receiver, as links do.
type deliveryCounter struct{ n int }

func countDelivery(recv, _ any) { recv.(*deliveryCounter).n++ }

// TestTrainDeliveryAllocFree covers the dispatch of a delivery in both
// modes: Add files (trainFire, train) for the head (every element, when
// eager), and the pop hands the element to the owner's callback without
// allocating.
func TestTrainDeliveryAllocFree(t *testing.T) {
	for _, eager := range []bool{false, true} {
		s := NewScheduler()
		owner := &deliveryCounter{}
		var tr Train
		tr.Init(s, NewLanes().Next(), countDelivery, owner)
		tr.SetEager(eager)
		arg := &struct{ seq int }{}
		burst := func() {
			tr.Add(s.Now().Add(time.Microsecond), arg)
			tr.Add(s.Now().Add(2*time.Microsecond), arg)
			for s.Step() {
			}
		}
		for i := 0; i < 64; i++ {
			burst()
		}
		if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
			t.Errorf("eager=%v: Train Add+delivery allocates %.1f objects/op, want 0", eager, allocs)
		}
		if want := 2 * (64 + 1001); owner.n != want {
			t.Errorf("eager=%v: %d deliveries, want %d", eager, owner.n, want)
		}
	}
}

// TestEagerTrainFilesEveryElement pins the eager mode's one scheduler op
// per element, against one per burst when coalescing.
func TestEagerTrainFilesEveryElement(t *testing.T) {
	for _, tc := range []struct {
		eager bool
		ops   uint64
	}{{false, 1}, {true, 3}} {
		s := NewScheduler()
		var log []delivery
		tr := collectTrain(s, nil, &log)
		tr.SetEager(tc.eager)
		for i, d := range []Duration{1, 2, 3} {
			tr.Add(TimeZero.Add(d*Duration(time.Millisecond)), fmt.Sprintf("p%d", i))
		}
		if err := s.RunAll(); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if got := s.ScheduledOps(); got != tc.ops {
			t.Errorf("eager=%v: ScheduledOps() = %d, want %d", tc.eager, got, tc.ops)
		}
		want := []delivery{
			{"p0", TimeZero.Add(time.Millisecond)},
			{"p1", TimeZero.Add(2 * time.Millisecond)},
			{"p2", TimeZero.Add(3 * time.Millisecond)},
		}
		if fmt.Sprint(log) != fmt.Sprint(want) || s.Fired() != 3 {
			t.Errorf("eager=%v: deliveries %v, Fired() = %d", tc.eager, log, s.Fired())
		}
	}
}

func TestTrainAddOutOfOrderPanics(t *testing.T) {
	s := NewScheduler()
	tr := NewTrain(s, nil, func(_, _ any) {}, nil)
	tr.Add(TimeZero.Add(2*time.Millisecond), "late")
	defer func() {
		if recover() == nil {
			t.Errorf("Add with decreasing instant did not panic")
		}
	}()
	tr.Add(TimeZero.Add(1*time.Millisecond), "early")
}

func TestTrainAddInPastPanics(t *testing.T) {
	s := NewScheduler()
	tr := NewTrain(s, nil, func(_, _ any) {}, nil)
	s.After(time.Second, func() {})
	if err := s.Run(TimeZero.Add(2 * time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Add in the past did not panic")
		}
	}()
	tr.Add(TimeZero.Add(time.Second), "past")
}

// TestTrainMatchesPerEventExecution replays the same workload — a burst
// train with a competing cross-event — through the train and through
// plain per-event scheduling on the same lane, and requires identical
// delivery order, callback-visible clocks, and executed-event counts.
func TestTrainMatchesPerEventExecution(t *testing.T) {
	times := []Duration{1, 2, 2, 5, 9, 9, 9, 14}
	mk := func(batched bool) ([]delivery, uint64) {
		s := NewScheduler()
		lane := NewLanes().Next()
		var log []delivery
		record := func(arg any) { log = append(log, delivery{arg.(string), s.Now()}) }
		if batched {
			tr := NewTrain(s, lane, func(_, arg any) { record(arg) }, nil)
			for i, d := range times {
				tr.Add(TimeZero.Add(d*Duration(time.Millisecond)), fmt.Sprintf("p%d", i))
			}
		} else {
			for i, d := range times {
				s.scheduleOrd(TimeZero.Add(d*Duration(time.Millisecond)), lane.Take(), record, fmt.Sprintf("p%d", i))
			}
		}
		s.At(TimeZero.Add(9*time.Millisecond), func() { record("cross") })
		if err := s.Run(TimeZero.Add(time.Second)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log, s.Fired()
	}
	gotLog, gotFired := mk(true)
	wantLog, wantFired := mk(false)
	if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Errorf("batched deliveries = %v, want %v", gotLog, wantLog)
	}
	if gotFired != wantFired {
		t.Errorf("batched Fired() = %d, per-event %d", gotFired, wantFired)
	}
}

// TestWheelRetunesUnderBurstSpike drives the timing wheel through a
// dense arrival spike (far more pops per wheel window than buckets)
// followed by a sparse tail, and checks that the bucket width adapts
// both ways while every event still fires in order. This is the
// arrival pattern batching creates: long back-to-back trains, then
// near-silence until the next burst.
func TestWheelRetunesUnderBurstSpike(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	record := func() { fired = append(fired, s.Now()) }

	// Dense spike: 20k events 2µs apart span several wheel windows at
	// the initial bucket width, with ~8k pops per window.
	const spike = 20000
	for i := 0; i < spike; i++ {
		s.At(TimeZero.Add(Duration(i)*2*time.Microsecond), record)
	}
	if err := s.Run(TimeZero.Add(100 * time.Millisecond)); err != nil {
		t.Fatalf("Run (spike): %v", err)
	}
	denseShift := s.shift
	if denseShift >= initShift {
		t.Errorf("shift after dense spike = %d, want < %d (buckets should narrow)", denseShift, initShift)
	}

	// Sparse tail: a few events per wheel window widens the buckets
	// back out.
	const tail = 400
	base := s.Now()
	for i := 1; i <= tail; i++ {
		s.At(base.Add(Duration(i)*2*time.Millisecond), record)
	}
	if err := s.Run(base.Add(2 * time.Second)); err != nil {
		t.Fatalf("Run (tail): %v", err)
	}
	if s.shift <= denseShift {
		t.Errorf("shift after sparse tail = %d, want > %d (buckets should widen)", s.shift, denseShift)
	}

	if len(fired) != spike+tail {
		t.Fatalf("fired %d events, want %d", len(fired), spike+tail)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// TestWheelScanMemoSurvivesCancel pins the minBucket memo's safety
// argument: cancellations can only raise the true first nonempty
// bucket, so the memoized lower bound stays valid and the next scan
// must still find the right event.
func TestWheelScanMemoSurvivesCancel(t *testing.T) {
	s := NewScheduler()
	early := s.At(TimeZero.Add(1*time.Millisecond), func() {})
	var firedAt Time = -1
	s.At(TimeZero.Add(5*time.Millisecond), func() { firedAt = s.Now() })

	// Prime the memo at the early event's bucket.
	if nt, ok := s.NextTime(); !ok || nt != TimeZero.Add(1*time.Millisecond) {
		t.Fatalf("NextTime() = %v, %v; want 1ms, true", nt, ok)
	}
	memo := s.minBucket

	s.Cancel(early)
	if s.minBucket != memo {
		t.Fatalf("Cancel moved minBucket from %d to %d; removals must not touch the memo", memo, s.minBucket)
	}
	// The stale-but-valid lower bound must still resolve to the later event.
	if nt, ok := s.NextTime(); !ok || nt != TimeZero.Add(5*time.Millisecond) {
		t.Fatalf("NextTime() after cancel = %v, %v; want 5ms, true", nt, ok)
	}
	if err := s.Run(TimeZero.Add(time.Second)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedAt != TimeZero.Add(5*time.Millisecond) {
		t.Errorf("surviving event fired at %v, want 5ms", firedAt)
	}
	if got := s.Fired(); got != 1 {
		t.Errorf("Fired() = %d, want 1", got)
	}
}

// TestLanesNextIntoContinuesNext pins NextInto to Next's id sequence: a
// builder may mix the two and still draw consecutive lane ids.
func TestLanesNextIntoContinuesNext(t *testing.T) {
	var ls Lanes
	first := ls.Next()
	var second Lane
	ls.NextInto(&second)
	third := ls.Next()
	if first.ID() != 0 || second.ID() != 1 || third.ID() != 2 || ls.Allocated() != 3 {
		t.Errorf("lane ids %d, %d, %d (allocated %d), want 0, 1, 2 (3)",
			first.ID(), second.ID(), third.ID(), ls.Allocated())
	}
	if a, b := second.Take(), second.Take(); b != a+1 {
		t.Errorf("NextInto lane draws %d then %d, want consecutive ordinals", a, b)
	}
}

// TestTrainRecycleKeepsRing: Recycle clears every buffered element's arg
// and keeps the ring, and a train initialized again on it delivers as a
// new one does.
func TestTrainRecycleKeepsRing(t *testing.T) {
	s := NewScheduler()
	var got []any
	deliver := func(_, arg any) { got = append(got, arg) }
	var tr Train
	tr.Init(s, nil, deliver, nil)
	for i := 0; i < 9; i++ {
		tr.Add(Time(i), i)
	}
	size := len(tr.buf)
	s.Reset()
	tr.Recycle()
	if len(tr.buf) != size || tr.Len() != 0 {
		t.Fatalf("recycled train: ring %d, %d buffered; want ring %d, empty", len(tr.buf), tr.Len(), size)
	}
	for i, e := range tr.buf {
		if e.arg != nil {
			t.Errorf("slot %d kept arg %v", i, e.arg)
		}
	}
	tr.Init(s, nil, deliver, nil)
	for i := 0; i < 3; i++ {
		tr.Add(Time(i), i)
	}
	if err := s.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 || len(tr.buf) != size {
		t.Errorf("reinitialized train delivered %v with ring %d, want [0 1 2] with ring %d", got, len(tr.buf), size)
	}
}

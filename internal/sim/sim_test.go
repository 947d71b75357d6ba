package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3*time.Second, "c", func() { order = append(order, 3) })
	e.At(1*time.Second, "a", func() { order = append(order, 1) })
	e.At(2*time.Second, "b", func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestTiesBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(time.Second, "first", func() { order = append(order, "first") })
	e.At(time.Second, "second", func() { order = append(order, "second") })
	e.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
}

func TestNextPeeksWithoutExecuting(t *testing.T) {
	e := NewEngine()
	if _, ok := e.Next(); ok {
		t.Fatal("Next() on an empty engine reported an event")
	}
	fired := false
	ev := e.At(2*time.Second, "peeked", func() { fired = true })
	e.At(5*time.Second, "later", func() {})
	if at, ok := e.Next(); !ok || at != 2*time.Second {
		t.Fatalf("Next() = %v, %v, want 2s, true", at, ok)
	}
	if fired || e.Now() != 0 {
		t.Fatal("Next() executed the event or advanced the clock")
	}
	// Canceling the head exposes the next live event.
	ev.Cancel()
	if at, ok := e.Next(); !ok || at != 5*time.Second {
		t.Fatalf("Next() after cancel = %v, %v, want 5s, true", at, ok)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(5*time.Second, "outer", func() {
		e.After(2*time.Second, "inner", func() { at = e.Now() })
	})
	e.Run()
	if at != 7*time.Second {
		t.Fatalf("inner fired at %v, want 7s", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*time.Second, "advance", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5*time.Second, "late", func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-time.Second, "neg", func() {})
}

func TestCancelPreventsExecution(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(time.Second, "x", func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Minute
		e.At(d, "e", func() { fired = append(fired, d) })
	}
	e.RunUntil(3 * time.Minute)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3*time.Minute {
		t.Fatalf("Now() = %v, want 3m", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	// Resuming picks up the remaining events.
	e.Run()
	if len(fired) != 5 {
		t.Fatalf("fired %d events after Run, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(time.Hour)
	if e.Now() != time.Hour {
		t.Fatalf("Now() = %v, want 1h", e.Now())
	}
}

func TestEventAtAndName(t *testing.T) {
	e := NewEngine()
	ev := e.At(42*time.Second, "answer", func() {})
	if ev.At() != 42*time.Second {
		t.Fatalf("At() = %v, want 42s", ev.At())
	}
	if ev.Name() != "answer" {
		t.Fatalf("Name() = %q, want answer", ev.Name())
	}
}

func TestTickerFiresRepeatedly(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(time.Minute, "tick", func() { count++ })
	e.RunUntil(5 * time.Minute)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	e.RunUntil(7 * time.Minute)
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Minute, "tick", func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(time.Hour)
	if count != 3 {
		t.Fatalf("count = %d, want 3 (ticker should stop itself)", count)
	}
	tk.Stop() // idempotent
}

func TestZeroPeriodTickerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, "bad", func() {})
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.At(time.Duration(i)*time.Second, "e", func() {})
	}
	e.Run()
	if e.Fired() != 10 {
		t.Fatalf("Fired() = %d, want 10", e.Fired())
	}
}

// Property: for any set of non-negative offsets, events fire in sorted
// order and the final clock equals the max offset.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewEngine()
		var fired []time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			e.At(d, "e", func() { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		max := fired[len(fired)-1]
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving RunUntil calls at arbitrary deadlines fires the
// same events as a single Run.
func TestPropertyRunUntilEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		offsets := make([]time.Duration, n)
		for i := range offsets {
			offsets[i] = time.Duration(rng.Intn(1000)) * time.Millisecond
		}

		runAll := func(stepwise bool) []time.Duration {
			e := NewEngine()
			var fired []time.Duration
			for _, d := range offsets {
				d := d
				e.At(d, "e", func() { fired = append(fired, d) })
			}
			if stepwise {
				deadline := time.Duration(0)
				for e.Pending() > 0 {
					deadline += time.Duration(1+rng.Intn(200)) * time.Millisecond
					e.RunUntil(deadline)
				}
			} else {
				e.Run()
			}
			return fired
		}

		a, b := runAll(false), runAll(true)
		if len(a) != len(b) {
			t.Fatalf("trial %d: fired %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: order differs at %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

// TestRescheduleStepAllocatesNothing pins one engine step of the
// scheduler's completion pattern at zero allocations: a two-minute tick
// moves each of three running jobs' completions, due days ahead, with
// Reschedule. 2,000 ticks (6,000 re-arms) run first, so an engine that
// kept moved events queued would be stepping through thousands of dead
// completions by then.
func TestRescheduleStepAllocatesNothing(t *testing.T) {
	e := NewEngine()
	completions := make([]*Event, 3)
	done := func() {}
	for j := range completions {
		completions[j] = e.At(time.Duration(60+j)*time.Hour, "complete", done)
	}
	e.Every(2*time.Minute, "tick", func() {
		for j, ev := range completions {
			e.Reschedule(ev, e.Now()+time.Duration(60+j)*time.Hour)
		}
	})
	for i := 0; i < 2000; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { e.Step() })
	t.Logf("%v allocs per step", allocs)
	if allocs != 0 {
		t.Fatalf("a step that re-arms three completions allocates %v times, want 0", allocs)
	}
	if e.Pending() != len(completions)+1 {
		t.Fatalf("%d events queued, want the %d completions and the tick", e.Pending(), len(completions))
	}
}

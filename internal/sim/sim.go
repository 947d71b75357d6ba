// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock measured in time.Duration since the start
// of the simulation. Events are scheduled at absolute virtual times and
// executed in time order; ties are broken by scheduling order so runs are
// fully deterministic. Market and cost studies in this repository run on a
// sim.Engine instead of wall-clock time, which makes multi-month spot-market
// experiments finish in milliseconds and makes every experiment seedable
// and reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
type Event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	name string
	// eng is the engine whose queue holds the event, so Cancel can take
	// it out at once.
	eng *Engine
	// index is the event's position in eng.events, -1 once it has fired
	// or been canceled. 32 bits so the engine pointer costs the struct
	// no extra word.
	index    int32
	canceled bool
	// transient events were scheduled with AtTransient: no caller holds a
	// handle, so the engine recycles the struct after the event fires.
	transient bool
}

// At reports the virtual time this event fires at.
func (e *Event) At() time.Duration { return e.at }

// Name reports the debugging label given at scheduling time.
func (e *Event) Name() string { return e.name }

// Cancel prevents the event from firing and removes it from the queue
// at once, so a canceled event costs the engine nothing from here on.
// The firing order of the events that remain is untouched: it is the
// total order (at, seq), whatever shape the heap is in. Canceling an
// already-fired or already-canceled event is a no-op.
func (e *Event) Cancel() {
	e.canceled = true
	if e.index >= 0 {
		heap.Remove(&e.eng.events, int(e.index))
	}
}

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = int32(len(*h))
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is not usable; create engines with NewEngine. Engines are
// not safe for concurrent use: all scheduling must happen from the calling
// goroutine or from event callbacks (which run on the calling goroutine).
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	fired  uint64

	// slab is the tail of the current event chunk: events are carved out
	// of 256-struct arrays so a multi-month run costs one heap allocation
	// per 256 events instead of one each. Handed-out structs are never
	// recycled into new events unless they were transient (no handle
	// exists that could observe the reuse). The flip side: one handle
	// still held keeps its whole 14 KiB chunk alive, so holders re-arm
	// theirs with Reschedule instead of allocating a new one.
	slab []Event
	// free holds fired transient events ready for reuse.
	free []*Event
}

// slabSize is the event chunk size; large enough to amortize allocation,
// small enough that a short run wastes little.
const slabSize = 256

// alloc returns a zeroed Event, preferring the transient free list, then
// the current slab chunk.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		*ev = Event{}
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]Event, slabSize)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// recycle returns a fired transient event to the free list, dropping its
// callback so the engine does not pin the closure's captures.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled to fire: a canceled
// event stops counting the moment it is canceled.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a logic error in the caller, and silently reordering
// time would corrupt every downstream measurement.
func (e *Engine) At(t time.Duration, name string, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.name, ev.eng = t, e.seq, fn, name, e
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// AtTransient schedules fn like At but returns no handle: the engine
// recycles the event's storage after it fires. Use for fire-and-forget
// callbacks that are never canceled — the arrival pumps and decision
// points a long run schedules by the hundreds of thousands.
func (e *Engine) AtTransient(t time.Duration, name string, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn, ev.name, ev.eng, ev.transient = t, e.seq, fn, name, e, true
	e.seq++
	heap.Push(&e.events, ev)
}

// Reschedule re-arms ev to fire at t with its own name and callback,
// reusing its struct: the firing order is exactly that of ev.Cancel()
// followed by At(t, ev.Name(), fn), because the sequence number is drawn
// at the same point. ev may be pending, fired (even from inside its own
// callback), or canceled; it is live again afterwards. Holders of a
// long-lived handle — a job's completion, an allocation's billing hour —
// re-arm it rather than allocate a new event each time. Rescheduling an
// AtTransient event is not possible: no handle to one exists.
func (e *Engine) Reschedule(ev *Event, t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling %q at %v, before now %v", ev.name, t, e.now))
	}
	ev.at, ev.seq, ev.canceled = t, e.seq, false
	e.seq++
	if ev.index >= 0 {
		heap.Fix(&e.events, int(ev.index))
	} else {
		heap.Push(&e.events, ev)
	}
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	return e.At(e.now+d, name, fn)
}

// Every schedules fn to run every period, starting one period from now,
// until the returned Ticker is stopped or the engine runs out of horizon.
func (e *Engine) Every(period time.Duration, name string, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v for %q", period, name))
	}
	t := &Ticker{engine: e, period: period, name: name, fn: fn}
	// One wrapper closure for the ticker's whole life; schedule() re-arms
	// the same Event struct, so a steady tick allocates nothing.
	t.tick = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

// Next reports the virtual time of the earliest pending event without
// executing it or touching the queue. It reports false when nothing is
// scheduled — a paced driver (e.g. sched.Scheduler.Serve) uses Next to
// sleep on the wall clock until the virtual timeline is allowed to reach
// the event.
func (e *Engine) Next() (time.Duration, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// Step executes the next pending event, advancing the clock to its time.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*Event)
	e.now = ev.at
	e.fired++
	fn := ev.fn
	if ev.transient {
		// Recycle before running fn: no handle exists, and fn itself
		// may schedule the event's successor into the freed struct.
		e.recycle(ev)
	}
	fn()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain pending.
func (e *Engine) RunUntil(deadline time.Duration) {
	// The heap root is the earliest event; a callback may cancel it, so
	// it is read afresh on every turn.
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Ticker repeats a callback at a fixed virtual period.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	name    string
	fn      func()
	tick    func() // wrapper installed by Every; shared by every tick
	ev      *Event
	stopped bool
}

// schedule arms the next tick: the first call allocates the ticker's
// Event, later ones Reschedule the just-fired struct.
func (t *Ticker) schedule() {
	e := t.engine
	at := e.now + t.period
	if t.ev == nil {
		t.ev = e.At(at, t.name, t.tick)
		return
	}
	e.Reschedule(t.ev, at)
}

// Stop cancels future ticks. It is safe to call from inside the tick
// callback and is idempotent.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
	}
}

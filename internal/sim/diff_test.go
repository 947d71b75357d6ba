package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEngine is the test-only reference the real engine is compared
// against: an unordered slice scanned for its (at, seq) minimum on every
// step, with lazy cancellation — a canceled event stays queued and is
// skipped when it reaches the front. It shares no code with Engine.
type refEngine struct {
	now   time.Duration
	seq   uint64
	fired uint64
	queue []*refEvent
}

type refEvent struct {
	at       time.Duration
	seq      uint64
	fn       func()
	canceled bool
}

func (ev *refEvent) Cancel()        { ev.canceled = true }
func (ev *refEvent) Canceled() bool { return ev.canceled }

func (r *refEngine) Now() time.Duration { return r.now }
func (r *refEngine) Fired() uint64      { return r.fired }

func (r *refEngine) push(ev *refEvent) {
	if ev.at < r.now {
		panic("refEngine: scheduling in the past")
	}
	ev.seq = r.seq
	r.seq++
	r.queue = append(r.queue, ev)
}

// popMin removes and returns the (at, seq)-least queued event, canceled
// or not.
func (r *refEngine) popMin() *refEvent {
	m := 0
	for i, ev := range r.queue {
		if ev.at < r.queue[m].at || (ev.at == r.queue[m].at && ev.seq < r.queue[m].seq) {
			m = i
		}
	}
	ev := r.queue[m]
	r.queue = append(r.queue[:m], r.queue[m+1:]...)
	return ev
}

func (r *refEngine) at(t time.Duration, _ string, fn func()) canceler {
	ev := &refEvent{at: t, fn: fn}
	r.push(ev)
	return ev
}

func (r *refEngine) atTransient(t time.Duration, name string, fn func()) { r.at(t, name, fn) }

// reschedule is Cancel followed by a fresh At with the same callback: a
// new event, so the old one (if it is still queued) is skipped.
func (r *refEngine) reschedule(c canceler, t time.Duration) canceler {
	old := c.(*refEvent)
	old.Cancel()
	ev := &refEvent{at: t, fn: old.fn}
	r.push(ev)
	return ev
}

type refTicker struct {
	r       *refEngine
	period  time.Duration
	fn      func()
	ev      *refEvent
	stopped bool
}

func (t *refTicker) arm() {
	t.ev = &refEvent{at: t.r.now + t.period}
	t.ev.fn = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.r.push(t.ev)
}

func (t *refTicker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

func (r *refEngine) every(period time.Duration, _ string, fn func()) stopper {
	t := &refTicker{r: r, period: period, fn: fn}
	t.arm()
	return t
}

func (r *refEngine) Step() bool {
	for len(r.queue) > 0 {
		ev := r.popMin()
		if ev.canceled {
			continue
		}
		r.now = ev.at
		r.fired++
		ev.fn()
		return true
	}
	return false
}

// peek drops canceled events from the front and returns the first live
// one, or nil.
func (r *refEngine) peek() *refEvent {
	for len(r.queue) > 0 {
		ev := r.popMin()
		if ev.canceled {
			continue
		}
		r.queue = append(r.queue, ev)
		return ev
	}
	return nil
}

func (r *refEngine) Next() (time.Duration, bool) {
	if ev := r.peek(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

func (r *refEngine) RunUntil(deadline time.Duration) {
	for ev := r.peek(); ev != nil && ev.at <= deadline; ev = r.peek() {
		r.Step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

type canceler interface {
	Cancel()
	Canceled() bool
}
type stopper interface{ Stop() }

// simAPI is what a differential program drives; realEngine adapts
// *Engine to it.
type simAPI interface {
	Now() time.Duration
	Fired() uint64
	at(t time.Duration, name string, fn func()) canceler
	atTransient(t time.Duration, name string, fn func())
	// reschedule re-arms c at t with its own callback and returns the
	// handle that now stands for it.
	reschedule(c canceler, t time.Duration) canceler
	every(period time.Duration, name string, fn func()) stopper
	Step() bool
	Next() (time.Duration, bool)
	RunUntil(deadline time.Duration)
}

type realEngine struct{ *Engine }

func (e realEngine) at(t time.Duration, name string, fn func()) canceler {
	return e.At(t, name, fn)
}
func (e realEngine) atTransient(t time.Duration, name string, fn func()) {
	e.AtTransient(t, name, fn)
}
func (e realEngine) reschedule(c canceler, t time.Duration) canceler {
	ev := c.(*Event)
	e.Reschedule(ev, t)
	return ev
}
func (e realEngine) every(period time.Duration, name string, fn func()) stopper {
	return e.Every(period, name, fn)
}

type firing struct {
	name string
	at   time.Duration
}

// program is one random schedule / cancel / re-arm script. Every choice
// is drawn from rng — by the driver between steps and by the callbacks
// as they fire — so two engines that fire the same events in the same
// order execute the same script, and the first ordering difference
// shows up as a differing log.
type program struct {
	api    simAPI
	rng    *rand.Rand
	log    []firing
	budget int // events still allowed to be scheduled
	nextID int
	live   int // events scheduled and neither fired nor canceled
	// pending, when set, must agree with live between driver steps.
	pending func() int

	handles []*progHandle
	tickers []*progTicker
}

// progHandle is the script's own record of a cancelable event.
type progHandle struct {
	c    canceler
	at   time.Duration
	id   int
	dead bool // fired or canceled, as far as the script knows
}

const progUnit = time.Millisecond

func (p *program) name(kind string) string {
	p.nextID++
	return fmt.Sprintf("%s%d", kind, p.nextID)
}

// delay is short and often zero, so same-instant ties (ordered by
// scheduling sequence) are common.
func (p *program) delay() time.Duration {
	return time.Duration(p.rng.Intn(8)) * progUnit
}

func (p *program) schedule() {
	if p.budget <= 0 {
		return
	}
	p.budget--
	name := p.name("e")
	h := &progHandle{at: p.api.Now() + p.delay(), id: p.nextID}
	p.live++
	h.c = p.api.at(h.at, name, func() {
		h.dead = true
		p.live--
		h.c.Cancel() // canceling the event that is firing is a no-op
		p.fire(name)
		// The event re-arms itself from inside its own callback, as a
		// market hour does.
		if p.rng.Intn(4) == 0 {
			p.reschedule(h)
		}
	})
	p.handles = append(p.handles, h)
}

// reschedule re-arms a handle for a fresh delay, whatever state it is in
// — pending, fired, or canceled — the way scheduleCompletion moves a
// running job's completion.
func (p *program) reschedule(h *progHandle) {
	if p.budget <= 0 {
		return
	}
	p.budget--
	if h.dead {
		h.dead = false
		p.live++
	}
	h.at = p.api.Now() + p.delay()
	h.c = p.api.reschedule(h.c, h.at)
	if h.c.Canceled() {
		p.log = append(p.log, firing{"a re-armed handle reports Canceled", p.api.Now()})
	}
}

func (p *program) scheduleTransient() {
	if p.budget <= 0 {
		return
	}
	p.budget--
	name := p.name("t")
	p.live++
	p.api.atTransient(p.api.Now()+p.delay(), name, func() {
		p.live--
		p.fire(name)
	})
}

// startTicker arms a ticker that stops itself from inside its own tick
// after a few ticks and, half the time, starts its successor right
// there.
func (p *program) startTicker() {
	if p.budget <= 0 {
		return
	}
	p.budget--
	name := p.name("k")
	left := 1 + p.rng.Intn(4)
	tk := &progTicker{p: p}
	tk.s = p.api.every(time.Duration(1+p.rng.Intn(5))*progUnit, name, func() {
		p.fire(name)
		if left--; left == 0 {
			tk.Stop()
			tk.Stop()
			if p.rng.Intn(2) == 0 {
				p.startTicker()
			}
		}
	})
	p.live++
	p.tickers = append(p.tickers, tk)
}

// progTicker counts a running ticker as one live event: between ticks
// its next tick is queued, and stopping it — from its own tick or from
// outside — takes exactly that one away.
type progTicker struct {
	p       *program
	s       stopper
	stopped bool
}

func (t *progTicker) Stop() {
	if !t.stopped {
		t.stopped = true
		t.p.live--
	}
	t.s.Stop()
}

// cancel cancels a handle, which may have fired or been canceled before.
func (p *program) cancel(h *progHandle) {
	if !h.dead {
		h.dead = true
		p.live--
	}
	h.c.Cancel()
}

// cancelRoot cancels the earliest event the script still believes
// pending: the queue's root unless a ticker or transient event is ahead
// of it. Called from a callback under RunUntil, it removes the very
// event RunUntil is about to peek.
func (p *program) cancelRoot() {
	var root *progHandle
	for _, h := range p.handles {
		if h.dead {
			continue
		}
		if root == nil || h.at < root.at || (h.at == root.at && h.id < root.id) {
			root = h
		}
	}
	if root != nil {
		p.cancel(root)
	}
}

// fire logs the firing and then mutates the queue from inside the
// callback.
func (p *program) fire(name string) {
	p.log = append(p.log, firing{name, p.api.Now()})
	for n := 1 + p.rng.Intn(3); n > 0; n-- {
		p.mutate()
	}
}

func (p *program) mutate() {
	// Weighted towards scheduling so the queue grows until the budget is
	// spent, then drains under the cancels.
	switch p.rng.Intn(14) {
	case 10, 11, 0, 1, 2:
		p.schedule()
	case 3:
		p.scheduleTransient()
	case 4, 5:
		// Any handle at all: pending, already fired, or already canceled
		// (a double cancel).
		if len(p.handles) > 0 {
			p.cancel(p.handles[p.rng.Intn(len(p.handles))])
		}
	case 6:
		p.cancelRoot()
	case 7:
		p.startTicker()
	case 8:
		if len(p.tickers) > 0 {
			p.tickers[p.rng.Intn(len(p.tickers))].Stop()
		}
	case 9:
		// Cancel the root and arm a new event in its place.
		p.cancelRoot()
		p.schedule()
	case 12, 13:
		// Any handle at all, re-armed in place.
		if len(p.handles) > 0 {
			p.reschedule(p.handles[p.rng.Intn(len(p.handles))])
		}
	}
}

// run drives the engine to exhaustion through a random mix of Step,
// Next and RunUntil, and returns the firing log.
func (p *program) run() []firing {
	for i := 0; i < 12; i++ {
		p.schedule()
	}
	p.startTicker()
	p.startTicker()
	for {
		switch p.rng.Intn(10) {
		case 0:
			at, ok := p.api.Next()
			p.log = append(p.log, firing{fmt.Sprintf("next=%v", ok), at})
			if !ok {
				return p.log
			}
		case 1, 2, 3:
			p.api.RunUntil(p.api.Now() + time.Duration(p.rng.Intn(12))*progUnit)
			p.log = append(p.log, firing{"rununtil", p.api.Now()})
		default:
			if !p.api.Step() {
				return p.log
			}
		}
		// Mutations from outside a callback too, between steps.
		if p.rng.Intn(4) == 0 {
			p.mutate()
		}
		if p.pending != nil && p.pending() != p.live {
			p.log = append(p.log, firing{fmt.Sprintf("Pending()=%d with %d live events", p.pending(), p.live), p.api.Now()})
			return p.log
		}
	}
}

// TestEngineMatchesLazySkipReference runs random schedule / cancel /
// re-arm programs against the real engine and the lazy-skip reference
// and requires the identical (name, at) firing sequence, Next and
// RunUntil observations, final clock and Fired count. Covered: cancel
// from inside a callback, of an already-fired event, of the firing
// event itself, double cancel, Ticker.Stop inside its own tick (twice)
// with a successor armed in the same tick, Stop from outside, cancel of
// the queue's root while RunUntil is between peeks, and Reschedule —
// checked against the reference's Cancel + At — of a pending event, a
// fired one, a canceled one, and the firing event from inside its own
// callback. The engine's
// Pending must also equal the script's own count of live events after
// every driver step (the reference, being lazy, has no such number).
func TestEngineMatchesLazySkipReference(t *testing.T) {
	var fired uint64
	for seed := int64(1); seed <= 300; seed++ {
		eng := NewEngine()
		real := &program{api: realEngine{eng}, rng: rand.New(rand.NewSource(seed)), budget: 300, pending: eng.Pending}
		ref := &program{api: &refEngine{}, rng: rand.New(rand.NewSource(seed)), budget: 300}
		got, want := real.run(), ref.run()
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: firing %d differs: engine %v, reference %v", seed, i, logAt(got, i), want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine logged %d entries, reference %d", seed, len(got), len(want))
		}
		if real.api.Fired() != ref.api.Fired() || real.api.Now() != ref.api.Now() {
			t.Fatalf("seed %d: engine fired %d and stands at %v, reference %d at %v",
				seed, real.api.Fired(), real.api.Now(), ref.api.Fired(), ref.api.Now())
		}
		fired += ref.api.Fired()
	}
	// A script whose queue dies out after a few events proves nothing.
	if fired < 300*150 {
		t.Fatalf("the programs fired only %d events in all; the generator has stopped exercising the engine", fired)
	}
}

func logAt(log []firing, i int) any {
	if i < len(log) {
		return log[i]
	}
	return "nothing"
}

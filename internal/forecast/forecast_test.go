package forecast

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"proteus/internal/trace"
)

func genTrace(t *testing.T, seed int64, days int) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := trace.Generate("c4.xlarge", "us-east-1a", time.Duration(days)*24*time.Hour,
		trace.DefaultGenConfig(0.209), rng)
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	return tr
}

// naiveWindowFeatures is the full-scan reference: walk every trace point,
// no cursors, no prefix sums (except Mean, which both paths compute via
// the prefix integral — the property test checks Mean to tolerance and
// everything else exactly).
func naiveWindowFeatures(tr *trace.Trace, from, to time.Duration) Features {
	p := tr.PriceAt(from)
	f := Features{Min: p, Max: p, Last: p}
	for _, pt := range tr.Points {
		if pt.At <= from || pt.At > to {
			continue
		}
		if pt.Price < f.Min {
			f.Min = pt.Price
		}
		if pt.Price > f.Max {
			f.Max = pt.Price
		}
		f.Last = pt.Price
		f.Changes++
	}
	// Stepwise time-weighted mean over [from, to].
	if to <= from {
		f.Mean = p
		return f
	}
	var sum float64
	t, price := from, p
	for {
		next, ok := tr.NextChange(t)
		if !ok || next > to {
			break
		}
		sum += price * float64(next-t)
		t, price = next, tr.PriceAt(next)
	}
	sum += price * float64(to-t)
	f.Mean = sum / float64(to-from)
	return f
}

// TestWindowFeaturesProperty compares cursor-based feature extraction
// against the naive reference over windows that slide monotonically,
// jump across regime switches, straddle trace boundaries, and collapse
// to zero width.
func TestWindowFeaturesProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		tr := genTrace(t, seed, 7)
		dur := tr.Duration()
		cur := trace.NewCursor(tr)
		rng := rand.New(rand.NewSource(seed * 101))

		check := func(from, to time.Duration) {
			got := WindowFeatures(cur, from, to)
			want := naiveWindowFeatures(tr, from, to)
			if got.Min != want.Min || got.Max != want.Max || got.Last != want.Last || got.Changes != want.Changes {
				t.Fatalf("seed %d window [%v,%v]: got %+v want %+v", seed, from, to, got, want)
			}
			if d := math.Abs(got.Mean - want.Mean); d > 1e-9*math.Max(1, math.Abs(want.Mean)) {
				t.Fatalf("seed %d window [%v,%v]: Mean %v vs naive %v", seed, from, to, got.Mean, want.Mean)
			}
		}

		// Monotone sliding windows (the scheduler's access pattern).
		for from := time.Duration(0); from < dur; from += 37 * time.Minute {
			check(from, from+trace.BillingHour)
		}
		// Random jumps, including backward seeks and oversized windows.
		for i := 0; i < 300; i++ {
			from := time.Duration(rng.Int63n(int64(dur)))
			w := time.Duration(rng.Int63n(int64(6 * time.Hour)))
			check(from, from+w)
		}
		// Trace boundaries: window starting at 0, ending past the last
		// point, entirely past the end, and zero-width.
		check(0, time.Minute)
		check(dur-time.Minute, dur+3*time.Hour)
		check(dur+time.Hour, dur+2*time.Hour)
		check(dur/2, dur/2)
	}
}

// TestForecasterDeterministic asserts the model is a pure function of
// the observed prefix: two forecasters fed the identical tick stream
// agree bit-for-bit on every output, regardless of when queries happen.
func TestForecasterDeterministic(t *testing.T) {
	tr := genTrace(t, 3, 7)
	cfg := DefaultConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr.Points {
		a.Update(pt.At, pt.Price)
		// b gets interleaved queries, which must not perturb the model.
		b.Horizon(pt.Price*1.5, 10*time.Minute)
		b.Update(pt.At, pt.Price)
		b.Beta(0.01)
	}
	for _, delta := range trace.DefaultDeltas() {
		if a.Beta(delta) != b.Beta(delta) {
			t.Fatalf("Beta(%v) diverged: %v vs %v", delta, a.Beta(delta), b.Beta(delta))
		}
	}
	for _, dt := range []time.Duration{time.Minute, 6 * time.Minute, time.Hour} {
		bid := a.Price() + 0.02
		if a.Horizon(bid, dt) != b.Horizon(bid, dt) {
			t.Fatalf("Horizon(%v,%v) diverged", bid, dt)
		}
	}
	if a.Onset() != b.Onset() || a.Onsets() != b.Onsets() || a.Updates() != b.Updates() {
		t.Fatalf("detector state diverged")
	}
}

// TestForecasterBetaTracksTrace checks the online β table converges to
// the same qualitative shape as the historical estimate: monotonically
// non-increasing in delta, near zero for bids above every spike, and
// positive at small deltas on a spiky trace.
func TestForecasterBetaTracksTrace(t *testing.T) {
	tr := genTrace(t, 1, 14)
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr.Points {
		f.Update(pt.At, pt.Price)
	}
	if f.ClosedSamples() == 0 {
		t.Fatal("no samples closed over a 14-day trace")
	}
	deltas := trace.DefaultDeltas()
	prev := math.Inf(1)
	for _, d := range deltas {
		b := f.Beta(d)
		if b < 0 || b > 1 {
			t.Fatalf("Beta(%v) = %v out of [0,1]", d, b)
		}
		if b > prev+1e-12 {
			t.Fatalf("Beta not non-increasing at %v: %v > %v", d, b, prev)
		}
		prev = b
	}
	if f.Beta(deltas[0]) == 0 {
		t.Fatal("tight bid shows zero eviction probability on a spiky trace")
	}
	if f.Onsets() == 0 {
		t.Fatal("spike detector never fired over 14 days of spiky prices")
	}
}

// TestForecasterFlatTrace: a constant price stream must predict zero
// eviction probability for any bid at or above the price — the market
// evicts only on a strict crossing, so a bid exactly at a price that
// never moves is safe — and certainty for bids strictly below it.
func TestForecasterFlatTrace(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		f.Update(time.Duration(i)*10*time.Minute, 0.05)
	}
	if got := f.Horizon(0.06, time.Hour); got != 0 {
		t.Fatalf("flat trace Horizon above price = %v, want 0", got)
	}
	if got := f.Horizon(0.05, time.Hour); got != 0 {
		t.Fatalf("Horizon at current price on a flat trace = %v, want 0", got)
	}
	if got := f.Horizon(0.049, time.Hour); got != 1 {
		t.Fatalf("Horizon strictly below current price = %v, want 1", got)
	}
	if f.Onset() {
		t.Fatal("onset flagged on a flat trace")
	}
}

// TestHorizonScaling: shorter horizons must predict less risk, and the
// zero-observation forecaster predicts nothing.
func TestHorizonScaling(t *testing.T) {
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Horizon(1, time.Hour); got != 0 {
		t.Fatalf("unobserved Horizon = %v, want 0", got)
	}
	tr := genTrace(t, 5, 14)
	for _, pt := range tr.Points {
		f.Update(pt.At, pt.Price)
	}
	bid := f.Price() + 0.01
	short := f.Horizon(bid, 2*time.Minute)
	long := f.Horizon(bid, trace.BillingHour)
	if short > long {
		t.Fatalf("P(evict) not monotone in horizon: %v over 2m > %v over 1h", short, long)
	}
	if long > 0 && short == long {
		t.Fatalf("horizon scaling had no effect: %v == %v", short, long)
	}
}

// TestFeedNoLookahead: Advance(now) must feed exactly the changes in
// (last, now] plus one closing observation at now — never a future
// price — and be bit-identical to hand-feeding the same observation
// instants straight into a Forecaster.
func TestFeedNoLookahead(t *testing.T) {
	tr := genTrace(t, 4, 3)
	f, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fd := NewFeed(tr, f)
	step := 2 * time.Minute
	total := 0
	for now := time.Duration(0); now <= tr.Duration(); now += step {
		total += fd.Advance(now)
		// Every observation the model has seen is at or before now.
		if f.Updates() == 0 || f.Price() != tr.PriceAt(now) {
			t.Fatalf("at %v feed price %v != trace price %v", now, f.Price(), tr.PriceAt(now))
		}
	}
	// One update per step boundary (the closing observation) plus one per
	// change that is not itself on a boundary.
	want := 0
	for now := time.Duration(0); now <= tr.Duration(); now += step {
		want++
	}
	for _, pt := range tr.Points {
		if pt.At > 0 && pt.At <= (tr.Duration()/step)*step && pt.At%step != 0 {
			want++
		}
	}
	if total != want {
		t.Fatalf("feed made %d updates, want %d", total, want)
	}

	// An identically-tuned forecaster hand-fed the same observation
	// instants (every change, plus the poll boundary itself) must agree
	// bit-for-bit with the feed-driven one.
	cadence := 7 * time.Minute
	g, _ := New(DefaultConfig())
	gd := NewFeed(tr, g)
	for now := time.Duration(0); now <= tr.Duration(); now += cadence {
		gd.Advance(now)
	}
	h, _ := New(DefaultConfig())
	last := time.Duration(-1)
	observe := func(at time.Duration) {
		if at > last {
			h.Update(at, tr.PriceAt(at))
			last = at
		}
	}
	for now := time.Duration(0); now <= tr.Duration(); now += cadence {
		if now > 0 {
			for _, pt := range tr.Points {
				if pt.At > now-cadence && pt.At <= now {
					observe(pt.At)
				}
			}
		}
		observe(now)
	}
	if g.Updates() != h.Updates() || g.Price() != h.Price() {
		t.Fatalf("feed diverged from hand-fed stream: %d/%v vs %d/%v",
			g.Updates(), g.Price(), h.Updates(), h.Price())
	}
	for _, d := range trace.DefaultDeltas() {
		if g.Beta(d) != h.Beta(d) {
			t.Fatalf("feed perturbed Beta(%v)", d)
		}
	}
	for _, dt := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		bid := g.Price() + 0.01
		if g.Horizon(bid, dt) != h.Horizon(bid, dt) {
			t.Fatalf("feed perturbed Horizon(%v, %v)", bid, dt)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := DefaultOptions()
	bad.Lead = time.Minute
	if bad.Validate() == nil {
		t.Fatal("accepted Lead below the market warning")
	}
	bad = DefaultOptions()
	bad.Threshold = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero threshold")
	}
	bad = DefaultOptions()
	bad.Config.Deltas = nil
	if bad.Validate() == nil {
		t.Fatal("accepted empty delta grid")
	}
}

// TestAdvanceSteadyMatchesAdvance is the feeds property test the
// scheduler's forecast tick relies on: gating Advance behind a
// price-change subscription — AdvanceSteady on changeless intervals,
// Advance only when a change actually landed — must leave the forecaster
// in the exact same state as calling Advance on every tick. The whole
// Forecaster is compared (β tables, pending samples, spike detector),
// across several tick cadences so the changeless/changed interval mix
// varies.
func TestAdvanceSteadyMatchesAdvance(t *testing.T) {
	steady, changed := 0, 0
	for _, seed := range []int64{1, 9, 42} {
		tr := genTrace(t, seed, 3)
		for _, step := range []time.Duration{time.Minute, 7 * time.Minute, time.Hour} {
			full, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			gated, _ := New(DefaultConfig())
			fd := NewFeed(tr, full)
			gd := NewFeed(tr, gated)
			// An independent cursor plays the scheduler's market-side
			// subscription: it decides steady vs changed without touching
			// the feed's own cursor.
			sub := trace.NewCursor(tr)
			last := time.Duration(0)
			primed := false
			for now := time.Duration(0); now <= tr.Duration(); now += step {
				fd.Advance(now)
				if !primed {
					gd.Advance(now)
					primed = true
				} else if nt, ok := sub.NextChange(last); ok && nt <= now {
					gd.Advance(now)
					changed++
				} else {
					gd.AdvanceSteady(now)
					steady++
				}
				last = now
			}
			if !reflect.DeepEqual(*full, *gated) {
				t.Fatalf("seed=%d step=%v: gated feed diverged from per-tick Advance\n full: %+v\ngated: %+v",
					seed, step, full, gated)
			}
		}
	}
	if steady == 0 || changed == 0 {
		t.Fatalf("exercised steady=%d changed=%d intervals; need both paths", steady, changed)
	}
}

// TestUpdateAllocs holds the forecaster to 8 allocations for New and a
// whole 30-day trace of Updates: a proactive scheduler feeds it every
// observed price inside its decision tick, so an Update that allocates
// per tick shows here as thousands.
func TestUpdateAllocs(t *testing.T) {
	const budget = 8
	tr := genTrace(t, 1, 30)
	allocs := testing.AllocsPerRun(10, func() {
		f, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range tr.Points {
			f.Update(pt.At, pt.Price)
		}
		if f.ClosedSamples() == 0 {
			t.Fatal("no samples closed")
		}
	})
	t.Logf("%v allocs for New and %d Updates", allocs, len(tr.Points))
	if allocs > budget {
		t.Fatalf("New and one 30-day trace of Updates allocate %v times, over the budget of %d", allocs, budget)
	}
}

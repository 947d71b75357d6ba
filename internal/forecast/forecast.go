// Package forecast turns an observed spot-price stream into per-type
// eviction-probability forecasts, online.
//
// Proteus as described in the paper is reactive: BidBrain's β tables are
// trained once on a historical window (§4.1) and AgileML moves state only
// after the 2-minute eviction warning arrives (§3.3). Parcae and the
// preemption-forecast literature show that acting *ahead* of the
// revocation — draining state and acquiring replacements before the price
// spike lands — beats reacting to it. This package supplies the
// prediction half of that loop:
//
//   - an online β-style eviction table, updated incrementally from each
//     observed price tick (no full rebuilds): every tick opens a pending
//     sample recording the price a bid would have been placed against,
//     and samples older than the billing hour close into per-delta EWMA
//     eviction frequencies;
//   - a fast/slow EWMA regime detector flagging spike onsets — the moment
//     the short-horizon mean price pulls away from the long-horizon one;
//   - Horizon(bid, Δt), the query API: the probability that the market
//     price crosses above bid within the next Δt, combining the online β
//     table (hazard-scaled from the billing-hour window down to Δt) with
//     an onset multiplier while a spike is breaking.
//
// Every output is a pure function of (Config, the observed (t, price)
// prefix): no randomness, no map iteration, no wall clock. Feeding the
// same prefix always yields bit-identical forecasts, which is what lets
// the scheduler's proactive decisions stay deterministic at any worker
// count.
package forecast

import (
	"fmt"
	"math"
	"sort"
	"time"

	"proteus/internal/trace"
)

// Config tunes one Forecaster. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	// Deltas is the ascending bid-delta grid the online β table tracks —
	// the same grid BidBrain searches, so forecast and historical
	// estimates interpolate over identical support.
	Deltas []float64
	// Window is the outcome horizon of one β sample: a sample opened at
	// price p counts as "evicted at delta d" if a later price within
	// Window strictly exceeds p+d. Matches trace.BillingHour, the horizon
	// the historical tables use.
	Window time.Duration
	// Alpha is the EWMA step folding each closed sample into the β
	// table: beta ← beta + Alpha·(outcome − beta), bias-corrected during
	// warm-up. Smaller values remember more regime history.
	Alpha float64
	// FastTau and SlowTau are the time constants of the spike detector's
	// two price EWMAs. Onset is flagged while fast > OnsetRatio·slow.
	FastTau, SlowTau time.Duration
	// OnsetRatio is the fast/slow mean-price ratio that declares a spike
	// onset.
	OnsetRatio float64
	// OnsetBoost multiplies the eviction hazard while an onset is
	// flagged: the β table describes the average regime, and a breaking
	// spike is exactly the moment the average understates the risk.
	OnsetBoost float64
}

// DefaultConfig returns tuning that tracks the synthetic traces'
// regime structure: βs over the BidBrain delta grid with a ~20-sample
// memory, a 4-minute/1-hour detector pair, and a 6× hazard boost during
// onsets.
func DefaultConfig() Config {
	return Config{
		Deltas: trace.DefaultDeltas(),
		// Half a billing hour: short enough that samples start closing
		// (and the β table means something) within the first simulated
		// hour, long enough to span several price changes per window.
		// Horizon hazard-scales estimates to any other span.
		Window:     trace.BillingHour / 2,
		Alpha:      0.05,
		FastTau:    4 * time.Minute,
		SlowTau:    time.Hour,
		OnsetRatio: 1.6,
		OnsetBoost: 6,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if len(c.Deltas) == 0 {
		return fmt.Errorf("forecast: empty delta grid")
	}
	if !sort.Float64sAreSorted(c.Deltas) {
		return fmt.Errorf("forecast: deltas must be ascending")
	}
	if c.Window <= 0 {
		return fmt.Errorf("forecast: Window must be positive")
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("forecast: Alpha %v out of (0,1]", c.Alpha)
	}
	if c.FastTau <= 0 || c.SlowTau <= c.FastTau {
		return fmt.Errorf("forecast: need 0 < FastTau < SlowTau")
	}
	if c.OnsetRatio <= 1 {
		return fmt.Errorf("forecast: OnsetRatio must exceed 1")
	}
	if c.OnsetBoost < 1 {
		return fmt.Errorf("forecast: OnsetBoost must be >= 1")
	}
	return nil
}

// sample is one pending β observation: a hypothetical allocation opened
// at (start, p0) whose eviction outcome per delta is decided by the
// maximum price seen within Window of start.
type sample struct {
	start time.Duration
	p0    float64
	max   float64
}

// Forecaster is the online price/eviction model for one instance type.
// Not safe for concurrent use: like the rest of the simulation it lives
// on the engine goroutine (or behind the scheduler mutex).
type Forecaster struct {
	cfg Config

	lastT     time.Duration
	lastPrice float64
	updates   int

	// Pending β samples in start order (one opened per observed tick);
	// closed from the front as they age past Window. Bounded by the
	// number of price changes per Window, not the stream length.
	pending []sample
	// Per-delta EWMA eviction frequency with bias-correction weight:
	// the live estimate is evict[i]/weight once any sample has closed.
	evict  []float64
	weight float64
	closed int

	fast, slow float64
	onset      bool
	onsets     int
}

// New builds a forecaster. The zero-observation forecaster predicts
// nothing (Horizon returns 0) until Update has seen at least one tick.
func New(cfg Config) (*Forecaster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Forecaster{
		cfg:   cfg,
		evict: make([]float64, len(cfg.Deltas)),
	}, nil
}

// Update folds one observed price tick into the model. Ticks must be fed
// in non-decreasing time order — the order the market reveals them.
// Each call is O(pending + deltas): pending samples see the new price,
// expired samples close into the β table, the spike detector advances,
// and one new sample opens. No full rebuild ever happens.
func (f *Forecaster) Update(t time.Duration, price float64) {
	if f.updates > 0 && t < f.lastT {
		panic(fmt.Sprintf("forecast: Update at %v after %v (ticks must be in time order)", t, f.lastT))
	}

	// The tick's price lands in every still-open sample window; the
	// eviction condition mirrors trace.EstimateEviction (price strictly
	// above p0+delta within the window).
	for i := range f.pending {
		if t <= f.pending[i].start+f.cfg.Window && price > f.pending[i].max {
			f.pending[i].max = price
		}
	}
	// Close samples whose window has fully elapsed, oldest first.
	for len(f.pending) > 0 && f.pending[0].start+f.cfg.Window <= t {
		s := f.pending[0]
		copy(f.pending, f.pending[1:])
		f.pending = f.pending[:len(f.pending)-1]
		for i, d := range f.cfg.Deltas {
			out := 0.0
			if s.max > s.p0+d {
				out = 1
			}
			f.evict[i] += f.cfg.Alpha * (out - f.evict[i])
		}
		f.weight += f.cfg.Alpha * (1 - f.weight)
		f.closed++
	}

	// Spike detector: time-decayed fast/slow mean prices. The first tick
	// seeds both; later ticks decay by the elapsed gap so the detector is
	// a function of the (t, price) prefix, not of the tick rate.
	if f.updates == 0 {
		f.fast, f.slow = price, price
	} else {
		dt := float64(t - f.lastT)
		kf := 1 - math.Exp(-dt/float64(f.cfg.FastTau))
		ks := 1 - math.Exp(-dt/float64(f.cfg.SlowTau))
		f.fast += kf * (price - f.fast)
		f.slow += ks * (price - f.slow)
	}
	onset := f.fast > f.cfg.OnsetRatio*f.slow
	if onset && !f.onset {
		f.onsets++
	}
	f.onset = onset

	f.pending = append(f.pending, sample{start: t, p0: price, max: price})
	f.lastT, f.lastPrice = t, price
	f.updates++
}

// Beta returns the online estimate of P(evicted within Window) for a bid
// placed delta above the current price, interpolated over the delta grid
// exactly as trace.BetaTable interpolates. Zero until a sample has
// closed.
func (f *Forecaster) Beta(delta float64) float64 {
	if f.weight == 0 {
		return 0
	}
	ds := f.cfg.Deltas
	n := len(ds)
	if delta <= ds[0] {
		return f.evict[0] / f.weight
	}
	if delta >= ds[n-1] {
		return f.evict[n-1] / f.weight
	}
	i := sort.SearchFloat64s(ds, delta)
	lo, hi := ds[i-1], ds[i]
	frac := (delta - lo) / (hi - lo)
	return (f.evict[i-1]*(1-frac) + f.evict[i]*frac) / f.weight
}

// Horizon answers the forecaster's core query: the probability that the
// market price crosses strictly above bid within the next dt. A bid
// strictly below the current price is certain to be crossed (the market
// is already there); a bid exactly at the price is NOT — the market
// evicts only on a strict crossing, so that case falls through to the
// hazard model at delta 0. Otherwise the billing-hour β at the bid's
// delta is hazard-scaled down to dt, multiplied by the onset boost while
// a spike is breaking. Returns 0 before any observation.
func (f *Forecaster) Horizon(bid float64, dt time.Duration) float64 {
	if f.updates == 0 || dt <= 0 {
		return 0
	}
	if f.lastPrice > bid {
		return 1
	}
	betaW := f.Beta(bid - f.lastPrice)
	if betaW >= 1 {
		return 1
	}
	scale := float64(dt) / float64(f.cfg.Window)
	if f.onset {
		scale *= f.cfg.OnsetBoost
	}
	// Constant-hazard scaling: survival over dt = survival over the
	// window raised to the horizon ratio.
	return 1 - math.Pow(1-betaW, scale)
}

// Onset reports whether the detector currently flags a spike onset.
func (f *Forecaster) Onset() bool { return f.onset }

// Onsets counts false→true onset transitions observed so far.
func (f *Forecaster) Onsets() int { return f.onsets }

// Updates counts the price ticks observed so far.
func (f *Forecaster) Updates() int { return f.updates }

// ClosedSamples counts the β samples folded into the table so far.
func (f *Forecaster) ClosedSamples() int { return f.closed }

// Price returns the last observed price (zero before any observation).
func (f *Forecaster) Price() float64 { return f.lastPrice }

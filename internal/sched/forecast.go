package sched

import (
	"fmt"
	"time"

	"proteus/internal/forecast"
	"proteus/internal/market"
	"proteus/internal/obs"
)

// ProactiveDrainer extends ElasticHooks with a forecast-initiated drain:
// unlike Shrink — which models scrambling inside the 2-minute warning
// window — PreDrain has the whole forecast lead, so implementations
// flush in-flight state cleanly before walking the eviction path.
type ProactiveDrainer interface {
	PreDrain(cores int) error
}

// prediction is one recorded forecast awaiting its outcome: at resolveAt
// the predicted probability p is scored against whether the allocation
// actually got an eviction warning inside the window (Brier scoring).
type prediction struct {
	ba        *brokerAlloc
	at        time.Duration
	resolveAt time.Duration
	p         float64
}

// schedForecast is the scheduler's online forecasting state: one
// Forecaster per market instance type, fed from the observed price
// stream each decision tick, plus the accuracy and action accounting.
// Everything here is iterated in the fixed market.Types() order (or
// FIFO), so proactive runs stay bit-identical at any worker count.
type schedForecast struct {
	opts  forecast.Options
	types []string
	byTyp map[string]*forecast.Forecaster
	feeds []*forecast.Feed // parallel to types
	// typeIdx maps each feed to its index in market.Types() order, the
	// index space the price-change subscription reports moves in.
	typeIdx []int
	// onsetSeen caches each forecaster's onset count so the tick can emit
	// only the delta to the spike-onset counter.
	onsetSeen []int

	preds []prediction

	predrains      int
	hits           int
	falsePositives int
	preAcquires    int
	brierSum       float64
	brierN         int
}

// newSchedForecast builds one forecaster per market type that has a
// price trace, in market order.
func newSchedForecast(mkt *market.Market, opts forecast.Options) (*schedForecast, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	fc := &schedForecast{opts: opts, byTyp: make(map[string]*forecast.Forecaster)}
	for ti, t := range mkt.Types() {
		tr, ok := mkt.Trace(t.Name)
		if !ok {
			continue
		}
		f, err := forecast.New(opts.Config)
		if err != nil {
			return nil, err
		}
		fc.types = append(fc.types, t.Name)
		fc.byTyp[t.Name] = f
		fc.feeds = append(fc.feeds, forecast.NewFeed(tr, f))
		fc.typeIdx = append(fc.typeIdx, ti)
		fc.onsetSeen = append(fc.onsetSeen, 0)
	}
	if len(fc.types) == 0 {
		return nil, fmt.Errorf("sched: forecasting enabled but no market type has a price trace")
	}
	return fc, nil
}

// Horizon implements bidbrain.ForecastSource over the per-type models.
// A model that has not yet closed MinSamples β windows reports no
// forecast at all: its table is too young to trust with decisions.
func (f *schedForecast) Horizon(instanceType string, bid float64, dt time.Duration) (float64, bool) {
	m, ok := f.byTyp[instanceType]
	if !ok || m.Updates() == 0 || m.ClosedSamples() < f.opts.MinSamples {
		return 0, false
	}
	return m.Horizon(bid, dt), true
}

// Onset implements bidbrain.ForecastSource.
func (f *schedForecast) Onset(instanceType string) bool {
	m, ok := f.byTyp[instanceType]
	return ok && m.Onset()
}

// ForecastStats summarizes the forecaster's accuracy and the proactive
// actions it drove, for Stats and /v1/stats.
type ForecastStats struct {
	// Enabled reports the scheduler runs with Config.Forecast.
	Enabled bool `json:"enabled"`
	// Updates counts price ticks observed across all type models.
	Updates int `json:"updates"`
	// Onsets counts spike-onset transitions flagged across all types.
	Onsets int `json:"onsets"`
	// PreDrains counts forecast-initiated proactive drains; PreDrainHits
	// of those were followed by a real eviction warning, and
	// FalsePositiveDrains expired without one (the lease was handed
	// back).
	PreDrains           int `json:"pre_drains"`
	PreDrainHits        int `json:"pre_drain_hits"`
	FalsePositiveDrains int `json:"false_positive_drains"`
	// PreAcquires counts replacement acquisitions made in the same tick
	// as a pre-drain — capacity bought before the predicted spike landed.
	PreAcquires int `json:"pre_acquires"`
	// BrierScore is the mean squared error of resolved eviction
	// predictions (lower is better; 0.25 is the score of always guessing
	// 0.5), over Predictions resolved windows.
	BrierScore  float64 `json:"brier_score"`
	Predictions int     `json:"predictions"`
}

// HitRate is PreDrainHits / PreDrains (0 when no drains happened).
func (fs ForecastStats) HitRate() float64 {
	if fs.PreDrains == 0 {
		return 0
	}
	return float64(fs.PreDrainHits) / float64(fs.PreDrains)
}

func (f *schedForecast) stats() ForecastStats {
	st := ForecastStats{
		Enabled:             true,
		PreDrains:           f.predrains,
		PreDrainHits:        f.hits,
		FalsePositiveDrains: f.falsePositives,
		PreAcquires:         f.preAcquires,
		Predictions:         f.brierN,
	}
	for _, name := range f.types {
		st.Updates += f.byTyp[name].Updates()
		st.Onsets += f.byTyp[name].Onsets()
	}
	if f.brierN > 0 {
		st.BrierScore = f.brierSum / float64(f.brierN)
	}
	return st
}

// forecastTick is the proactive half of the decision tick: advance the
// per-type models over newly observed prices, score predictions whose
// windows closed, record fresh predictions for every pooled allocation,
// pre-drain the ones whose predicted eviction probability crosses the
// threshold, and pre-acquire a replacement for what was drained. No-op
// on reactive schedulers.
func (s *Scheduler) forecastTick() {
	if s.fc == nil || s.draining {
		return
	}
	now := s.eng.Now()
	reg := s.obs().Reg()

	// One subscription poll decides, per type, whether the feed walks
	// its cursor (price moved since the last tick) or takes the O(1)
	// steady path (just the closing observation). Both paths make the
	// identical Update sequence for their interval — the feeds property
	// test pins the equivalence — so forecasts are unchanged; the tick
	// just stops sweeping cursors for types that did not move.
	if s.fcSub == nil {
		s.fcSub = s.mkt.SubscribePrices()
		s.fcMoved = make([]bool, s.fcSub.Len())
	}
	for i := range s.fcMoved {
		s.fcMoved[i] = false
	}
	for _, i := range s.fcSub.Poll(now) {
		s.fcMoved[i] = true
	}

	for i, name := range s.fc.types {
		n := 0
		if s.fcMoved[s.fc.typeIdx[i]] {
			n = s.fc.feeds[i].Advance(now)
		} else {
			n = s.fc.feeds[i].AdvanceSteady(now)
		}
		if n > 0 {
			reg.Counter("proteus_forecast_updates_total",
				"price ticks folded into the online eviction forecaster",
				obs.L("type", name)).Add(float64(n))
		}
		if on := s.fc.byTyp[name].Onsets(); on > s.fc.onsetSeen[i] {
			reg.Counter("proteus_forecast_spike_onsets_total",
				"spike onsets flagged by the fast/slow price detector",
				obs.L("type", name)).Add(float64(on - s.fc.onsetSeen[i]))
			s.fc.onsetSeen[i] = on
		}
	}

	// Score predictions whose lead window has fully elapsed (FIFO: they
	// were recorded in time order).
	for len(s.fc.preds) > 0 && s.fc.preds[0].resolveAt <= now {
		pr := s.fc.preds[0]
		s.fc.preds[0] = prediction{}
		s.fc.preds = s.fc.preds[1:]
		y := 0.0
		if pr.ba.warned && pr.ba.warnedAt <= pr.resolveAt {
			y = 1
		}
		d := pr.p - y
		s.fc.brierSum += d * d
		s.fc.brierN++
	}
	if s.fc.brierN > 0 {
		reg.Gauge("proteus_forecast_brier_score",
			"mean squared error of resolved eviction predictions (lower is better)").
			Set(s.fc.brierSum / float64(s.fc.brierN))
	}

	// Predict for every pooled allocation, pre-draining the ones whose
	// risk over the lead crosses the threshold (only holders that opted
	// in; idle capacity has no state to drain).
	drained := 0
	for _, id := range s.allocOrder {
		ba := s.allocs[id]
		if ba.outOfPool() {
			continue
		}
		p, ok := s.fc.Horizon(ba.alloc.Type.Name, ba.alloc.Bid, s.fc.opts.Lead)
		if !ok {
			continue
		}
		s.fc.preds = append(s.fc.preds, prediction{ba: ba, at: now, resolveAt: now + s.fc.opts.Lead, p: p})
		if p < s.fc.opts.Threshold || ba.holder == nil || !ba.holder.job.Proactive {
			continue
		}
		if ba.predrainMissed {
			// One shot per allocation: its bid never changes, so a drain
			// that already missed would just thrash park/unpark cycles on
			// the same signal.
			continue
		}
		if ba.alloc.HourEnd(now)-preHourLead-now <= s.fc.opts.Lead {
			// The renewal decision lands before the prediction window
			// does; let it make the stay-or-go call with fresh prices.
			continue
		}
		s.preDrain(ba, p)
		drained++
	}

	// Pre-acquire: buy the drained capacity's replacement now, before
	// the predicted spike prices the market out of reach.
	if drained > 0 && s.decide(trigger{acquire: true}) {
		s.fc.preAcquires++
		reg.Counter("proteus_forecast_preacquires_total",
			"replacement acquisitions made in the same tick as a pre-drain").Inc()
	}
}

// preDrain parks one allocation ahead of its predicted eviction: the
// lease is released through the proactive drain path and the allocation
// leaves the schedulable pool (like a warned one) while staying alive —
// if the forecast is right, the eviction refund still arrives; if it is
// wrong, the false-positive timer hands the machines back.
func (s *Scheduler) preDrain(ba *brokerAlloc, p float64) {
	now := s.eng.Now()
	j := ba.holder
	ba.predrained = true
	ba.predrainAt = now
	ba.predrainResolved = false
	s.fc.predrains++
	s.obs().Reg().Counter("proteus_forecast_predrains_total",
		"forecast-initiated proactive drains").Inc()
	if j.span != nil {
		j.span.Eventf("sched", "pre-drain",
			"alloc %d (%d cores): forecast P(evict within %v)=%.3f >= %.2f, draining ahead of the warning",
			ba.alloc.ID, ba.cores(), s.fc.opts.Lead, p, s.fc.opts.Threshold)
	}
	s.release(ba)
	s.eng.AtTransient(now+s.fc.opts.FalsePositiveAfter, "sched.predrainExpiry", func() {
		cur, ok := s.allocs[ba.alloc.ID]
		if !ok || cur != ba || !ba.predrained || ba.warned {
			return
		}
		s.resolvePredrain(ba, false)
		ba.predrained = false
		s.rebalance("predrain-miss")
	})
}

// resolvePredrain settles one pre-drain's outcome exactly once: hit
// (a real eviction warning arrived while parked — record the lead the
// forecast bought) or miss (counted as a false-positive drain).
func (s *Scheduler) resolvePredrain(ba *brokerAlloc, hit bool) {
	if s.fc == nil || ba.predrainResolved {
		return
	}
	ba.predrainResolved = true
	reg := s.obs().Reg()
	if hit {
		s.fc.hits++
		reg.Counter("proteus_forecast_predrain_hits_total",
			"pre-drains followed by a real eviction warning").Inc()
		lead := s.eng.Now() - ba.predrainAt
		reg.Histogram("proteus_forecast_predrain_lead_seconds",
			"how far ahead of the eviction warning the pre-drain ran",
			[]float64{30, 60, 120, 240, 360, 600, 1200, 3600}).Observe(lead.Seconds())
		return
	}
	ba.predrainMissed = true
	s.fc.falsePositives++
	reg.Counter("proteus_forecast_false_positive_drains_total",
		"pre-drains whose predicted eviction never arrived").Inc()
}

// ForecastStats reports the forecaster's accuracy and proactive-action
// counters (zero-valued with Enabled=false on reactive schedulers).
// Safe to call from any goroutine.
func (s *Scheduler) ForecastStats() ForecastStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fc == nil {
		return ForecastStats{}
	}
	return s.fc.stats()
}

// Package obs is the unified observability spine of the repository: a
// concurrency-safe metrics registry (counters, gauges, histograms) plus
// lightweight trace spans keyed to the simulation clock, with exporters
// for Prometheus text exposition and JSONL.
//
// Every subsystem — the market, BidBrain, AgileML, the parameter-server
// stack, and the simulation engine itself — reports through the same
// registry and tracer, so the paper's Fig. 5/6/9/11 narratives, the
// benchmark harnesses, and the live-mode /metrics endpoint all read one
// source of truth. The span stream is also the only record of a run's
// decisions: `proteus -live` prints its narrative straight from it, so
// the printed story and the exported trace cannot disagree.
//
// Instruments are nil-safe: methods on a nil *Registry return nil
// instruments, and methods on nil instruments are no-ops. Components
// therefore instrument themselves unconditionally and callers opt in by
// passing an Observer; uninstrumented runs pay only a nil check.
package obs

import "time"

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Observer bundles the registry, tracer, and flight recorder handed
// through the stack. A nil *Observer (or nil fields) disables the
// corresponding layer.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
	Flight  *FlightRecorder
}

// NewObserver returns an observer with a fresh registry, a tracer
// stamped by the given clock (typically sim.Engine.Now), and a flight
// recorder over the tracer's span stream. A nil clock stamps everything
// at zero. Tracer retention drops are exported eagerly as
// proteus_obs_spans_dropped_total, so the family is present (at zero)
// even on loss-free runs — "no drops" is then an assertion, not an
// absence.
func NewObserver(now func() time.Duration) *Observer {
	reg := NewRegistry()
	reg.SetClock(now)
	tr := NewTracer(now)
	dropped := reg.Counter("proteus_obs_spans_dropped_total",
		"Trace spans discarded by tracer retention (SetLimit).")
	dropped.Add(0)
	tr.OnDrop(func(n int) { dropped.Add(float64(n)) })
	return &Observer{Metrics: reg, Tracer: tr, Flight: NewFlightRecorder(tr, 0)}
}

// FlightRecorder returns the bundled flight recorder, nil-safely.
func (o *Observer) FlightRecorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.Flight
}

// Registry returns the bundled metrics registry, nil-safely.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Trace returns the bundled tracer, nil-safely.
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Merge folds a child observer into this one: the child's metric
// families merge into the registry (counters add, gauges last-write,
// histograms add) and its spans append to the trace in completion
// order. Parallel experiment harnesses give every task a fresh child
// observer and merge them back in deterministic task order, so the
// parent's exports match what one shared observer would have seen from
// a serial run of the same tasks.
func (o *Observer) Merge(child *Observer) {
	if o == nil || child == nil {
		return
	}
	o.Reg().Merge(child.Reg())
	o.Trace().Absorb(child.Trace().Spans())
}

// SetClock rebinds both the registry's and the tracer's timestamp source
// — for observers built before the simulation engine they will observe.
func (o *Observer) SetClock(now func() time.Duration) {
	if o == nil {
		return
	}
	o.Metrics.SetClock(now)
	o.Tracer.SetClock(now)
}

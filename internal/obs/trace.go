package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// SpanData is one finished span (or instant event) on the trace stream.
// Times are virtual durations since simulation start; an event has
// Start == End.
//
// TraceID/SpanID/ParentID make the stream causal: spans carrying the
// same TraceID belong to one trace (one tenant job, one live run), and
// every non-root span names its parent, so the flat completion-order
// stream can be reassembled into a tree (BuildTree). All three are zero
// for legacy "flat" spans emitted outside any trace. IDs are derived
// deterministically (splitmix mixing of the parent's ID and a per-parent
// child counter, never wall time or goroutine identity), so the same
// seeded run produces bit-identical IDs at any worker count.
type SpanData struct {
	TraceID  uint64 // 0 = flat span, not part of any trace
	SpanID   uint64 // unique within the trace; 0 for flat spans
	ParentID uint64 // 0 = trace root (or flat span)

	Component string        // subsystem: "market", "bidbrain", "agileml", ...
	Name      string        // action kind: "stage-transition", "allocation", ...
	Detail    string        // human-readable specifics
	Start     time.Duration // virtual start time
	End       time.Duration // virtual end time
	// Wall is the wall-clock cost of the spanned operation, for actions
	// whose real latency matters (state migration, drain) even though
	// they are instantaneous in virtual time.
	Wall time.Duration
	// Open marks a snapshot of a still-running span (TraceSpans, the
	// flight recorder). Open spans have End == Start: the snapshot does
	// not read the clock, so it is safe off the simulation goroutine.
	Open bool `json:",omitempty"`
	// Attrs is an optional structured attachment — a BidBrain decision
	// audit, for example. It must be JSON-marshalable and is carried
	// verbatim into exports and trace trees.
	Attrs any `json:",omitempty"`
}

// Ref returns the span's trace/span ID pair.
func (sp SpanData) Ref() SpanRef { return SpanRef{TraceID: sp.TraceID, SpanID: sp.SpanID} }

// SpanRef is the lightweight context-propagation handle: enough to
// parent further spans or annotate events with their causal origin.
type SpanRef struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the ref points into a trace.
func (r SpanRef) Valid() bool { return r.TraceID != 0 && r.SpanID != 0 }

// golden is the 64-bit golden-ratio increment used by SplitMix64 (the
// same constant internal/par seeds tasks with).
const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 finalizer: a bijective avalanche over uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// nonzero maps the (single) zero output to a fixed non-zero value so ID
// zero can keep meaning "untraced"/"root".
func nonzero(id uint64) uint64 {
	if id == 0 {
		return golden
	}
	return id
}

// NewTraceID derives a deterministic trace ID from a root seed and a
// per-trace key (typically the job ID): the par.SeedAt construction, so
// traces keep their IDs when other traces are added around them and
// parallel runs agree bit-for-bit with serial ones.
func NewTraceID(root, key uint64) uint64 {
	return nonzero(mix64(root + (key+1)*golden))
}

// childSpanID derives the ID of parent's index-th child by chaining the
// splitmix stream: the parent's ID (or, for a root, the trace ID) seeds
// the stream and the child index selects the draw. Deterministic in
// (trace, path to the span) only — never in execution order. Chaining
// avoids the algebraic cross-trace collisions a traceID⊕parentID mix
// would admit, since trace IDs are themselves splitmix outputs over
// multiples of golden.
func childSpanID(traceID, parentID, index uint64) uint64 {
	seed := parentID
	if seed == 0 {
		seed = traceID
	}
	return nonzero(mix64(seed + (index+1)*golden))
}

// Tracer records spans stamped by a virtual clock. Safe for concurrent
// use; all methods on a nil *Tracer are no-ops.
type Tracer struct {
	mu      sync.Mutex
	now     func() time.Duration
	spans   spanStore
	open    map[*Span]struct{}
	limit   int
	dropped uint64
	onDrop  func(n int)
}

// NewTracer creates a tracer; now supplies timestamps (virtual or wall).
// A nil clock stamps everything at zero.
func NewTracer(now func() time.Duration) *Tracer {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Tracer{now: now, open: make(map[*Span]struct{})}
}

// SetClock rebinds the tracer's timestamp source (nil stamps at zero).
// Lets an observer built before the simulation engine adopt the engine's
// clock once it exists.
func (t *Tracer) SetClock(now func() time.Duration) {
	if t == nil {
		return
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
}

// clock returns the current timestamp source under the lock.
func (t *Tracer) clock() func() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.now
}

// SetLimit bounds retained spans to the most recent n (0 = unbounded),
// so long live runs cannot grow memory without limit.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.limit = n
	t.truncateLocked()
}

// OnDrop registers fn to be called (under the tracer lock) with the
// number of spans each retention discard removes — the hook the observer
// uses to expose drops as a metric. fn must not call back into the
// tracer.
func (t *Tracer) OnDrop(fn func(n int)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onDrop = fn
}

func (t *Tracer) truncateLocked() {
	if t.limit > 0 && t.spans.n > t.limit {
		over := t.spans.n - t.limit
		t.dropped += uint64(over)
		t.spans.dropFront(over)
		if t.onDrop != nil {
			t.onDrop(over)
		}
	}
}

// Dropped reports how many spans retention discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// finish retains a finished span.
func (t *Tracer) finish(sp SpanData) {
	t.mu.Lock()
	t.recordLocked(sp)
	t.mu.Unlock()
}

// recordLocked is finish for callers holding the lock.
func (t *Tracer) recordLocked(sp SpanData) {
	t.spans.push(sp)
	t.truncateLocked()
}

// Absorb appends already-finished spans (typically another tracer's
// Spans()) in order, preserving their timestamps. Concatenating per-task
// tracers in task order keeps a fanned-out run's span stream identical
// to the serial one.
func (t *Tracer) Absorb(spans []SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range spans {
		t.recordLocked(sp)
	}
}

// Event records an instant flat span (Start == End, no trace) — a
// decision, a warning, a transition. detail is a Sprintf format.
func (t *Tracer) Event(component, name, detail string, args ...any) {
	if t == nil {
		return
	}
	now := t.clock()()
	t.finish(SpanData{
		Component: component,
		Name:      name,
		Detail:    fmt.Sprintf(detail, args...),
		Start:     now,
		End:       now,
	})
}

// Start opens a flat span (no trace IDs). End (or Endf) finishes and
// records it. A nil tracer returns a nil span whose methods no-op.
func (t *Tracer) Start(component, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startSpanLocked(SpanRef{}, 0, component, name, "")
}

// StartTrace opens the root span of a new trace. Derive traceID with
// NewTraceID so runs stay deterministic.
func (t *Tracer) StartTrace(traceID uint64, component, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startSpanLocked(SpanRef{TraceID: traceID, SpanID: childSpanID(traceID, 0, 0)}, 0, component, name, "")
}

// startSpanLocked opens a span with the given identity and registers it
// as in-flight.
func (t *Tracer) startSpanLocked(ref SpanRef, parentID uint64, component, name, detail string) *Span {
	now := t.now()
	s := &Span{
		t: t,
		data: SpanData{
			TraceID:   ref.TraceID,
			SpanID:    ref.SpanID,
			ParentID:  parentID,
			Component: component,
			Name:      name,
			Detail:    detail,
			Start:     now,
			End:       now,
		},
		wallStart: time.Now(),
	}
	t.open[s] = struct{}{}
	return s
}

// StartSpan opens a child of parent when parent is non-nil, else a flat
// span on t — for components that may or may not run inside a trace.
// Returns nil (no-op span) when both are nil.
func StartSpan(t *Tracer, parent *Span, component, name string) *Span {
	if parent != nil {
		return parent.Child(component, name)
	}
	return t.Start(component, name)
}

// Span is one in-flight operation. All methods are safe for concurrent
// use (they serialize on the tracer's lock) and no-op on a nil span.
type Span struct {
	t         *Tracer
	data      SpanData
	wallStart time.Time
	kids      uint64
	done      bool
}

// Ref returns the span's propagation handle (zero for flat spans).
func (s *Span) Ref() SpanRef {
	if s == nil {
		return SpanRef{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.data.Ref()
}

// Detailf sets the span's detail text and returns the span for chaining.
func (s *Span) Detailf(format string, args ...any) *Span {
	if s == nil {
		return nil
	}
	detail := fmt.Sprintf(format, args...)
	s.t.mu.Lock()
	s.data.Detail = detail
	s.t.mu.Unlock()
	return s
}

// SetAttrs attaches a structured payload (must be JSON-marshalable) and
// returns the span for chaining.
func (s *Span) SetAttrs(v any) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	s.data.Attrs = v
	s.t.mu.Unlock()
	return s
}

// nextChild reserves the next child index and returns the child's
// identity. Flat parents produce flat children.
func (s *Span) nextChild() (ref SpanRef, parent uint64) {
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.nextChildLocked()
}

func (s *Span) nextChildLocked() (ref SpanRef, parent uint64) {
	if s.data.TraceID == 0 {
		return SpanRef{}, 0
	}
	id := childSpanID(s.data.TraceID, s.data.SpanID, s.kids)
	s.kids++
	return SpanRef{TraceID: s.data.TraceID, SpanID: id}, s.data.SpanID
}

// Child opens a sub-span of this span in the same trace. A nil span
// returns nil.
func (s *Span) Child(component, name string) *Span {
	return s.ChildDetail(component, name, "")
}

// ChildDetail is Child followed by setting the detail to an already
// rendered string, under one hold of the tracer lock — for call sites
// hot enough that Detailf's fmt pass and second lock hold show up.
func (s *Span) ChildDetail(component, name, detail string) *Span {
	if s == nil {
		return nil
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	ref, parent := s.nextChildLocked()
	return s.t.startSpanLocked(ref, parent, component, name, detail)
}

// Eventf records an instant child event (Start == End) under this span
// and returns its ref, so callers can annotate streams (SSE events, for
// example) with the causal origin.
func (s *Span) Eventf(component, name, detail string, args ...any) SpanRef {
	return s.EventAttrs(component, name, nil, detail, args...)
}

// EventAttrs is Eventf with a structured attachment.
func (s *Span) EventAttrs(component, name string, attrs any, detail string, args ...any) SpanRef {
	if s == nil {
		return SpanRef{}
	}
	ref, parent := s.nextChild()
	now := s.t.clock()()
	s.t.finish(SpanData{
		TraceID:   ref.TraceID,
		SpanID:    ref.SpanID,
		ParentID:  parent,
		Component: component,
		Name:      name,
		Detail:    fmt.Sprintf(detail, args...),
		Start:     now,
		End:       now,
		Attrs:     attrs,
	})
	return ref
}

// End finishes the span at the tracer's current time, recording the
// wall-clock cost of the spanned operation. Idempotent.
func (s *Span) End() { s.end("", false) }

// EndDetail is End preceded by setting the detail to an already rendered
// string (see ChildDetail).
func (s *Span) EndDetail(detail string) { s.end(detail, true) }

// end stamps, retains and unregisters the span under one hold of the
// tracer lock.
func (s *Span) end(detail string, setDetail bool) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	if setDetail {
		s.data.Detail = detail
	}
	delete(t.open, s)
	s.data.End = t.now()
	s.data.Wall = time.Since(s.wallStart)
	t.recordLocked(s.data)
}

// Spans returns a copy of the retained spans in completion order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	all, _ := t.recent(math.MaxInt)
	return all
}

// recent returns a copy of the newest n retained spans, oldest first,
// and how many spans have finished in all (retained or since dropped).
func (t *Tracer) recent(n int) ([]SpanData, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	skip := max(0, t.spans.n-n)
	out := make([]SpanData, 0, t.spans.n-skip)
	for i := range t.spans.chunks {
		c := &t.spans.chunks[i]
		from := t.spans.first(i)
		if skip >= len(c.recs)-from {
			skip -= len(c.recs) - from
			continue
		}
		for j := from + skip; j < len(c.recs); j++ {
			out = append(out, t.spans.unpack(c, j))
		}
		skip = 0
	}
	return out, uint64(t.spans.n) + t.dropped
}

// Len reports the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.n
}

// openSnapshotLocked copies the in-flight spans (all traces, or one),
// flagged Open with End == Start — no clock read, so callers off the
// simulation goroutine cannot race the engine. Sorted by (Start, TraceID,
// SpanID) for deterministic output.
func (t *Tracer) openSnapshotLocked(traceID uint64) []SpanData {
	var out []SpanData
	for s := range t.open {
		if traceID != 0 && s.data.TraceID != traceID {
			continue
		}
		sp := s.data
		sp.End = sp.Start
		sp.Wall = 0
		sp.Open = true
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.TraceID != b.TraceID {
			return a.TraceID < b.TraceID
		}
		return a.SpanID < b.SpanID
	})
	return out
}

// OpenSpans returns snapshots of the spans currently in flight (see
// openSnapshotLocked for the Open/End semantics).
func (t *Tracer) OpenSpans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.openSnapshotLocked(0)
}

// TraceSpans returns every retained span of one trace — finished spans
// in completion order, then snapshots of the trace's still-open spans —
// ready for BuildTree, and how many of the trace's finished spans
// retention has discarded, read under the same lock: the trace emitted
// exactly len(spans) + dropped spans so far. The scan reads only what is
// retained, so under SetLimit(n) it costs O(n) whatever the uptime. A
// zero traceID returns nil and 0.
func (t *Tracer) TraceSpans(traceID uint64) (spans []SpanData, dropped uint64) {
	if t == nil || traceID == 0 {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanData
	for i := range t.spans.chunks {
		c := &t.spans.chunks[i]
		for j := t.spans.first(i); j < len(c.recs); j++ {
			if c.recs[j].traceID == traceID {
				out = append(out, t.spans.unpack(c, j))
			}
		}
	}
	return append(out, t.openSnapshotLocked(traceID)...), t.spans.dropped[traceID]
}

// Filter returns retained spans matching component and/or name; empty
// strings match everything.
func (t *Tracer) Filter(component, name string) []SpanData {
	var out []SpanData
	for _, sp := range t.Spans() {
		if component != "" && sp.Component != component {
			continue
		}
		if name != "" && sp.Name != name {
			continue
		}
		out = append(out, sp)
	}
	return out
}

// IDString renders a span/trace ID the way exports do: 16 hex digits,
// empty for zero (untraced).
func IDString(id uint64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", id)
}

// spanJSON is the JSONL wire form of one span.
type spanJSON struct {
	Type         string  `json:"type"`
	TraceID      string  `json:"trace_id,omitempty"`
	SpanID       string  `json:"span_id,omitempty"`
	ParentID     string  `json:"parent_id,omitempty"`
	Component    string  `json:"component"`
	Name         string  `json:"name"`
	Detail       string  `json:"detail,omitempty"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	WallSeconds  float64 `json:"wall_seconds,omitempty"`
	Open         bool    `json:"open,omitempty"`
	Attrs        any     `json:"attrs,omitempty"`
}

func spanWire(sp SpanData) spanJSON {
	return spanJSON{
		Type:         "span",
		TraceID:      IDString(sp.TraceID),
		SpanID:       IDString(sp.SpanID),
		ParentID:     IDString(sp.ParentID),
		Component:    sp.Component,
		Name:         sp.Name,
		Detail:       sp.Detail,
		StartSeconds: sp.Start.Seconds(),
		EndSeconds:   sp.End.Seconds(),
		WallSeconds:  sp.Wall.Seconds(),
		Open:         sp.Open,
		Attrs:        sp.Attrs,
	}
}

// WriteJSONL writes the retained spans, one JSON object per line, in
// completion order. Instant events carry start_seconds == end_seconds.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(spanWire(sp)); err != nil {
			return err
		}
	}
	return nil
}

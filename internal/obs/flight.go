package obs

import (
	"encoding/json"
	"io"
	"time"
)

// DefaultFlightSize is how many spans a flight dump shows by default.
const DefaultFlightSize = 4096

// FlightRecorder answers "what just happened" for a wedged or
// misbehaving service — via GET /debug/flight on the obs mux, or SIGQUIT
// in `proteus -serve` — without dumping the full trace history. It is a
// view of its Tracer's span store: the newest finished spans still
// retained there, so a retention limit (Tracer.SetLimit) below the
// flight size also bounds the dump. Safe for concurrent use; all methods
// on a nil recorder are no-ops.
type FlightRecorder struct {
	tracer *Tracer
	size   int
}

// NewFlightRecorder returns a view of t's newest `capacity` spans
// (capacity <= 0 uses DefaultFlightSize). Returns nil for a nil tracer.
func NewFlightRecorder(t *Tracer, capacity int) *FlightRecorder {
	if t == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = DefaultFlightSize
	}
	return &FlightRecorder{tracer: t, size: capacity}
}

// Recent returns the newest retained spans, oldest first.
func (f *FlightRecorder) Recent() []SpanData {
	if f == nil {
		return nil
	}
	recent, _ := f.tracer.recent(f.size)
	return recent
}

// FlightDump is the wire form of one flight-recorder snapshot. Times on
// spans are virtual; TakenAt is the only wall-clock stamp (snapshots may
// be taken from any goroutine, so they never read the virtual clock).
type FlightDump struct {
	TakenAt       time.Time  `json:"taken_at"`
	Capacity      int        `json:"capacity"`
	TotalRecorded uint64     `json:"total_recorded"`
	DroppedSpans  uint64     `json:"dropped_spans"` // tracer retention discards
	Recent        []spanJSON `json:"recent"`        // oldest first
	Open          []spanJSON `json:"open"`          // in-flight at snapshot time
}

// Snapshot captures the newest spans (oldest first), the tracer's
// still-open spans, and its counts of spans finished and discarded.
func (f *FlightRecorder) Snapshot() FlightDump {
	if f == nil {
		return FlightDump{TakenAt: time.Now()}
	}
	recent, total := f.tracer.recent(f.size)
	dump := FlightDump{
		TakenAt:       time.Now(),
		Capacity:      f.size,
		TotalRecorded: total,
		DroppedSpans:  f.tracer.Dropped(),
		Recent:        make([]spanJSON, 0, len(recent)),
		Open:          []spanJSON{},
	}
	for _, sp := range recent {
		dump.Recent = append(dump.Recent, spanWire(sp))
	}
	for _, sp := range f.tracer.OpenSpans() {
		dump.Open = append(dump.Open, spanWire(sp))
	}
	return dump
}

// WriteJSON writes the snapshot as indented JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}

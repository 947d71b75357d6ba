package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestFlightRecorderRingBounds(t *testing.T) {
	tr := NewTracer(nil)
	f := NewFlightRecorder(tr, 4)
	for i := 0; i < 10; i++ {
		tr.Event("c", "k", "%d", i)
	}
	recent := f.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(recent))
	}
	for i, sp := range recent {
		if want := fmt.Sprintf("%d", 6+i); sp.Detail != want {
			t.Fatalf("recent[%d] = %q, want %q (oldest first)", i, sp.Detail, want)
		}
	}
	dump := f.Snapshot()
	if dump.TotalRecorded != 10 || dump.Capacity != 4 {
		t.Fatalf("dump totals %+v", dump)
	}
}

func TestFlightDumpCarriesOpenAndDropped(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetLimit(2)
	f := NewFlightRecorder(tr, 8)
	sp := tr.StartTrace(NewTraceID(1, 1), "sched", "job")
	for i := 0; i < 5; i++ {
		tr.Event("c", "k", "%d", i)
	}
	dump := f.Snapshot()
	if dump.DroppedSpans != 3 {
		t.Fatalf("dropped = %d, want 3", dump.DroppedSpans)
	}
	if len(dump.Open) != 1 || dump.Open[0].Name != "job" {
		t.Fatalf("open = %+v, want the in-flight root", dump.Open)
	}
	if len(dump.Recent) != 2 || dump.Recent[1].Detail != "4" || dump.TotalRecorded != 5 {
		t.Fatalf("recent = %+v of %d recorded, want the 2 spans retention kept, of 5", dump.Recent, dump.TotalRecorded)
	}
	sp.End()

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
}

func TestNilFlightRecorderNoOps(t *testing.T) {
	var f *FlightRecorder
	if f.Recent() != nil {
		t.Fatal("nil recorder Recent must be nil")
	}
	if err := f.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if NewFlightRecorder(nil, 4) != nil {
		t.Fatal("recorder on a nil tracer must be nil")
	}
}

// Missing observability components must answer 503, never an empty 200
// a scraper would read as "healthy but idle".
func TestHandlersReturn503WhenDisabled(t *testing.T) {
	for name, h := range map[string]http.Handler{
		"metrics": (*Registry)(nil).Handler(),
		"flight":  (*FlightRecorder)(nil).FlightHandler(),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s handler on nil component returned %d, want 503", name, rec.Code)
		}
	}

	// A full observer mux serves both endpoints for real.
	o := NewObserver(nil)
	o.Reg().Counter("x_total", "x").Inc()
	o.Trace().Event("c", "k", "hello")
	srv := httptest.NewServer(o.Mux())
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/flight"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestFlightRecentIsTailOfSpans: whatever a tracer is put through, the
// flight recorder shows the newest DefaultFlightSize spans the tracer
// retains — fewer under a retention limit below the flight size — and
// has counted every span ever finished.
func TestFlightRecentIsTailOfSpans(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var now time.Duration
		tr := NewTracer(func() time.Duration { return now })
		f := NewFlightRecorder(tr, 0)
		var open []*Span
		check := func(step int) {
			t.Helper()
			spans := tr.Spans()
			want := spans[max(0, len(spans)-DefaultFlightSize):]
			if got := f.Recent(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Recent() holds %d spans and is not the newest %d of the %d retained",
					seed, step, len(got), len(want), len(spans))
			}
			if dump := f.Snapshot(); dump.TotalRecorded != uint64(len(spans))+tr.Dropped() || dump.Capacity != DefaultFlightSize {
				t.Fatalf("seed %d step %d: dump counts %d recorded at capacity %d, tracer retains %d and dropped %d",
					seed, step, dump.TotalRecorded, dump.Capacity, len(spans), tr.Dropped())
			}
		}
		for step := 0; step < 3000; step++ {
			now += time.Duration(rng.Intn(1000)) * time.Millisecond
			switch op := rng.Intn(100); {
			case op < 40:
				tr.Event("c", "event", "%d", step)
			case op < 60:
				open = append(open, tr.StartTrace(NewTraceID(uint64(seed), uint64(step)), "sched", "job"))
			case op < 75 && len(open) > 0:
				open = append(open, open[rng.Intn(len(open))].Child("sched", "lease"))
			case op < 90 && len(open) > 0:
				i := rng.Intn(len(open))
				open[i].EndDetail(fmt.Sprint(step))
				open = append(open[:i], open[i+1:]...)
			case op < 96:
				child := NewTracer(func() time.Duration { return now })
				for i, n := 0, rng.Intn(1500); i < n; i++ {
					child.Event("task", "cell", "%d/%d", step, i)
				}
				tr.Absorb(child.Spans())
			case op < 98:
				tr.SetLimit([]int{0, 100, DefaultFlightSize, DefaultFlightSize + 1, 3 * DefaultFlightSize}[rng.Intn(5)])
			}
			if step%97 == 0 {
				check(step)
			}
		}
		check(3000)
		if total := uint64(tr.Len()) + tr.Dropped(); total <= 2*DefaultFlightSize {
			t.Fatalf("seed %d: the program finished only %d spans, not well past the flight size", seed, total)
		}
	}
}

package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRegistryMergeKinds(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("jobs_total", "jobs", L("scheme", "proteus")).Add(2)
	dst.Gauge("footprint_cores", "cores").Set(10)
	dst.Histogram("cost_dollars", "cost", []float64{1, 10}).Observe(0.5)

	src := NewRegistry()
	src.Counter("jobs_total", "jobs", L("scheme", "proteus")).Add(3)
	src.Counter("jobs_total", "jobs", L("scheme", "ckpt")).Add(1) // new series
	src.Gauge("footprint_cores", "cores").Set(7)
	src.Histogram("cost_dollars", "cost", []float64{1, 10}).Observe(5)
	src.Counter("evictions_total", "evictions").Add(4) // new family

	dst.Merge(src)

	if v := dst.Counter("jobs_total", "", L("scheme", "proteus")).Value(); v != 5 {
		t.Fatalf("counter merged to %v, want 5", v)
	}
	if v := dst.Counter("jobs_total", "", L("scheme", "ckpt")).Value(); v != 1 {
		t.Fatalf("new series merged to %v, want 1", v)
	}
	if v := dst.Counter("evictions_total", "").Value(); v != 4 {
		t.Fatalf("new family merged to %v, want 4", v)
	}
	// Gauges are last-writer-wins in merge order.
	if v := dst.Gauge("footprint_cores", "").Value(); v != 7 {
		t.Fatalf("gauge merged to %v, want 7", v)
	}
	h := dst.Histogram("cost_dollars", "", []float64{1, 10})
	if h.Count() != 2 || h.Sum() != 5.5 {
		t.Fatalf("histogram merged to count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestRegistryMergeNilSafe(t *testing.T) {
	var nilReg *Registry
	nilReg.Merge(NewRegistry()) // must not panic
	r := NewRegistry()
	r.Merge(nil)
	r.ImportSnapshot(nil)
}

func TestTracerAbsorbPreservesOrder(t *testing.T) {
	child := NewTracer(func() time.Duration { return 42 * time.Second })
	child.Event("market", "grant", "a")
	child.Event("bidbrain", "acquire", "b")

	parent := NewTracer(nil)
	parent.Event("market", "grant", "before")
	parent.Absorb(child.Spans())

	spans := parent.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	if spans[1].Detail != "a" || spans[2].Detail != "b" {
		t.Fatalf("absorbed out of order: %+v", spans)
	}
	if spans[1].Start != 42*time.Second {
		t.Fatalf("absorbed span lost its timestamp: %v", spans[1].Start)
	}
}

// Shared-observer serial aggregation and per-task observers merged in
// task order must export the same text.
func TestObserverMergeMatchesSharedSerial(t *testing.T) {
	task := func(o *Observer, i int) {
		o.Reg().Counter("runs_total", "runs").Inc()
		o.Reg().Histogram("cost", "c", []float64{1, 5, 25}).Observe(float64(i))
		o.Reg().Gauge("last_sample", "g").Set(float64(i))
		o.Trace().Event("exp", "sample", "sample %d", i)
	}

	shared := NewObserver(nil)
	for i := 0; i < 6; i++ {
		task(shared, i)
	}

	merged := NewObserver(nil)
	children := make([]*Observer, 6)
	for i := range children {
		children[i] = NewObserver(nil)
		task(children[i], i)
	}
	for _, c := range children {
		merged.Merge(c)
	}

	var a, b strings.Builder
	if err := shared.Reg().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Reg().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged export differs from serial:\n--- serial ---\n%s--- merged ---\n%s", a.String(), b.String())
	}
	if !reflect.DeepEqual(shared.Trace().Spans(), merged.Trace().Spans()) {
		t.Fatal("merged span stream differs from serial")
	}
}

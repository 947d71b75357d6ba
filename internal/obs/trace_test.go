package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestTracerEventsAndSpans(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })

	tr.Event("market", "warning", "allocation %d", 3)
	now = 2 * time.Second
	sp := tr.Start("agileml", "incorporate")
	now = 5 * time.Second
	sp.Detailf("%d machines", 8).End()
	sp.End() // idempotent

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Start != spans[0].End {
		t.Fatalf("event not instant: %v..%v", spans[0].Start, spans[0].End)
	}
	if spans[0].Detail != "allocation 3" {
		t.Fatalf("detail = %q", spans[0].Detail)
	}
	if spans[1].Start != 2*time.Second || spans[1].End != 5*time.Second {
		t.Fatalf("span times = %v..%v", spans[1].Start, spans[1].End)
	}
	if got := tr.Filter("agileml", ""); len(got) != 1 {
		t.Fatalf("filter agileml = %d spans", len(got))
	}
}

func TestTracerLimitDropsOldest(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetLimit(3)
	for i := 0; i < 10; i++ {
		tr.Event("x", "k", "%d", i)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", tr.Dropped())
	}
	if got := tr.Spans()[0].Detail; got != "7" {
		t.Fatalf("oldest retained = %q, want 7", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })
	now = 90 * time.Second
	tr.Event("agileml", "stage-transition", "stage 1 -> stage 2")

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no JSONL output")
	}
	var obj map[string]any
	if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
		t.Fatalf("invalid JSON line: %v", err)
	}
	if obj["type"] != "span" || obj["component"] != "agileml" || obj["name"] != "stage-transition" {
		t.Fatalf("unexpected line: %v", obj)
	}
	if obj["start_seconds"].(float64) != 90 {
		t.Fatalf("start_seconds = %v", obj["start_seconds"])
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.Event("a", "b", "c")
	sp := tr.Start("a", "b")
	sp.Detailf("x").End()
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must be empty")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTracing exercises parallel span emission into a bounded
// buffer, with batches absorbed from task-local tracers alongside (run
// with -race): every span is either retained or counted as dropped.
func TestConcurrentTracing(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetLimit(64)
	const workers, perWorker, batches, perBatch = 8, 500, 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Start("c", "op").Detailf("%d-%d", w, i).End()
			}
		}(w)
	}
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			child := NewTracer(nil)
			for i := 0; i < perBatch; i++ {
				child.Event("task", "op", "b%d-%d", b, i)
			}
			tr.Absorb(child.Spans())
		}(b)
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Fatalf("retained = %d, want 64", tr.Len())
	}
	if total := workers*perWorker + batches*perBatch; tr.Dropped() != uint64(total-64) {
		t.Fatalf("dropped = %d of %d finished spans, want all but the 64 retained", tr.Dropped(), total)
	}
}

package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// refStore is the obvious span store — one slice, retention by
// re-slicing — that the tracer's store must be indistinguishable from.
type refStore struct {
	spans   []SpanData
	limit   int
	dropped uint64
	drops   []int // every OnDrop amount, in order
}

func (r *refStore) finish(sp SpanData) {
	r.spans = append(r.spans, sp)
	r.truncate()
}

func (r *refStore) setLimit(n int) {
	r.limit = n
	r.truncate()
}

func (r *refStore) truncate() {
	if r.limit > 0 && len(r.spans) > r.limit {
		over := len(r.spans) - r.limit
		r.dropped += uint64(over)
		r.spans = r.spans[over:]
		r.drops = append(r.drops, over)
	}
}

// trace is TraceSpans: nil for the zero (untraced) ID by contract.
func (r *refStore) trace(id uint64) []SpanData {
	if id == 0 {
		return nil
	}
	var out []SpanData
	for _, sp := range r.spans {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return out
}

func sameSpans(t *testing.T, what string, got, want []SpanData) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d spans, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: span %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// storePair drives a tracer and the reference with the same operations.
type storePair struct {
	t     *testing.T
	tr    *Tracer
	ref   *refStore
	drops []int
	next  int
	kinds int // how many of spanKinds spans draw from so far
}

// spanKinds are the (Component, Name) pairs the store interns. Pairs
// share a component or a name with others, so a store that keyed on
// either alone would mix them up.
var spanKinds = [][2]string{
	{"c", "n"}, {"c", "m"}, {"d", "n"}, {"market", "hour"},
	{"sched", "lease"}, {"sched", "job"}, {"", ""}, {"", "n"}, {"c", ""},
}

func newStorePair(t *testing.T) *storePair {
	p := &storePair{t: t, tr: NewTracer(nil), ref: &refStore{}, kinds: 1}
	p.tr.OnDrop(func(n int) { p.drops = append(p.drops, n) })
	return p
}

// newKind lets spans draw from one more pair, so the next span is the
// first the store sees of it.
func (p *storePair) newKind() {
	if p.kinds < len(spanKinds) {
		p.kinds++
	}
}

// chunkEdge reports whether the i-th span a store is handed (from 0)
// lands on the first or the last slot of its chunk, given the chunk
// sizes push grows by.
func chunkEdge(i int) bool {
	for size := firstChunk; ; size = min(2*size, maxChunk) {
		if i < size {
			return i == 0 || i == size-1
		}
		i -= size
	}
}

// span makes the next distinguishable span, spread over five traces
// (trace 0 is the flat, untraced one) and the pairs in use so far — every
// third span takes the newest, so a pair appears as soon as newKind adds
// it — with every other field varied too: Wall, Open, and an empty and a
// set Detail, drawn from a few values that recur in every chunk, from
// values that each last 100 spans and so straddle chunk boundaries, or
// new on this span alone; nil and comparable non-nil Attrs, always set
// on the first and the last slot of a chunk.
func (p *storePair) span() SpanData {
	edge := chunkEdge(p.next)
	p.next++
	kind := spanKinds[p.kinds-1]
	if p.next%3 != 0 {
		kind = spanKinds[p.next%p.kinds]
	}
	sp := SpanData{
		TraceID:   uint64(p.next % 5),
		SpanID:    uint64(p.next),
		ParentID:  uint64(p.next % 11),
		Component: kind[0],
		Name:      kind[1],
		Start:     time.Duration(p.next),
		End:       time.Duration(p.next + p.next%2),
		Wall:      time.Duration(p.next % 13),
		Open:      p.next%4 == 0,
	}
	switch p.next % 6 {
	case 1, 2:
		sp.Detail = fmt.Sprint("d", p.next%7)
	case 3, 4:
		sp.Detail = fmt.Sprint("w", p.next/100)
	case 5:
		sp.Detail = fmt.Sprint("u", p.next)
	}
	switch {
	case edge || p.next%5 == 1:
		sp.Attrs = p.next
	case p.next%5 == 3:
		sp.Attrs = fmt.Sprint("a", p.next%4)
	}
	return sp
}

// absorb hands the tracer a batch of n spans, a pair first seen half
// way through it.
func (p *storePair) absorb(n int) {
	batch := make([]SpanData, n)
	for i := range batch {
		if i == n/2 {
			p.newKind()
		}
		batch[i] = p.span()
		p.ref.finish(batch[i])
	}
	p.tr.Absorb(batch)
}

// setLimit sets the retention limit, then lets spans draw from a pair
// first seen after whatever it truncated.
func (p *storePair) setLimit(n int) {
	p.tr.SetLimit(n)
	p.ref.setLimit(n)
	p.newKind()
}

func (p *storePair) check(what string) {
	p.t.Helper()
	if got, want := p.tr.Len(), len(p.ref.spans); got != want {
		p.t.Fatalf("%s: Len = %d, want %d", what, got, want)
	}
	if got, want := p.tr.Dropped(), p.ref.dropped; got != want {
		p.t.Fatalf("%s: Dropped = %d, want %d", what, got, want)
	}
	if len(p.drops) != len(p.ref.drops) {
		p.t.Fatalf("%s: %d OnDrop calls, want %d", what, len(p.drops), len(p.ref.drops))
	}
	for i := range p.drops {
		if p.drops[i] != p.ref.drops[i] {
			p.t.Fatalf("%s: OnDrop call %d = %d, want %d", what, i, p.drops[i], p.ref.drops[i])
		}
	}
	sameSpans(p.t, what+": Spans", p.tr.Spans(), p.ref.spans)
}

// TestSpanStoreMatchesSliceReference is the differential test of the
// tracer's retained-span store: 10k random finish / SetLimit / Spans /
// Len / TraceSpans / Absorb operations against a plain []SpanData.
func TestSpanStoreMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := newStorePair(t)
	limits := []int{0, -1, 1, 2, 63, 64, 65, 100, 1000, 4095, 4096, 4097, 9000}
	for op := 0; op < 10000; op++ {
		switch k := rng.Intn(100); {
		case k < 70:
			sp := p.span()
			p.ref.finish(sp)
			p.tr.Absorb([]SpanData{sp})
		case k < 80:
			p.absorb(rng.Intn(300))
		case k < 83:
			p.setLimit(limits[rng.Intn(len(limits))])
		case k < 90:
			if got, want := p.tr.Len(), len(p.ref.spans); got != want {
				t.Fatalf("op %d: Len = %d, want %d", op, got, want)
			}
		case k < 95:
			id := uint64(rng.Intn(6))
			sameSpans(t, "TraceSpans", p.tr.TraceSpans(id), p.ref.trace(id))
		default:
			p.check("random op")
		}
	}
	p.check("end")
}

// TestSpanStoreBoundarySizes fills to, and truncates to, the sizes on
// either side of the store's first and largest chunk.
func TestSpanStoreBoundarySizes(t *testing.T) {
	sizes := []int{1, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 8191, 8192, 8193}
	for _, n := range sizes {
		p := newStorePair(t)
		p.absorb(n)
		p.check("filled")
		for _, id := range []uint64{0, 1, 4} {
			sameSpans(t, "TraceSpans", p.tr.TraceSpans(id), p.ref.trace(id))
		}
		for _, limit := range []int{1, 63, 64, 65, 4095, 4096, 4097} {
			p.setLimit(limit)
			p.check("lowered")
			p.absorb(3)
			p.check("lowered, then three more")
			p.setLimit(0)
			p.absorb(n)
			p.check("cleared and refilled")
		}
	}
}

// TestSpanStoreLimitMidStream raises, lowers and clears the limit while
// spans keep finishing.
func TestSpanStoreLimitMidStream(t *testing.T) {
	p := newStorePair(t)
	for _, limit := range []int{100, 5000, 64, 0, 4096, 1, 65, 10000, 3} {
		p.setLimit(limit)
		p.check("limit set")
		p.absorb(4500)
		p.check("after 4500 more")
	}
}

// TestSpanStoreConcurrent runs Child / End / TraceSpans / SetLimit / Spans
// from several goroutines; under -race it checks the store's locking,
// and at the end every finished span is either retained or counted as
// dropped.
func TestSpanStoreConcurrent(t *testing.T) {
	tr := NewTracer(nil)
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := tr.StartTrace(NewTraceID(1, uint64(w)), "t", "root")
			for i := 0; i < perWorker; i++ {
				c := root.Child("t", "child")
				c.Detailf("%d", i)
				c.End()
			}
			root.End()
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		limits := []int{0, 64, 5000, 1, 4097}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.SetLimit(limits[i%len(limits)])
			tr.TraceSpans(NewTraceID(1, uint64(i%workers)))
			tr.Spans()
			tr.Len()
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	tr.SetLimit(0)
	if got, want := uint64(tr.Len())+tr.Dropped(), uint64(workers*(perWorker+1)); got != want {
		t.Fatalf("retained + dropped = %d, want %d", got, want)
	}
}

// TestSpanLimitRetentionIsConstantTime is the -trace-limit regression:
// once the limit was reached every finished span used to copy all the
// retained ones. A finished span now allocates less than once (a chunk
// per 4,096) whatever the limit, so the bytes it moves cannot scale
// with it — and they are one stored record's worth, so a store that
// went back to a wider record (a string header or an Attrs interface in
// it) fails here too.
func TestSpanLimitRetentionIsConstantTime(t *testing.T) {
	perSpan := func(limit int) (allocs float64, bytes uint64) {
		tr := NewTracer(nil)
		tr.SetLimit(limit)
		batch := []SpanData{{Component: "c", Name: "n"}}
		for i := 0; i < limit+maxChunk; i++ {
			tr.Absorb(batch)
		}
		const runs = 2 * maxChunk
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { tr.Absorb(batch) })
		runtime.ReadMemStats(&after)
		if tr.Len() != limit {
			t.Fatalf("limit %d: Len = %d", limit, tr.Len())
		}
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	const recordBytes = 56 // a storedSpan on a 64-bit platform
	for _, limit := range []int{100, 10000, 100000} {
		allocs, bytes := perSpan(limit)
		if allocs >= 1 {
			t.Errorf("limit %d: %v allocs per finished span, want < 1", limit, allocs)
		}
		if bytes > recordBytes {
			t.Errorf("limit %d: %d bytes allocated per finished span, want at most %d (one stored record) whatever the limit",
				limit, bytes, recordBytes)
		}
	}
}

// TestStoredSpanHoldsNoPointers holds the stored record to plain words.
// A chunk of records is then allocated without pointers, so the GC
// never scans the retained spans, and nothing a span was handed (a
// rendered detail, an Attrs value) is kept alive by the record itself.
func TestStoredSpanHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Interface, reflect.Pointer, reflect.UnsafePointer,
			reflect.Slice, reflect.Map, reflect.Func, reflect.Chan:
			t.Errorf("%s is of kind %s: a storedSpan must hold no pointers", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		}
	}
	walk("storedSpan", reflect.TypeOf(storedSpan{}))
}

// retainedPerSpan finishes n lease-shaped spans on a tracer retaining
// at most limit (0 = all), the i-th with detail(i), and returns the heap
// the tracer still holds afterwards, per span finished.
func retainedPerSpan(limit, n int, detail func(i int) string) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTracer(nil)
	tr.SetLimit(limit)
	for i := 0; i < n; i++ {
		tr.Start("sched", "lease").EndDetail(detail(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestSpanStoreRetainedBytes bounds what a retained span costs after a
// collection. Lease details are rendered fresh for every span from a few
// distinct values; a store that kept each rendered string (a 16-byte
// header in the record plus the bytes) holds about 88 + 32 bytes a span,
// one that keeps a chunk's distinct details once holds the 56-byte
// record and little more. Under a retention limit the held heap must
// stay bounded by the limit and a chunk or two even when every detail
// is new: a detail table that outlived the chunks it serves would grow
// with every span ever finished.
func TestSpanStoreRetainedBytes(t *testing.T) {
	t.Run("recurring details", func(t *testing.T) {
		const n, perSpan = 50000, 64
		got := retainedPerSpan(0, n, func(i int) string {
			return fmt.Sprintf("alloc %d: 16 cores held %v", i%40, time.Duration(i%3+1)*time.Hour)
		})
		if got > perSpan {
			t.Errorf("%d spans whose details take 40 values retain %.1f bytes each, want at most %d", n, got, perSpan)
		}
	})
	t.Run("limit, every detail new", func(t *testing.T) {
		const n, limit, perSlot = 100000, 100, 256
		got := retainedPerSpan(limit, n, func(i int) string {
			return fmt.Sprintf("alloc %d: 16 cores held 1h0m0s", i)
		}) * n
		if bound := float64((limit + 2*maxChunk) * perSlot); got > bound {
			t.Errorf("limit %d: %d spans with distinct details retain %.0f bytes, want at most %.0f (the limit and two chunks)", limit, n, got, bound)
		}
	})
}

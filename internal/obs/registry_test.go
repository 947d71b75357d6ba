package obs

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	reg := NewRegistry()

	c := reg.Counter("test_events_total", "events", L("kind", "a"))
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	c.Add(-1) // monotone: ignored
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter after negative add = %v, want 3.5", got)
	}

	g := reg.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}

	h := reg.Histogram("test_latency_seconds", "latency", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	if h.Sum() != 55.5 {
		t.Fatalf("hist sum = %v, want 55.5", h.Sum())
	}

	snaps := reg.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("families = %d, want 3", len(snaps))
	}
	// Sorted by name: depth, events, latency.
	if snaps[0].Name != "test_depth" || snaps[1].Name != "test_events_total" {
		t.Fatalf("unexpected family order: %q, %q", snaps[0].Name, snaps[1].Name)
	}
	hist := snaps[2]
	if hist.Series[0].BucketCounts[0] != 1 || hist.Series[0].BucketCounts[1] != 2 {
		t.Fatalf("bucket counts = %v", hist.Series[0].BucketCounts)
	}
}

func TestSameSeriesReturned(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", L("t", "1"))
	b := reg.Counter("x_total", "x", L("t", "1"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := reg.Counter("x_total", "x", L("t", "2"))
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("y_total", "y", L("a", "1"), L("b", "2"))
	b := reg.Counter("y_total", "y", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
}

// TestLabelOrderCanonicalAnySize permutes label sets on both sides of
// getChild's four-label stack buffer: every order names one series, and
// the series exports its labels sorted by key.
func TestLabelOrderCanonicalAnySize(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7} {
		reg := NewRegistry()
		labels := make([]Label, n)
		for i := range labels {
			labels[i] = L(string(rune('a'+i)), strconv.Itoa(i))
		}
		want := reg.Counter("p_total", "p", labels...)
		rng := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 50; trial++ {
			rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
			if reg.Counter("p_total", "p", labels...) != want {
				t.Fatalf("%d labels: order %v named a different series", n, labels)
			}
		}
		series := reg.Snapshot()[0].Series
		if len(series) != 1 {
			t.Fatalf("%d labels: %d series, want 1", n, len(series))
		}
		for i, l := range series[0].Labels {
			if l != L(string(rune('a'+i)), strconv.Itoa(i)) {
				t.Fatalf("%d labels: exported labels %v not sorted by key", n, series[0].Labels)
			}
		}
	}
}

// TestSeriesHitAllocatesNothing pins the registry's hit path — what every
// un-memoised call site pays per observation — at zero allocations.
func TestSeriesHitAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	buckets := []float64{1, 10}
	hits := map[string]func(){
		"counter, no labels": func() { reg.Counter("c0_total", "c").Inc() },
		"gauge, one label":   func() { reg.Gauge("g1", "g", L("type", "c4.xlarge")).Set(1) },
		"counter, two labels": func() {
			reg.Counter("c2_total", "c", L("kind", "spot"), L("type", "c4.xlarge")).Inc()
		},
		"counter, two labels out of order": func() {
			reg.Counter("c2_total", "c", L("type", "c4.xlarge"), L("kind", "spot")).Inc()
		},
		"histogram, one label": func() { reg.Histogram("h1", "h", buckets, L("k", "v")).Observe(2) },
	}
	for name, hit := range hits {
		hit() // the miss that creates the series
		if allocs := testing.AllocsPerRun(100, hit); allocs != 0 {
			t.Errorf("%s: %v allocs per hit, want 0", name, allocs)
		}
	}
	if got := len(reg.Snapshot()); got != 4 {
		t.Fatalf("%d families, want 4", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total", "z")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("z_total", "z")
}

func TestNilRegistryAndInstrumentsNoOp(t *testing.T) {
	var reg *Registry
	reg.SetClock(nil)
	c := reg.Counter("a_total", "a")
	c.Inc()
	g := reg.Gauge("b", "b")
	g.Set(1)
	h := reg.Histogram("c", "c", nil)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

// TestConcurrentCounterIncrements exercises parallel Add on one series
// (run with -race).
func TestConcurrentCounterIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "concurrent increments")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
}

// TestConcurrentHistogramObserves exercises parallel Observe plus
// concurrent series creation (run with -race).
func TestConcurrentHistogramObserves(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.Histogram("conc_hist", "concurrent observes", []float64{0.5, 1},
				L("worker", fmt.Sprintf("%d", w%2)))
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%2) + 0.25)
			}
		}(w)
	}
	wg.Wait()
	total := uint64(0)
	for _, fam := range reg.Snapshot() {
		for _, s := range fam.Series {
			total += s.Count
		}
	}
	if total != workers*perWorker {
		t.Fatalf("observations = %d, want %d", total, workers*perWorker)
	}
}

// TestSnapshotDuringWrites takes snapshots while writers mutate every
// instrument kind (run with -race).
func TestSnapshotDuringWrites(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("sw_total", "c", L("w", fmt.Sprintf("%d", w)))
			g := reg.Gauge("sw_gauge", "g")
			h := reg.Histogram("sw_hist", "h", nil)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 10))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snaps := reg.Snapshot()
		for _, fam := range snaps {
			if fam.Name == "" {
				t.Fatal("empty family name in snapshot")
			}
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MetricKind distinguishes the three instrument families.
type MetricKind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter MetricKind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

// String implements fmt.Stringer (Prometheus TYPE names).
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; create registries with NewRegistry. All methods
// are safe for concurrent use, and all methods on a nil *Registry are
// no-ops returning nil instruments.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	clock    func() time.Duration
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// SetClock installs the virtual-time source used to stamp snapshots and
// JSONL exports (typically sim.Engine.Now). A nil clock stamps zero.
func (r *Registry) SetClock(now func() time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = now
}

// now reads the registry clock.
func (r *Registry) now() time.Duration {
	r.mu.RLock()
	clock := r.clock
	r.mu.RUnlock()
	if clock == nil {
		return 0
	}
	return clock()
}

// family is one named metric with a fixed kind and help string, holding
// one child series per distinct label set.
type family struct {
	name    string
	help    string
	kind    MetricKind
	buckets []float64 // histogram upper bounds, ascending

	mu     sync.Mutex
	series map[string]*child
}

// child is one labeled series within a family.
type child struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// getFamily returns the named family, creating it on first use. A name
// reused with a different kind panics: that is a programming error that
// would silently corrupt exports if tolerated.
func (r *Registry) getFamily(name, help string, kind MetricKind, buckets []float64) *family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		f, ok = r.families[name]
		if !ok {
			f = &family{name: name, help: help, kind: kind, buckets: buckets,
				series: make(map[string]*child)}
			r.families[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

// getChild returns the series for the label set, creating it on first
// use. A hit allocates nothing: the labels are ordered by key in a stack
// copy (an insertion sort, which does nothing below two labels), the
// canonical map key is built in a stack buffer, and the lookup converts
// it in place. Only a miss pays for the key string and the label copy.
func (f *family) getChild(labels []Label) *child {
	var lbuf [4]Label
	sorted := append(lbuf[:0], labels...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Key < sorted[j-1].Key; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var kbuf [128]byte
	sig := kbuf[:0]
	for _, l := range sorted {
		sig = append(sig, l.Key...)
		sig = append(sig, 0)
		sig = append(sig, l.Value...)
		sig = append(sig, 0)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.series[string(sig)]
	if !ok {
		c = &child{labels: append([]Label(nil), sorted...)}
		switch f.kind {
		case KindCounter:
			c.counter = &Counter{}
		case KindGauge:
			c.gauge = &Gauge{}
		case KindHistogram:
			c.hist = newHistogram(f.buckets)
		}
		f.series[string(sig)] = c
	}
	return c
}

// Counter returns the counter series for the name and label set,
// registering the family on first use. Help is taken from the first
// registration. Nil registries return a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, KindCounter, nil).getChild(labels).counter
}

// Gauge returns the gauge series for the name and label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, KindGauge, nil).getChild(labels).gauge
}

// Histogram returns the histogram series for the name and label set.
// Buckets are upper bounds in ascending order; they are fixed at family
// registration and later calls may pass nil. Nil buckets on first
// registration use DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets()
	}
	return r.getFamily(name, help, KindHistogram, buckets).getChild(labels).hist
}

// DefBuckets returns the default histogram buckets: exponential from
// 1ms-scale to hour-scale, suitable for both seconds and dollars.
func DefBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000}
}

// Counter is a monotonically increasing float64. Nil counters no-op.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is an instantaneous float64 value. Nil gauges no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the value by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Exemplar ties one observed value to the trace that produced it, in
// the OpenMetrics sense: each histogram bucket remembers the last
// traced sample that landed in it, so a spike in a latency bucket links
// straight to a causal trace tree. A zero TraceID means "no exemplar".
type Exemplar struct {
	Value   float64
	TraceID uint64
}

// Histogram is a fixed-bucket distribution. Nil histograms no-op.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // one per bucket
	// exemplars has one slot per bucket plus a final +Inf overflow slot;
	// each holds the last traced observation that fell in that bucket
	// (non-cumulative, unlike counts).
	exemplars []Exemplar
	sum       float64
	count     uint64
}

func newHistogram(buckets []float64) *Histogram {
	bs := make([]float64, len(buckets))
	copy(bs, buckets)
	sort.Float64s(bs)
	return &Histogram{buckets: bs, counts: make([]uint64, len(bs)),
		exemplars: make([]Exemplar, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.ObserveEx(v, 0)
}

// ObserveEx records one sample attributed to a trace; a zero traceID is
// a plain Observe. The exemplar replaces the previous one in the bucket
// the sample falls into (the +Inf slot for samples above every bound).
func (h *Histogram) ObserveEx(v float64, traceID uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.count++
	slot := len(h.buckets)
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if v <= h.buckets[i] {
			h.counts[i]++
			slot = i
		} else {
			break
		}
	}
	if traceID != 0 {
		h.exemplars[slot] = Exemplar{Value: v, TraceID: traceID}
	}
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// within the bucket that contains it — the same estimate a
// histogram_quantile() PromQL query would give. Returns 0 with no
// observations; the highest finite bound when the quantile lands in the
// +Inf bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || len(h.buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	prevCount, prevBound := uint64(0), 0.0
	for i, ub := range h.buckets {
		if float64(h.counts[i]) >= rank {
			inBucket := h.counts[i] - prevCount
			if inBucket == 0 {
				return ub
			}
			lower := prevBound
			if i == 0 {
				lower = 0
			}
			return lower + (ub-lower)*(rank-float64(prevCount))/float64(inBucket)
		}
		prevCount, prevBound = h.counts[i], ub
	}
	return h.buckets[len(h.buckets)-1]
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// absorb folds an exported histogram state into this one. Bucket
// layouts must match; the caller (ImportSnapshot) verifies that.
// Incoming exemplars overwrite local ones slot-by-slot (absorbing
// per-task snapshots in task order thus leaves the same "last traced
// sample" a serial run would have).
func (h *Histogram) absorb(count uint64, sum float64, bucketCounts []uint64, exemplars []Exemplar) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += sum
	h.count += count
	for i := range bucketCounts {
		h.counts[i] += bucketCounts[i]
	}
	for i := range exemplars {
		if i < len(h.exemplars) && exemplars[i].TraceID != 0 {
			h.exemplars[i] = exemplars[i]
		}
	}
}

// Merge folds every series of from into this registry: counters add,
// gauges take from's value (last-writer-wins, matching what a serial
// run's later tasks would have done), histograms add counts, sums, and
// buckets. Families and series absent here are created. Merging the
// per-task registries of a fan-out in task order therefore yields the
// same exported values regardless of how many workers ran the tasks.
func (r *Registry) Merge(from *Registry) {
	if r == nil || from == nil {
		return
	}
	r.ImportSnapshot(from.Snapshot())
}

// ImportSnapshot merges an exported snapshot (see Merge for the
// per-kind semantics). A family that exists here with a different kind
// or histogram bucket layout panics: those are programming errors that
// would silently corrupt exports if tolerated.
func (r *Registry) ImportSnapshot(fams []FamilySnapshot) {
	if r == nil {
		return
	}
	for _, fam := range fams {
		f := r.getFamily(fam.Name, fam.Help, fam.Kind, fam.Buckets)
		if fam.Kind == KindHistogram && len(f.buckets) != len(fam.Buckets) {
			panic(fmt.Sprintf("obs: metric %q bucket layouts differ (%d vs %d)",
				fam.Name, len(f.buckets), len(fam.Buckets)))
		}
		for _, s := range fam.Series {
			c := f.getChild(s.Labels)
			switch fam.Kind {
			case KindCounter:
				c.counter.Add(s.Value)
			case KindGauge:
				c.gauge.Set(s.Value)
			case KindHistogram:
				c.hist.absorb(s.Count, s.Sum, s.BucketCounts, s.Exemplars)
			}
		}
	}
}

// SeriesSnapshot is one labeled series at snapshot time.
type SeriesSnapshot struct {
	Labels []Label
	// Value holds counters and gauges.
	Value float64
	// Histogram fields; BucketCounts is cumulative per family bucket.
	Count        uint64
	Sum          float64
	BucketCounts []uint64
	// Exemplars has one slot per bucket plus a trailing +Inf slot; a
	// zero TraceID marks an empty slot.
	Exemplars []Exemplar
}

// FamilySnapshot is one metric family at snapshot time.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    MetricKind
	Buckets []float64
	Series  []SeriesSnapshot
}

// Snapshot captures every family and series, sorted by family name and
// label signature, so exports are deterministic. It is safe to call
// concurrently with writes; each series is read atomically (counters,
// gauges) or under its lock (histograms).
func (r *Registry) Snapshot() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Buckets: f.buckets}
		f.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			c := f.series[sig]
			ss := SeriesSnapshot{Labels: c.labels}
			switch f.kind {
			case KindCounter:
				ss.Value = c.counter.Value()
			case KindGauge:
				ss.Value = c.gauge.Value()
			case KindHistogram:
				c.hist.mu.Lock()
				ss.Count = c.hist.count
				ss.Sum = c.hist.sum
				ss.BucketCounts = append([]uint64(nil), c.hist.counts...)
				ss.Exemplars = append([]Exemplar(nil), c.hist.exemplars...)
				c.hist.mu.Unlock()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.Unlock()
		out = append(out, fs)
	}
	return out
}

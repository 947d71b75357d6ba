// Package market simulates an EC2-style dynamic resource market on a
// discrete-event engine.
//
// It implements the spot-market rules the paper's BidBrain exploits (§2.2):
//
//   - Customers bid per instance type; a granted allocation is billed at the
//     market price (not the bid), charged at the start of each instance-hour.
//   - An allocation is evicted when the market price rises above its bid,
//     with a two-minute warning first. The charge for the in-progress hour
//     is refunded on eviction ("free compute").
//   - Once granted, the bid price cannot be changed.
//   - On-demand instances are always available at a fixed hourly price and
//     are never evicted.
//
// Prices come from trace.Set histories (synthetic or replayed), so entire
// multi-month studies run deterministically in virtual time.
package market

import (
	"fmt"
	"sort"
	"time"

	"proteus/internal/obs"
	"proteus/internal/sim"
	"proteus/internal/trace"
)

// InstanceType describes one machine class in the catalog.
type InstanceType struct {
	Name     string
	VCPUs    int
	MemoryGB float64
	OnDemand float64 // dollars per instance-hour
}

// DefaultCatalog returns the instance types used throughout the paper's
// evaluation (§6.1), with their 2016 us-east-1 on-demand prices.
func DefaultCatalog() []InstanceType {
	return []InstanceType{
		{Name: "c4.xlarge", VCPUs: 4, MemoryGB: 7.5, OnDemand: 0.209},
		{Name: "c4.2xlarge", VCPUs: 8, MemoryGB: 15, OnDemand: 0.419},
		{Name: "m4.xlarge", VCPUs: 4, MemoryGB: 16, OnDemand: 0.215},
		{Name: "m4.2xlarge", VCPUs: 8, MemoryGB: 32, OnDemand: 0.431},
	}
}

// CatalogPrices extracts a name→on-demand-price map, the shape the trace
// generator wants.
func CatalogPrices(types []InstanceType) map[string]float64 {
	m := make(map[string]float64, len(types))
	for _, t := range types {
		m[t.Name] = t.OnDemand
	}
	return m
}

// AllocationID identifies one allocation within a Market.
type AllocationID int

// State is the lifecycle state of an allocation.
type State int

const (
	// Active allocations are running and accruing charges.
	Active State = iota
	// Warned allocations have received an eviction warning and will be
	// evicted when the warning period lapses.
	Warned
	// Evicted allocations were revoked by the market (price crossed bid).
	Evicted
	// Terminated allocations were released by the customer.
	Terminated
)

// String implements fmt.Stringer for logs.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Warned:
		return "warned"
	case Evicted:
		return "evicted"
	case Terminated:
		return "terminated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Allocation is a set of instances of one type acquired at the same time
// and price — the paper's atomic unit of acquisition (§4).
type Allocation struct {
	ID        AllocationID
	Type      InstanceType
	Count     int
	Bid       float64 // 0 for on-demand
	OnDemand  bool
	StartedAt time.Duration

	state      State
	endedAt    time.Duration
	hourCharge float64 // charge made at the start of the current hour
	charged    float64 // cumulative charges (before refunds)
	refunded   float64
	hoursBegun int

	warningEv  *sim.Event
	evictionEv *sim.Event
	hourEv     *sim.Event

	span *obs.Span // open lifecycle span; nil when tracing is off
}

// State reports the lifecycle state.
func (a *Allocation) State() State { return a.state }

// EndedAt reports when the allocation stopped (eviction or termination);
// zero while active.
func (a *Allocation) EndedAt() time.Duration { return a.endedAt }

// Cost reports net dollars billed so far (charges minus refunds).
func (a *Allocation) Cost() float64 { return a.charged - a.refunded }

// HourCharge reports the charge made at the start of the current billing
// hour — what would be refunded if the allocation were evicted now.
func (a *Allocation) HourCharge() float64 { return a.hourCharge }

// ChargedThrough reports the end of the latest billing hour already
// charged: usage beyond `now` up to this time is paid for but unused.
func (a *Allocation) ChargedThrough() time.Duration {
	return a.StartedAt + time.Duration(a.hoursBegun)*trace.BillingHour
}

// HourStart returns the start of the billing hour containing t.
func (a *Allocation) HourStart(t time.Duration) time.Duration {
	if t < a.StartedAt {
		return a.StartedAt
	}
	elapsed := t - a.StartedAt
	return a.StartedAt + elapsed/trace.BillingHour*trace.BillingHour
}

// HourEnd returns the end of the billing hour containing t.
func (a *Allocation) HourEnd(t time.Duration) time.Duration {
	return a.HourStart(t) + trace.BillingHour
}

// Usage partitions machine-hours the way Fig. 10 reports them: hours on
// on-demand instances, paid spot hours, and free hours (spot usage inside
// a billing hour that was refunded due to eviction).
type Usage struct {
	OnDemandHours float64
	SpotHours     float64
	FreeHours     float64
}

// Total returns all machine-hours used.
func (u Usage) Total() float64 { return u.OnDemandHours + u.SpotHours + u.FreeHours }

// Add accumulates another usage record.
func (u *Usage) Add(v Usage) {
	u.OnDemandHours += v.OnDemandHours
	u.SpotHours += v.SpotHours
	u.FreeHours += v.FreeHours
}

// Handler receives market notifications. Implementations must not block;
// they run inline on the simulation goroutine.
type Handler interface {
	// EvictionWarning fires when the market decides to revoke an
	// allocation; evictAt is the virtual time the instances disappear
	// (warning period later).
	EvictionWarning(a *Allocation, evictAt time.Duration)
	// Evicted fires when the instances are revoked.
	Evicted(a *Allocation)
}

// NopHandler ignores all notifications.
type NopHandler struct{}

// EvictionWarning implements Handler.
func (NopHandler) EvictionWarning(*Allocation, time.Duration) {}

// Evicted implements Handler.
func (NopHandler) Evicted(*Allocation) {}

// Market simulates one availability zone's spot and on-demand markets.
type Market struct {
	Engine  *sim.Engine
	catalog map[string]*typeState
	types   []InstanceType // sorted by name, immutable after New
	traces  *trace.Set
	warning time.Duration
	handler Handler
	obsv    *obs.Observer

	nextID AllocationID
	allocs map[AllocationID]*Allocation
	// active holds running (Active or Warned) allocations in grant
	// order, which is ID order: usage and gauge walks iterate it instead
	// of scanning the whole allocation history, and its fixed order
	// keeps float accumulation deterministic.
	active []*Allocation
	usage  Usage
	cost   float64

	// Hot obs handles resolved on first observation (see hotCounter).
	billedSpot      hotCounter
	billedOnDemand  hotCounter
	refunded        hotCounter
	lifetime        hotHistogram
	activeAllocs    hotGauge
	activeInstances hotGauge
}

// typeState is the per-instance-type hot state: the catalog entry, the
// type's price trace, the two trace cursors the simulation sweeps —
// market time only moves forward, so spot-price lookups and eviction
// look-aheads are amortized O(1) — and the per-type obs handles.
type typeState struct {
	t  InstanceType
	tr *trace.Trace
	// price answers SpotPrice(now); evict answers scheduleEviction's
	// FirstCrossingAbove(bid, now, ·). Separate cursors because the
	// eviction scan seeks at allocation-grant times while price lookups
	// seek at every decision tick, and each stream is monotone on its own.
	price *trace.Cursor
	evict *trace.Cursor

	spotGauge      hotGauge
	bidRejections  hotCounter
	warnings       hotCounter
	grantsSpot     hotCounter
	grantsOnDemand hotCounter
	endedEvicted   hotCounter
	endedTerm      hotCounter
}

// hotCounter / hotGauge / hotHistogram memoize an obs instrument: the
// registry resolves an instrument by hashing its family name and label
// signature on every call — fine for cold paths, measurable on ones the
// simulator hits per event. The `done` flag (rather than a nil check)
// is what makes the caching correct when observation is off: a nil
// registry legitimately yields nil no-op instruments, and those are
// cached too. Resolution — and the label-slice construction feeding it
// — happens at first *use*, exactly when the uncached code resolved it,
// so the set and order of families a run exports is unchanged. Market
// runs single-goroutine on the simulation thread, so no locking.
type hotCounter struct {
	c    *obs.Counter
	done bool
}

type hotGauge struct {
	g    *obs.Gauge
	done bool
}

type hotHistogram struct {
	h    *obs.Histogram
	done bool
}

// Config parameterizes a Market.
type Config struct {
	Catalog []InstanceType
	Traces  *trace.Set
	// Warning is the eviction notice period; the paper's AWS gives two
	// minutes (§2.2). Zero means evictions arrive with no warning
	// (an "effective failure").
	Warning time.Duration
	// Observer receives market metrics and allocation lifecycle spans.
	// Nil disables instrumentation.
	Observer *obs.Observer
}

// New creates a market over the given price traces.
func New(engine *sim.Engine, cfg Config) (*Market, error) {
	if engine == nil {
		return nil, fmt.Errorf("market: nil engine")
	}
	if cfg.Traces == nil {
		return nil, fmt.Errorf("market: nil traces")
	}
	m := &Market{
		Engine:  engine,
		catalog: make(map[string]*typeState),
		traces:  cfg.Traces,
		warning: cfg.Warning,
		handler: NopHandler{},
		obsv:    cfg.Observer,
		allocs:  make(map[AllocationID]*Allocation),
	}
	for _, t := range cfg.Catalog {
		if t.OnDemand <= 0 || t.VCPUs <= 0 {
			return nil, fmt.Errorf("market: invalid instance type %+v", t)
		}
		tr, ok := cfg.Traces.Get(t.Name)
		if !ok {
			return nil, fmt.Errorf("market: no trace for instance type %s", t.Name)
		}
		m.catalog[t.Name] = &typeState{
			t:     t,
			tr:    tr,
			price: trace.NewCursor(tr),
			evict: trace.NewCursor(tr),
		}
		m.types = append(m.types, t)
	}
	if len(m.catalog) == 0 {
		return nil, fmt.Errorf("market: empty catalog")
	}
	sort.Slice(m.types, func(i, j int) bool { return m.types[i].Name < m.types[j].Name })
	return m, nil
}

// SetHandler installs the notification handler (replacing any previous).
func (m *Market) SetHandler(h Handler) {
	if h == nil {
		h = NopHandler{}
	}
	m.handler = h
}

// Types returns catalog types sorted by name. The slice is built once by
// New and shared across calls; callers must not modify it.
func (m *Market) Types() []InstanceType { return m.types }

// Type looks up an instance type by name.
func (m *Market) Type(name string) (InstanceType, bool) {
	ts, ok := m.catalog[name]
	if !ok {
		return InstanceType{}, false
	}
	return ts.t, true
}

// SpotPrice returns the current spot price for the type.
func (m *Market) SpotPrice(name string) (float64, error) {
	ts, ok := m.catalog[name]
	if !ok {
		// Types with a trace but no catalog entry stay queryable (the
		// uncached cold path).
		tr, ok := m.traces.Get(name)
		if !ok {
			return 0, fmt.Errorf("market: unknown instance type %s", name)
		}
		price := tr.PriceAt(m.Engine.Now())
		m.obsv.Reg().Gauge("proteus_market_spot_price_dollars",
			"last observed spot price per instance-hour", obs.L("type", name)).Set(price)
		return price, nil
	}
	price := ts.price.PriceAt(m.Engine.Now())
	ts.observeSpot(m, price)
	return price, nil
}

// Trace exposes the underlying price history for a type (used to train β).
func (m *Market) Trace(name string) (*trace.Trace, bool) { return m.traces.Get(name) }

// TotalCost reports net dollars billed across all allocations.
func (m *Market) TotalCost() float64 { return m.cost }

// TotalUsage reports machine-hour usage across all allocations, including
// in-progress hours of still-active allocations up to the current time.
func (m *Market) TotalUsage() Usage {
	u := m.usage
	now := m.Engine.Now()
	for _, a := range m.active {
		partial := now - a.HourStart(now)
		h := partial.Hours() * float64(a.Count)
		if a.OnDemand {
			u.OnDemandHours += h
		} else {
			u.SpotHours += h
		}
	}
	return u
}

// Allocations returns all allocations ever made, sorted by ID.
func (m *Market) Allocations() []*Allocation {
	out := make([]*Allocation, 0, len(m.allocs))
	for _, a := range m.allocs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveAllocations returns allocations still running (active or warned),
// in grant (ID) order. The returned slice is the caller's: terminating
// allocations while iterating it is safe.
func (m *Market) ActiveAllocations() []*Allocation {
	if len(m.active) == 0 {
		return nil
	}
	out := make([]*Allocation, len(m.active))
	copy(out, m.active)
	return out
}

// RequestOnDemand acquires count on-demand instances. Always granted.
func (m *Market) RequestOnDemand(typeName string, count int) (*Allocation, error) {
	ts, ok := m.catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("market: unknown instance type %s", typeName)
	}
	if count <= 0 {
		return nil, fmt.Errorf("market: count %d must be positive", count)
	}
	a := m.newAllocation(ts.t, count, 0, true)
	m.observeGrant(ts, a)
	m.chargeHour(a, ts.t.OnDemand)
	m.scheduleHourBoundary(a)
	return a, nil
}

// RequestSpot bids for count spot instances of the type. The request is
// granted only if the bid is at or above the current market price;
// otherwise ErrBidBelowMarket is returned. Granted allocations keep their
// bid until eviction or termination.
func (m *Market) RequestSpot(typeName string, count int, bid float64) (*Allocation, error) {
	ts, ok := m.catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("market: unknown instance type %s", typeName)
	}
	if count <= 0 {
		return nil, fmt.Errorf("market: count %d must be positive", count)
	}
	price, err := m.SpotPrice(typeName)
	if err != nil {
		return nil, err
	}
	if bid < price {
		if !ts.bidRejections.done {
			ts.bidRejections.c = m.obsv.Reg().Counter("proteus_market_bid_rejections_total",
				"spot requests rejected because the bid was below market",
				obs.L("type", typeName))
			ts.bidRejections.done = true
		}
		ts.bidRejections.c.Inc()
		return nil, fmt.Errorf("market: %w: bid %.4f below market %.4f for %s",
			ErrBidBelowMarket, bid, price, typeName)
	}
	a := m.newAllocation(ts.t, count, bid, false)
	m.observeGrant(ts, a)
	m.chargeHour(a, price)
	m.scheduleHourBoundary(a)
	m.scheduleEviction(ts, a)
	return a, nil
}

// ErrBidBelowMarket reports a spot request rejected because the bid was
// below the current market price.
var ErrBidBelowMarket = fmt.Errorf("bid below market price")

// Terminate releases an allocation at the customer's request. The current
// billing hour has already been charged and is not refunded. Terminating a
// non-running allocation is an error.
func (m *Market) Terminate(a *Allocation) error {
	if a.state != Active && a.state != Warned {
		return fmt.Errorf("market: terminate allocation %d in state %s", a.ID, a.state)
	}
	m.settleUsage(a, false)
	a.state = Terminated
	a.endedAt = m.Engine.Now()
	m.removeActive(a)
	m.cancelEvents(a)
	m.observeEnd(a, "terminated")
	return nil
}

func (m *Market) newAllocation(t InstanceType, count int, bid float64, onDemand bool) *Allocation {
	a := &Allocation{
		ID:        m.nextID,
		Type:      t,
		Count:     count,
		Bid:       bid,
		OnDemand:  onDemand,
		StartedAt: m.Engine.Now(),
		state:     Active,
	}
	m.nextID++
	m.allocs[a.ID] = a
	m.active = append(m.active, a)
	return a
}

// removeActive drops a from the running-allocation list, preserving the
// grant order of the rest.
func (m *Market) removeActive(a *Allocation) {
	for i, b := range m.active {
		if b == a {
			m.active = append(m.active[:i], m.active[i+1:]...)
			return
		}
	}
}

func (m *Market) chargeHour(a *Allocation, pricePerHour float64) {
	charge := pricePerHour * float64(a.Count)
	a.hourCharge = charge
	a.charged += charge
	a.hoursBegun++
	m.cost += charge
	hc := &m.billedSpot
	if a.OnDemand {
		hc = &m.billedOnDemand
	}
	if !hc.done {
		kind := "spot"
		if a.OnDemand {
			kind = "ondemand"
		}
		hc.c = m.obsv.Reg().Counter("proteus_market_billed_dollars_total",
			"dollars charged at billing-hour starts", obs.L("kind", kind))
		hc.done = true
	}
	hc.c.Add(charge)
}

// scheduleHourBoundary arms the allocation's next billing-hour event.
// The event and its closure are made at grant and re-armed in place from
// then on.
func (m *Market) scheduleHourBoundary(a *Allocation) {
	boundary := a.HourEnd(m.Engine.Now())
	if a.hourEv == nil {
		a.hourEv = m.Engine.At(boundary, "market.hour", func() { m.onHour(a) })
		return
	}
	m.Engine.Reschedule(a.hourEv, boundary)
}

// onHour charges the next hourly bill and rolls the just-completed hour
// into usage accounting.
func (m *Market) onHour(a *Allocation) {
	if a.state != Active && a.state != Warned {
		return
	}
	// The completed hour was paid: record its usage.
	h := float64(a.Count)
	if a.OnDemand {
		m.usage.OnDemandHours += h
	} else {
		m.usage.SpotHours += h
	}
	price := a.Type.OnDemand
	if !a.OnDemand {
		p, err := m.SpotPrice(a.Type.Name)
		if err == nil {
			price = p
		}
	}
	m.chargeHour(a, price)
	m.scheduleHourBoundary(a)
}

// scheduleEviction looks ahead in the (deterministic) price trace for the
// first crossing above the allocation's bid and schedules the warning and
// eviction. Because traces are fixed, look-ahead scheduling is exact, not
// an oracle advantage: the customer only hears about it via the Handler at
// warning time.
func (m *Market) scheduleEviction(ts *typeState, a *Allocation) {
	horizon := ts.tr.Duration()
	cross, found := ts.evict.FirstCrossingAbove(a.Bid, m.Engine.Now(), horizon)
	if !found {
		return
	}
	evictAt := cross + m.warning
	if m.warning > 0 {
		a.warningEv = m.Engine.At(cross, "market.warning", func() {
			if a.state != Active {
				return
			}
			a.state = Warned
			if !ts.warnings.done {
				ts.warnings.c = m.obsv.Reg().Counter("proteus_market_eviction_warnings_total",
					"eviction warnings issued", obs.L("type", a.Type.Name))
				ts.warnings.done = true
			}
			ts.warnings.c.Inc()
			if tr := m.obsv.Trace(); tr != nil {
				tr.Event("market", "eviction-warning",
					"alloc %d: %dx %s evicting at %v", a.ID, a.Count, a.Type.Name, evictAt)
			}
			m.handler.EvictionWarning(a, evictAt)
		})
	}
	a.evictionEv = m.Engine.At(evictAt, "market.evict", func() {
		if a.state != Active && a.state != Warned {
			return
		}
		m.evict(a)
	})
}

func (m *Market) evict(a *Allocation) {
	// Refund the in-progress hour (§2.2: "the customer is not billed for
	// the current hour").
	a.refunded += a.hourCharge
	m.cost -= a.hourCharge
	if !m.refunded.done {
		m.refunded.c = m.obsv.Reg().Counter("proteus_market_refunded_dollars_total",
			"dollars refunded for in-progress hours of evicted allocations")
		m.refunded.done = true
	}
	m.refunded.c.Add(a.hourCharge)
	m.settleUsage(a, true)
	a.state = Evicted
	a.endedAt = m.Engine.Now()
	m.removeActive(a)
	m.cancelEvents(a)
	m.observeEnd(a, "evicted")
	m.handler.Evicted(a)
}

// settleUsage records the partial in-progress hour of a stopping
// allocation. free marks it refunded (eviction), so the time counts as
// free compute.
func (m *Market) settleUsage(a *Allocation, free bool) {
	now := m.Engine.Now()
	partial := now - a.HourStart(now)
	h := partial.Hours() * float64(a.Count)
	switch {
	case free:
		m.usage.FreeHours += h
	case a.OnDemand:
		m.usage.OnDemandHours += h
	default:
		m.usage.SpotHours += h
	}
}

func (m *Market) cancelEvents(a *Allocation) {
	if a.warningEv != nil {
		a.warningEv.Cancel()
	}
	if a.evictionEv != nil {
		a.evictionEv.Cancel()
	}
	if a.hourEv != nil {
		a.hourEv.Cancel()
	}
}

// allocKind labels an allocation for metrics.
func allocKind(a *Allocation) string {
	if a.OnDemand {
		return "ondemand"
	}
	return "spot"
}

// observeGrant records a granted allocation and opens its lifecycle span.
func (m *Market) observeGrant(ts *typeState, a *Allocation) {
	hc := &ts.grantsSpot
	if a.OnDemand {
		hc = &ts.grantsOnDemand
	}
	if !hc.done {
		hc.c = m.obsv.Reg().Counter("proteus_market_grants_total", "allocations granted",
			obs.L("kind", allocKind(a)), obs.L("type", a.Type.Name))
		hc.done = true
	}
	hc.c.Inc()
	m.updateActiveGauges()
	// Guard span construction so a run with tracing off skips the
	// Detailf formatting (and its argument boxing) entirely.
	if tr := m.obsv.Trace(); tr != nil {
		a.span = tr.Start("market", "allocation").
			Detailf("alloc %d: %dx %s %s bid=%.4f", a.ID, a.Count, a.Type.Name, allocKind(a), a.Bid)
	}
}

// observeEnd records an allocation leaving the market (outcome is
// "evicted" or "terminated") and closes its lifecycle span.
func (m *Market) observeEnd(a *Allocation, outcome string) {
	ts := m.catalog[a.Type.Name]
	hc := &ts.endedTerm
	if outcome == "evicted" {
		hc = &ts.endedEvicted
	}
	if !hc.done {
		hc.c = m.obsv.Reg().Counter("proteus_market_allocations_ended_total", "allocations ended",
			obs.L("outcome", outcome), obs.L("type", a.Type.Name))
		hc.done = true
	}
	hc.c.Inc()
	if !m.lifetime.done {
		m.lifetime.h = m.obsv.Reg().Histogram("proteus_market_allocation_lifetime_hours",
			"allocation lifetime from grant to end",
			[]float64{0.25, 0.5, 1, 2, 4, 8, 24, 72})
		m.lifetime.done = true
	}
	m.lifetime.h.Observe((a.endedAt - a.StartedAt).Hours())
	m.updateActiveGauges()
	if a.span != nil {
		a.span.Detailf("alloc %d: %dx %s %s %s after %v",
			a.ID, a.Count, a.Type.Name, allocKind(a), outcome, a.endedAt-a.StartedAt).End()
		a.span = nil
	}
}

// updateActiveGauges refreshes the running allocation and instance counts.
func (m *Market) updateActiveGauges() {
	if m.obsv.Reg() == nil {
		return
	}
	instances := 0
	for _, a := range m.active {
		instances += a.Count
	}
	if !m.activeAllocs.done {
		m.activeAllocs.g = m.obsv.Reg().Gauge("proteus_market_active_allocations",
			"allocations currently running")
		m.activeAllocs.done = true
	}
	m.activeAllocs.g.Set(float64(len(m.active)))
	if !m.activeInstances.done {
		m.activeInstances.g = m.obsv.Reg().Gauge("proteus_market_active_instances",
			"instances currently running")
		m.activeInstances.done = true
	}
	m.activeInstances.g.Set(float64(instances))
}

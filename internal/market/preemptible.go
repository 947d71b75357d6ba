package market

import (
	"fmt"
	"math/rand"
	"time"

	"proteus/internal/sim"
)

// PreemptibleConfig parameterizes a GCE-style preemptible market (§2.2):
// unlike the EC2 spot market there is no bidding and no price variability
// — instances cost a fixed fraction of the on-demand price — but they can
// be revoked at any time with a short warning, and never live longer than
// 24 hours.
type PreemptibleConfig struct {
	Catalog []InstanceType
	// Discount is the fixed price fraction of on-demand; Google charges
	// 70% less, i.e. 0.30. Zero means 0.30.
	Discount float64
	// Warning is the preemption notice; GCE gives 30 seconds. Zero means
	// 30 seconds (set Disabled to model none).
	Warning time.Duration
	// MaxLifetime is the hard instance lifetime; GCE enforces 24 hours.
	// Zero means 24 hours.
	MaxLifetime time.Duration
	// MTTP is the mean time to preemption of an allocation, modeling the
	// provider reclaiming capacity; preemption times are exponential.
	// Zero means 8 hours.
	MTTP time.Duration
	// Seed drives the preemption process deterministically.
	Seed int64
}

func (c *PreemptibleConfig) withDefaults() PreemptibleConfig {
	out := *c
	if out.Discount == 0 {
		out.Discount = 0.30
	}
	if out.Warning == 0 {
		out.Warning = 30 * time.Second
	}
	if out.MaxLifetime == 0 {
		out.MaxLifetime = 24 * time.Hour
	}
	if out.MTTP == 0 {
		out.MTTP = 8 * time.Hour
	}
	return out
}

// PreemptibleMarket simulates GCE-style preemptible instances alongside
// on-demand ones. Billing is per full hour begun (simplified from GCE's
// minute-level billing so accounting is comparable with the spot market);
// there are no refunds — the absence of the free-compute refund is
// exactly what §7 predicts makes this environment less lucrative for
// BidBrain's eviction-chasing, and the experiments verify it.
type PreemptibleMarket struct {
	Engine  *sim.Engine
	cfg     PreemptibleConfig
	catalog map[string]InstanceType
	handler Handler
	rng     *rand.Rand

	nextID AllocationID
	allocs map[AllocationID]*Allocation
	usage  Usage
	cost   float64
}

// NewPreemptible creates a preemptible market.
func NewPreemptible(engine *sim.Engine, cfg PreemptibleConfig) (*PreemptibleMarket, error) {
	if engine == nil {
		return nil, fmt.Errorf("market: nil engine")
	}
	full := cfg.withDefaults()
	if full.Discount <= 0 || full.Discount >= 1 {
		return nil, fmt.Errorf("market: preemptible discount %v out of (0,1)", full.Discount)
	}
	m := &PreemptibleMarket{
		Engine:  engine,
		cfg:     full,
		catalog: make(map[string]InstanceType),
		handler: NopHandler{},
		rng:     rand.New(rand.NewSource(full.Seed)),
		allocs:  make(map[AllocationID]*Allocation),
	}
	for _, t := range full.Catalog {
		if t.OnDemand <= 0 || t.VCPUs <= 0 {
			return nil, fmt.Errorf("market: invalid instance type %+v", t)
		}
		m.catalog[t.Name] = t
	}
	if len(m.catalog) == 0 {
		return nil, fmt.Errorf("market: empty catalog")
	}
	return m, nil
}

// SetHandler installs the notification handler.
func (m *PreemptibleMarket) SetHandler(h Handler) {
	if h == nil {
		h = NopHandler{}
	}
	m.handler = h
}

// PreemptiblePrice returns the fixed hourly price for the type.
func (m *PreemptibleMarket) PreemptiblePrice(name string) (float64, error) {
	t, ok := m.catalog[name]
	if !ok {
		return 0, fmt.Errorf("market: unknown instance type %s", name)
	}
	return t.OnDemand * m.cfg.Discount, nil
}

// TotalCost reports net dollars billed.
func (m *PreemptibleMarket) TotalCost() float64 { return m.cost }

// TotalUsage reports machine-hour usage including in-progress hours.
func (m *PreemptibleMarket) TotalUsage() Usage {
	u := m.usage
	now := m.Engine.Now()
	for _, a := range m.allocs {
		if a.state != Active && a.state != Warned {
			continue
		}
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

// RequestOnDemand acquires regular instances; never preempted.
func (m *PreemptibleMarket) RequestOnDemand(typeName string, count int) (*Allocation, error) {
	t, ok := m.catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("market: unknown instance type %s", typeName)
	}
	if count <= 0 {
		return nil, fmt.Errorf("market: count %d must be positive", count)
	}
	a := m.newAllocation(t, count, true)
	m.charge(a, t.OnDemand)
	m.scheduleHour(a)
	return a, nil
}

// RequestPreemptible acquires preemptible instances at the fixed
// discounted price. There is no bid: the provider preempts at its own
// discretion (exponential MTTP here) and always by the 24-hour limit.
func (m *PreemptibleMarket) RequestPreemptible(typeName string, count int) (*Allocation, error) {
	t, ok := m.catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("market: unknown instance type %s", typeName)
	}
	if count <= 0 {
		return nil, fmt.Errorf("market: count %d must be positive", count)
	}
	a := m.newAllocation(t, count, false)
	price, _ := m.PreemptiblePrice(typeName)
	m.charge(a, price)
	m.scheduleHour(a)

	// Preemption time: exponential with the configured mean, capped by
	// the 24-hour lifetime limit.
	until := time.Duration(m.rng.ExpFloat64() * float64(m.cfg.MTTP))
	if until > m.cfg.MaxLifetime {
		until = m.cfg.MaxLifetime
	}
	warnAt := m.Engine.Now() + until
	evictAt := warnAt + m.cfg.Warning
	a.warningEv = m.Engine.At(warnAt, "preemptible.warning", func() {
		if a.state != Active {
			return
		}
		a.state = Warned
		m.handler.EvictionWarning(a, evictAt)
	})
	a.evictionEv = m.Engine.At(evictAt, "preemptible.evict", func() {
		if a.state != Active && a.state != Warned {
			return
		}
		// No refund: GCE has no eviction-refund mechanism. The partial
		// hour was paid and is recorded as paid usage.
		m.settle(a, false)
		a.state = Evicted
		a.endedAt = m.Engine.Now()
		m.cancel(a)
		m.handler.Evicted(a)
	})
	return a, nil
}

// Terminate releases an allocation; the begun hour stays charged.
func (m *PreemptibleMarket) Terminate(a *Allocation) error {
	if a.state != Active && a.state != Warned {
		return fmt.Errorf("market: terminate allocation %d in state %s", a.ID, a.state)
	}
	m.settle(a, false)
	a.state = Terminated
	a.endedAt = m.Engine.Now()
	m.cancel(a)
	return nil
}

// Allocations returns every allocation made, sorted by ID.
func (m *PreemptibleMarket) Allocations() []*Allocation {
	out := make([]*Allocation, 0, len(m.allocs))
	for _, a := range m.allocs {
		out = append(out, a)
	}
	// IDs are dense; sort by simple insertion over the small slice.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func (m *PreemptibleMarket) newAllocation(t InstanceType, count int, onDemand bool) *Allocation {
	a := &Allocation{
		ID:        m.nextID,
		Type:      t,
		Count:     count,
		OnDemand:  onDemand,
		StartedAt: m.Engine.Now(),
		state:     Active,
	}
	m.nextID++
	m.allocs[a.ID] = a
	return a
}

func (m *PreemptibleMarket) charge(a *Allocation, price float64) {
	c := price * float64(a.Count)
	a.hourCharge = c
	a.charged += c
	a.hoursBegun++
	m.cost += c
}

// scheduleHour arms the allocation's next billing-hour event, made at
// grant and re-armed in place from then on.
func (m *PreemptibleMarket) scheduleHour(a *Allocation) {
	boundary := a.HourEnd(m.Engine.Now())
	if a.hourEv == nil {
		a.hourEv = m.Engine.At(boundary, "preemptible.hour", func() { m.onHour(a) })
		return
	}
	m.Engine.Reschedule(a.hourEv, boundary)
}

// onHour charges the next hour and records the completed one's usage.
func (m *PreemptibleMarket) onHour(a *Allocation) {
	if a.state != Active && a.state != Warned {
		return
	}
	h := float64(a.Count)
	if a.OnDemand {
		m.usage.OnDemandHours += h
	} else {
		m.usage.SpotHours += h
	}
	price := a.Type.OnDemand
	if !a.OnDemand {
		price, _ = m.PreemptiblePrice(a.Type.Name)
	}
	m.charge(a, price)
	m.scheduleHour(a)
}

func (m *PreemptibleMarket) settle(a *Allocation, free bool) {
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

func (m *PreemptibleMarket) cancel(a *Allocation) {
	for _, ev := range []*sim.Event{a.warningEv, a.evictionEv, a.hourEv} {
		if ev != nil {
			ev.Cancel()
		}
	}
}

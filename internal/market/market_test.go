package market

import (
	"errors"
	"math"
	"testing"
	"time"

	"proteus/internal/sim"
	"proteus/internal/trace"
)

// flatSet builds a trace set with constant prices, optionally with a spike
// window [spikeAt, spikeEnd) at spikePrice for every type.
func flatSet(prices map[string]float64, spikeAt, spikeEnd time.Duration, spikePrice float64) *trace.Set {
	s := trace.NewSet("test-zone")
	for name, p := range prices {
		pts := []trace.Point{{At: 0, Price: p}}
		if spikeEnd > spikeAt {
			pts = append(pts,
				trace.Point{At: spikeAt, Price: spikePrice},
				trace.Point{At: spikeEnd, Price: p},
			)
		}
		// Extend the trace horizon well past the experiment.
		pts = append(pts, trace.Point{At: 1000 * time.Hour, Price: p})
		s.Add(&trace.Trace{InstanceType: name, Zone: "test-zone", Points: pts})
	}
	return s
}

func newTestMarket(t *testing.T, set *trace.Set) (*sim.Engine, *Market) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := New(eng, Config{
		Catalog: DefaultCatalog(),
		Traces:  set,
		Warning: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func allPrices() map[string]float64 {
	return map[string]float64{
		"c4.xlarge": 0.05, "c4.2xlarge": 0.10, "m4.xlarge": 0.06, "m4.2xlarge": 0.12,
	}
}

type recordingHandler struct {
	warnings  []AllocationID
	evictions []AllocationID
	warnTimes []time.Duration
}

func (r *recordingHandler) EvictionWarning(a *Allocation, evictAt time.Duration) {
	r.warnings = append(r.warnings, a.ID)
	r.warnTimes = append(r.warnTimes, evictAt)
}
func (r *recordingHandler) Evicted(a *Allocation) { r.evictions = append(r.evictions, a.ID) }

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(eng, Config{Catalog: DefaultCatalog()}); err == nil {
		t.Fatal("nil traces accepted")
	}
	// Catalog type with no trace.
	set := flatSet(map[string]float64{"c4.xlarge": 0.05}, 0, 0, 0)
	if _, err := New(eng, Config{Catalog: DefaultCatalog(), Traces: set}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestOnDemandBilling(t *testing.T) {
	eng, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	a, err := m.RequestOnDemand("c4.2xlarge", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Charged immediately for the first hour.
	want := 0.419 * 3
	if math.Abs(m.TotalCost()-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", m.TotalCost(), want)
	}
	eng.RunUntil(2*time.Hour + 30*time.Minute)
	// Three hours begun (0h, 1h, 2h boundaries).
	want = 0.419 * 3 * 3
	if math.Abs(m.TotalCost()-want) > 1e-9 {
		t.Fatalf("cost after 2.5h = %v, want %v", m.TotalCost(), want)
	}
	if a.State() != Active {
		t.Fatalf("state = %v, want active", a.State())
	}
}

func TestSpotGrantAndBilling(t *testing.T) {
	eng, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	a, err := m.RequestSpot("c4.xlarge", 4, 0.209)
	if err != nil {
		t.Fatal(err)
	}
	// Billed at market price (0.05), not the bid.
	want := 0.05 * 4
	if math.Abs(a.Cost()-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v (market price, not bid)", a.Cost(), want)
	}
	eng.RunUntil(90 * time.Minute)
	want = 0.05 * 4 * 2
	if math.Abs(a.Cost()-want) > 1e-9 {
		t.Fatalf("cost after 1.5h = %v, want %v", a.Cost(), want)
	}
}

func TestSpotBidBelowMarketRejected(t *testing.T) {
	_, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	_, err := m.RequestSpot("c4.xlarge", 1, 0.01)
	if !errors.Is(err, ErrBidBelowMarket) {
		t.Fatalf("err = %v, want ErrBidBelowMarket", err)
	}
}

func TestInvalidRequests(t *testing.T) {
	_, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	if _, err := m.RequestSpot("no-such-type", 1, 1); err == nil {
		t.Fatal("unknown type accepted")
	}
	if _, err := m.RequestSpot("c4.xlarge", 0, 1); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := m.RequestOnDemand("c4.xlarge", -1); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := m.RequestOnDemand("nope", 1); err == nil {
		t.Fatal("unknown on-demand type accepted")
	}
}

func TestEvictionWithWarningAndRefund(t *testing.T) {
	// Price spikes above the bid at t=90m.
	set := flatSet(allPrices(), 90*time.Minute, 3*time.Hour, 5.0)
	eng, m := newTestMarket(t, set)
	h := &recordingHandler{}
	m.SetHandler(h)

	a, err := m.RequestSpot("c4.xlarge", 2, 0.10) // bid above flat 0.05, below spike
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4 * time.Hour)

	if len(h.warnings) != 1 || h.warnings[0] != a.ID {
		t.Fatalf("warnings = %v, want [%d]", h.warnings, a.ID)
	}
	if len(h.evictions) != 1 {
		t.Fatalf("evictions = %v, want one", h.evictions)
	}
	if a.State() != Evicted {
		t.Fatalf("state = %v, want evicted", a.State())
	}
	// Eviction happens warning-period after the crossing.
	if a.EndedAt() != 90*time.Minute+2*time.Minute {
		t.Fatalf("EndedAt = %v, want 92m", a.EndedAt())
	}
	if h.warnTimes[0] != a.EndedAt() {
		t.Fatalf("warning quoted evictAt %v, actual %v", h.warnTimes[0], a.EndedAt())
	}
	// Hour 1 (started at 60m) was refunded: only hour 0 is paid.
	want := 0.05 * 2
	if math.Abs(a.Cost()-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v (second hour refunded)", a.Cost(), want)
	}
	// No further charges accrue after eviction.
	eng.RunUntil(10 * time.Hour)
	if math.Abs(a.Cost()-want) > 1e-9 {
		t.Fatalf("post-eviction cost drifted to %v", a.Cost())
	}
}

func TestEvictionUsageAccounting(t *testing.T) {
	set := flatSet(allPrices(), 90*time.Minute, 3*time.Hour, 5.0)
	eng, m := newTestMarket(t, set)
	_, err := m.RequestSpot("c4.xlarge", 2, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4 * time.Hour)
	u := m.TotalUsage()
	// Hour 0 completed and paid: 2 spot-hours. 32 minutes of hour 1
	// (60m→92m) were used then refunded: free hours.
	if math.Abs(u.SpotHours-2) > 1e-9 {
		t.Fatalf("SpotHours = %v, want 2", u.SpotHours)
	}
	wantFree := (32.0 / 60.0) * 2
	if math.Abs(u.FreeHours-wantFree) > 1e-6 {
		t.Fatalf("FreeHours = %v, want %v", u.FreeHours, wantFree)
	}
	if u.OnDemandHours != 0 {
		t.Fatalf("OnDemandHours = %v, want 0", u.OnDemandHours)
	}
}

func TestTerminateNoRefund(t *testing.T) {
	eng, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	a, err := m.RequestSpot("c4.xlarge", 1, 0.209)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30 * time.Minute)
	if err := m.Terminate(a); err != nil {
		t.Fatal(err)
	}
	if a.State() != Terminated {
		t.Fatalf("state = %v, want terminated", a.State())
	}
	// The begun hour stays charged.
	if math.Abs(a.Cost()-0.05) > 1e-9 {
		t.Fatalf("cost = %v, want 0.05", a.Cost())
	}
	// No more charges later.
	eng.RunUntil(5 * time.Hour)
	if math.Abs(a.Cost()-0.05) > 1e-9 {
		t.Fatalf("cost drifted to %v", a.Cost())
	}
	if err := m.Terminate(a); err == nil {
		t.Fatal("double terminate accepted")
	}
}

func TestTerminateBeforeHourBoundaryAvoidsNextCharge(t *testing.T) {
	eng, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	a, _ := m.RequestSpot("c4.xlarge", 1, 0.209)
	eng.RunUntil(59 * time.Minute)
	if err := m.Terminate(a); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * time.Hour)
	if math.Abs(a.Cost()-0.05) > 1e-9 {
		t.Fatalf("cost = %v, want one hour only", a.Cost())
	}
}

func TestSpotPriceTracksTrace(t *testing.T) {
	set := flatSet(allPrices(), time.Hour, 2*time.Hour, 9.99)
	eng, m := newTestMarket(t, set)
	p, err := m.SpotPrice("c4.xlarge")
	if err != nil || p != 0.05 {
		t.Fatalf("SpotPrice = %v,%v", p, err)
	}
	eng.RunUntil(time.Hour + time.Minute)
	p, _ = m.SpotPrice("c4.xlarge")
	if p != 9.99 {
		t.Fatalf("SpotPrice during spike = %v, want 9.99", p)
	}
	if _, err := m.SpotPrice("bogus"); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestHourlyChargeFollowsCurrentSpotPrice(t *testing.T) {
	// Price doubles at t=50m (below bid, no eviction): the second hour
	// must be charged at the new price.
	set := trace.NewSet("z")
	for name := range allPrices() {
		set.Add(&trace.Trace{InstanceType: name, Zone: "z", Points: []trace.Point{
			{At: 0, Price: 0.05},
			{At: 50 * time.Minute, Price: 0.10},
			{At: 100 * time.Hour, Price: 0.10},
		}})
	}
	eng, m := newTestMarket(t, set)
	a, err := m.RequestSpot("c4.xlarge", 1, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(90 * time.Minute)
	want := 0.05 + 0.10
	if math.Abs(a.Cost()-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", a.Cost(), want)
	}
}

func TestActiveAllocationsAndListing(t *testing.T) {
	set := flatSet(allPrices(), 30*time.Minute, 2*time.Hour, 9.0)
	eng, m := newTestMarket(t, set)
	spot, _ := m.RequestSpot("c4.xlarge", 1, 0.10)
	od, _ := m.RequestOnDemand("c4.xlarge", 1)
	if n := len(m.ActiveAllocations()); n != 2 {
		t.Fatalf("active = %d, want 2", n)
	}
	eng.RunUntil(time.Hour)
	// Spot evicted at 32m; on-demand survives.
	if spot.State() != Evicted || od.State() != Active {
		t.Fatalf("states = %v,%v", spot.State(), od.State())
	}
	act := m.ActiveAllocations()
	if len(act) != 1 || act[0].ID != od.ID {
		t.Fatalf("active = %v", act)
	}
	if len(m.Allocations()) != 2 {
		t.Fatalf("Allocations = %d, want 2", len(m.Allocations()))
	}
}

func TestOnDemandNeverEvicted(t *testing.T) {
	set := flatSet(allPrices(), time.Minute, 99*time.Hour, 99.0)
	eng, m := newTestMarket(t, set)
	h := &recordingHandler{}
	m.SetHandler(h)
	a, _ := m.RequestOnDemand("c4.xlarge", 1)
	eng.RunUntil(10 * time.Hour)
	if a.State() != Active {
		t.Fatalf("on-demand state = %v", a.State())
	}
	if len(h.evictions) != 0 {
		t.Fatal("on-demand allocation was evicted")
	}
}

func TestNoWarningMarketEvictsImmediately(t *testing.T) {
	set := flatSet(allPrices(), time.Hour, 2*time.Hour, 9.0)
	eng := sim.NewEngine()
	m, err := New(eng, Config{Catalog: DefaultCatalog(), Traces: set, Warning: 0})
	if err != nil {
		t.Fatal(err)
	}
	h := &recordingHandler{}
	m.SetHandler(h)
	a, _ := m.RequestSpot("c4.xlarge", 1, 0.10)
	eng.RunUntil(2 * time.Hour)
	if a.State() != Evicted || a.EndedAt() != time.Hour {
		t.Fatalf("state=%v endedAt=%v, want evicted at 1h", a.State(), a.EndedAt())
	}
	if len(h.warnings) != 0 {
		t.Fatal("warning fired in zero-warning market")
	}
}

func TestHourStartEnd(t *testing.T) {
	a := &Allocation{StartedAt: 10 * time.Minute}
	if hs := a.HourStart(30 * time.Minute); hs != 10*time.Minute {
		t.Fatalf("HourStart = %v, want 10m", hs)
	}
	if hs := a.HourStart(80 * time.Minute); hs != 70*time.Minute {
		t.Fatalf("HourStart = %v, want 70m", hs)
	}
	if he := a.HourEnd(30 * time.Minute); he != 70*time.Minute {
		t.Fatalf("HourEnd = %v, want 70m", he)
	}
	if hs := a.HourStart(5 * time.Minute); hs != 10*time.Minute {
		t.Fatalf("HourStart before start = %v, want clamp to start", hs)
	}
}

func TestUsageAddAndTotal(t *testing.T) {
	u := Usage{OnDemandHours: 1, SpotHours: 2, FreeHours: 3}
	u.Add(Usage{OnDemandHours: 1, SpotHours: 1, FreeHours: 1})
	if u.Total() != 9 {
		t.Fatalf("Total = %v, want 9", u.Total())
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Active: "active", Warned: "warned", Evicted: "evicted", Terminated: "terminated",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestTotalUsageIncludesInProgress(t *testing.T) {
	eng, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	m.RequestOnDemand("c4.xlarge", 2)
	eng.RunUntil(30 * time.Minute)
	u := m.TotalUsage()
	if math.Abs(u.OnDemandHours-1.0) > 1e-9 { // 2 instances × 0.5h
		t.Fatalf("OnDemandHours = %v, want 1", u.OnDemandHours)
	}
}

func TestChargedThrough(t *testing.T) {
	eng, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	a, err := m.RequestSpot("c4.xlarge", 1, 0.209)
	if err != nil {
		t.Fatal(err)
	}
	// One hour charged at grant time.
	if got := a.ChargedThrough(); got != time.Hour {
		t.Fatalf("ChargedThrough = %v, want 1h", got)
	}
	eng.RunUntil(30 * time.Minute)
	if got := a.ChargedThrough(); got != time.Hour {
		t.Fatalf("ChargedThrough mid-hour = %v, want 1h", got)
	}
	// Exactly at the boundary the second hour is charged: paid-through
	// moves to 2h, so the unused fraction at t=1h is a full hour — and a
	// job completing exactly then has zero unused time only if its
	// completion event fired before the boundary charge. Both cases are
	// handled by callers clamping ChargedThrough()−now at zero.
	eng.RunUntil(time.Hour)
	if got := a.ChargedThrough(); got != 2*time.Hour {
		t.Fatalf("ChargedThrough at boundary = %v, want 2h", got)
	}
}

// TestHeldAllocationBillsHoursWithoutAllocating pins the in-place re-arm
// of the billing-hour event in both markets: an allocation held for a
// long run is billed every hour, and each hour must move the one event
// it already has rather than allocate a new event and closure.
func TestHeldAllocationBillsHoursWithoutAllocating(t *testing.T) {
	const hours = 100
	perHour := func(eng *sim.Engine) float64 {
		return testing.AllocsPerRun(hours, func() { eng.RunUntil(eng.Now() + time.Hour) })
	}

	eng, m := newTestMarket(t, flatSet(allPrices(), 0, 0, 0))
	a, err := m.RequestSpot("c4.xlarge", 4, 0.209)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := perHour(eng); allocs != 0 {
		t.Errorf("spot market: %v allocations per billing hour, want 0", allocs)
	}
	if got, want := a.hoursBegun, hours+2; got != want {
		t.Errorf("spot market: %d hours begun, want %d", got, want)
	}

	peng, pm := newPreemptible(t, PreemptibleConfig{MTTP: 10000 * time.Hour, MaxLifetime: 10000 * time.Hour})
	pa, err := pm.RequestPreemptible("c4.xlarge", 2)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := perHour(peng); allocs != 0 {
		t.Errorf("preemptible market: %v allocations per billing hour, want 0", allocs)
	}
	if got, want := pa.hoursBegun, hours+2; got != want {
		t.Errorf("preemptible market: %d hours begun, want %d", got, want)
	}
}

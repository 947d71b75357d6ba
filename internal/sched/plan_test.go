package sched

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/market"
)

// These tests drive plan on hand-built snapshots: no Scheduler, engine,
// market or lock.

// planSnap is a snapshot of two running jobs short of capacity on a cheap
// spot market: 512 cores wanted, none held, candidates of 32 instances.
func planSnap() *snapshot {
	types := market.DefaultCatalog()
	prices := make(map[string]float64, len(types))
	for _, t := range types {
		prices[t.Name] = t.OnDemand * 0.25
	}
	return &snapshot{
		elapsed: time.Hour,
		demand:  512,
		have:    0,
		acquire: true,
		count:   32,
		types:   types,
		prices:  prices,
		reliable: bidbrain.AllocState{
			Type: types[0], Count: 4, Price: types[0].OnDemand, Remaining: 40 * time.Minute, OnDemand: true,
		},
		reqs: []ShareRequest{
			{ID: 0, Priority: 1, MaxCores: 256, RemainingWork: 100},
			{ID: 1, Arrival: 10 * time.Minute, MaxCores: 256, RemainingWork: 200},
		},
	}
}

// withPool adds n pooled c4.2xlarge allocations of 8 instances (64 cores)
// each.
func withPool(snap *snapshot, n int) *snapshot {
	for i := 0; i < n; i++ {
		snap.pool = append(snap.pool, poolAlloc{
			id: market.AllocationID(i + 1), typ: snap.types[1], count: 8,
			price: snap.prices[snap.types[1].Name], bidDelta: 0.01, remaining: 30 * time.Minute,
		})
		snap.have += 64
	}
	return snap
}

func runPlan(t *testing.T, snap *snapshot, audited bool) planned {
	t.Helper()
	return plan(snap, testBrain(t, 3), FairShare{}, nil, audited)
}

func TestPlanEnoughCapacitySkipsSearch(t *testing.T) {
	snap := withPool(planSnap(), 8)
	snap.acquire = false // have == demand: snapshot() never asks
	p := runPlan(t, snap, true)
	if p.cand != nil || p.n != 0 || p.audit != nil {
		t.Fatalf("searched with capacity in hand: %+v", p)
	}
	if want := (FairShare{}).Shares(snap.elapsed, snap.reqs, snap.have); !reflect.DeepEqual(p.shares, want) {
		t.Fatalf("shares %v, want the policy's %v", p.shares, want)
	}
}

func TestPlanAcquiresAndSkipsShares(t *testing.T) {
	p := runPlan(t, planSnap(), true)
	if p.cand == nil || p.n != p.cand.Count || p.deadline {
		t.Fatalf("want a cost-per-work acquisition of the full candidate, got %+v", p)
	}
	if p.audit == nil || p.audit.Result != "acquire" {
		t.Fatalf("audited plan carries audit %+v", p.audit)
	}
	if p.shares != nil {
		t.Fatalf("shares %v computed for a footprint about to change", p.shares)
	}
	if q := runPlan(t, planSnap(), false); q.audit != nil || !reflect.DeepEqual(q.cand, p.cand) || q.n != p.n {
		t.Fatalf("unaudited plan %+v differs from audited %+v", q, p)
	}
}

func TestPlanUrgentDeadlinePicksDeadlineAcquisition(t *testing.T) {
	snap := planSnap()
	// 2000 core-hours in the next two hours cannot be met by the anchor.
	snap.reqs[1].Deadline = snap.elapsed + 2*time.Hour
	snap.reqs[1].RemainingWork = 2000
	// A later deadline on the other job must not win the pick.
	snap.reqs[0].Deadline = snap.elapsed + 50*time.Hour
	goal, ok := urgentDeadline(snap)
	if !ok || goal.Deadline != 2*time.Hour || goal.RemainingWork != 2000 {
		t.Fatalf("urgent goal %+v ok=%v", goal, ok)
	}
	p := runPlan(t, snap, true)
	if !p.deadline || p.cand == nil || p.n == 0 {
		t.Fatalf("want a deadline acquisition, got %+v", p)
	}
	if p.audit != nil {
		t.Fatal("deadline candidates carry no search audit")
	}
	// A deadline already behind the clock is no goal at all.
	snap.reqs[1].Deadline = snap.elapsed
	snap.reqs[0].Deadline = 0
	if _, ok := urgentDeadline(snap); ok {
		t.Fatal("expired deadline phrased as a goal")
	}
}

func TestPlanClampsToDemandGap(t *testing.T) {
	snap := planSnap()
	full := runPlan(t, snap, false)
	vcpus := full.cand.Type.VCPUs
	snap.demand = snap.have + 3*vcpus + 1
	if p := runPlan(t, snap, false); p.n != 3 || p.shares != nil {
		t.Fatalf("gap of 3 instances and a core: n=%d shares=%v", p.n, p.shares)
	}
	// A gap smaller than one instance plans no acquisition; the candidate
	// stays for the trace and the shares are computed after all.
	snap.demand = snap.have + vcpus - 1
	p := runPlan(t, snap, false)
	if p.n != 0 || p.cand == nil || p.shares == nil {
		t.Fatalf("sub-instance gap: %+v", p)
	}
}

func TestPlanBetaErrorCancelsOnlyTheAcquisition(t *testing.T) {
	snap := withPool(planSnap(), 2)
	snap.pool[1].typ.Name = "no-such-type" // no β table
	p := runPlan(t, snap, true)
	if p.cand != nil || p.n != 0 || p.audit != nil {
		t.Fatalf("acquisition survived a table lookup error: %+v", p)
	}
	if want := (FairShare{}).Shares(snap.elapsed, snap.reqs, snap.have); !reflect.DeepEqual(p.shares, want) {
		t.Fatalf("shares %v, want %v", p.shares, want)
	}
}

func TestPlanEmptyRunningSet(t *testing.T) {
	snap := planSnap()
	snap.reqs, snap.demand, snap.acquire = nil, 0, false
	if p := runPlan(t, snap, true); !reflect.DeepEqual(p, planned{}) {
		t.Fatalf("nothing runs, yet plan decided %+v", p)
	}
}

func TestFootprintExcludesOneAllocation(t *testing.T) {
	snap := withPool(planSnap(), 3)
	brain := testBrain(t, 3)
	all, err := footprint(snap, brain, -1)
	if err != nil || len(all) != 4 || !all[0].OnDemand {
		t.Fatalf("footprint %+v err %v", all, err)
	}
	rest, err := footprint(snap, brain, snap.pool[1].id)
	if err != nil || len(rest) != 3 {
		t.Fatalf("footprint without alloc %d: %+v err %v", snap.pool[1].id, rest, err)
	}
}

// cloneSnap deep-copies a snapshot.
func cloneSnap(s *snapshot) *snapshot {
	c := *s
	c.types, c.pool, c.reqs = slices.Clone(s.types), slices.Clone(s.pool), slices.Clone(s.reqs)
	c.prices = maps.Clone(s.prices)
	return &c
}

// TestPlanIsAPureFunctionOfItsSnapshot: over random snapshots and every
// policy, plan leaves the snapshot untouched, and planning the same
// snapshot twice gives deeply equal plans.
func TestPlanIsAPureFunctionOfItsSnapshot(t *testing.T) {
	brain := testBrain(t, 3)
	rng := rand.New(rand.NewSource(13))
	acquisitions := 0
	for iter := 0; iter < 300; iter++ {
		snap := withPool(planSnap(), rng.Intn(6))
		snap.elapsed = time.Duration(rng.Intn(48)) * time.Hour
		snap.reqs = snap.reqs[:0]
		snap.demand = 0
		for id, n := 0, rng.Intn(6); id < n; id++ {
			r := ShareRequest{
				ID: id, Priority: rng.Intn(3), Arrival: time.Duration(rng.Intn(600)) * time.Minute,
				MaxCores: 64 * (1 + rng.Intn(4)), RemainingWork: 1000 * rng.Float64(),
			}
			if rng.Intn(3) == 0 {
				r.Deadline = snap.elapsed + time.Duration(rng.Intn(20)-2)*time.Hour
				r.NeededCores = rng.Intn(r.MaxCores + 1)
			}
			snap.reqs = append(snap.reqs, r)
			snap.demand += r.MaxCores
		}
		snap.acquire = snap.have < snap.demand
		for _, t := range snap.types {
			snap.prices[t.Name] = t.OnDemand * (0.1 + 1.2*rng.Float64())
		}
		policy := []Policy{FairShare{}, CostGreedy{}, DeadlineFirst{}}[iter%3]
		before := cloneSnap(snap)
		first := plan(snap, brain, policy, nil, iter%2 == 0)
		if !reflect.DeepEqual(snap, before) {
			t.Fatalf("iter %d: plan changed its snapshot\n got  %+v\n want %+v", iter, snap, before)
		}
		if second := plan(snap, brain, policy, nil, iter%2 == 0); !reflect.DeepEqual(first, second) {
			t.Fatalf("iter %d: same snapshot, different plans\n first  %+v\n second %+v", iter, first, second)
		}
		if first.n > 0 {
			acquisitions++
			if first.shares != nil || first.n*first.cand.Type.VCPUs > snap.demand-snap.have {
				t.Fatalf("iter %d: acquisition %+v overshoots the gap or carries shares", iter, first)
			}
		} else if len(snap.reqs) > 0 && first.shares == nil {
			t.Fatalf("iter %d: no acquisition and no shares: %+v", iter, first)
		}
	}
	if acquisitions == 0 {
		t.Fatal("no random snapshot planned an acquisition; the property checked only the easy half")
	}
}

package sched

import (
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/market"
	"proteus/internal/obs"
)

// The decision path.
//
// BidBrain (§4) is one procedure run at every decision point — arrival,
// eviction, hour end, periodic tick — and so is this file: every trigger
// goes through decide, which is
//
//  1. snapshot — under mu: accrue the running jobs and capture, as plain
//     values, everything the decision reads.
//  2. plan — a pure function of the snapshot: at most one acquisition
//     (footprint evaluation, urgent-deadline pick, candidate search) or,
//     when none is planned, the policy's core shares.
//  3. commit — under mu: record the bid in the trigger's trace, buy the
//     planned capacity, move leases to the planned shares.
//
// The triggers differ only in their trigger value. The ticker releases mu
// across plan so Submit callers are not held up by the search; that is
// safe because the engine is quiescent inside a callback and Submit, the
// only concurrent mutator, appends a Pending job without touching
// anything a snapshot holds. Should that ever change, decide notices the
// drift and snapshots again rather than committing a stale plan.

// trigger says what set a decision off and what it may do.
type trigger struct {
	// cause labels the lease moves the decision makes. Empty leaves the
	// leases alone: the forecast pre-acquire only buys, and the tick's own
	// decision that follows it divides the grown footprint.
	cause string
	// acquire allows the decision to buy capacity; a bare rebalance is a
	// decision with acquisition off.
	acquire bool
	// parent, when set, is the trace span of the job whose arrival or
	// eviction set the decision off: the search runs audited and the bid
	// and acquire events land in that job's causal tree.
	parent *obs.Span
	// unlock releases mu across plan (the ticker).
	unlock bool
}

// poolAlloc is one schedulable allocation's decision inputs.
type poolAlloc struct {
	id        market.AllocationID
	typ       market.InstanceType
	count     int
	price     float64 // hourly charge per instance
	bidDelta  float64
	remaining time.Duration // left of the billing hour in progress
}

// snapshot is everything one decision reads, captured under mu as values
// (no *jobRun, no *brokerAlloc) so plan can run without the scheduler.
type snapshot struct {
	elapsed time.Duration // virtual time since the scheduler started
	demand  int           // transient cores the running jobs can absorb
	have    int           // transient cores in the schedulable pool
	// acquire is set when the trigger allows buying and have < demand;
	// only then are the market inputs below captured.
	acquire  bool
	count    int // candidate size, in instances of the smallest type
	types    []market.InstanceType
	prices   map[string]float64 // the scheduler's polled price map; read-only here
	reliable bidbrain.AllocState
	pool     []poolAlloc // in allocOrder
	// reqs holds one request per running job, in running-set order, with
	// work accrued to the snapshot instant.
	reqs []ShareRequest
}

// planned is what plan decided.
type planned struct {
	// cand is the candidate the search chose and n how many of its
	// instances to request: the candidate's count clamped to the demand
	// gap. n == 0 plans no acquisition (cand may still be set — the bid is
	// recorded in the trace either way).
	cand *bidbrain.Candidate
	n    int
	// deadline marks a candidate chosen by the deadline machinery.
	deadline bool
	// audit is the search's decision audit (audited plans only).
	audit *bidbrain.DecisionAudit
	// shares is parallel to the snapshot's reqs. Nil when an acquisition
	// is planned: the footprint is about to change, so commit divides it
	// afresh afterwards.
	shares []int
}

// snapshot captures the decision inputs. Callers hold mu and hand the
// snapshot back with returnSnap.
func (s *Scheduler) snapshot(acquire bool) *snapshot {
	snap := s.borrowSnap()
	snap.elapsed = s.eng.Now() - s.startAt
	for _, j := range s.running {
		s.accrueJob(j)
		snap.reqs = append(snap.reqs, ShareRequest{
			ID:            j.job.ID,
			Priority:      j.job.Priority,
			Arrival:       j.job.Arrival,
			Deadline:      j.job.Deadline,
			MaxCores:      j.job.Spec.MaxSpotCores,
			NeededCores:   neededCores(j, snap.elapsed),
			RemainingWork: j.job.Spec.TargetWork - j.work,
		})
	}
	snap.demand = s.totalDemand()
	snap.have = s.spotCores()
	snap.acquire = acquire && snap.have < snap.demand
	if snap.acquire {
		s.capturePool(snap)
	}
	return snap
}

// capturePool captures the market half of a snapshot: the reliable
// anchor, every pooled allocation (warned and pre-drained ones have
// released their leases and exist only to collect refunds) and the spot
// prices.
func (s *Scheduler) capturePool(snap *snapshot) {
	now := s.eng.Now()
	snap.count, snap.types = s.chunkCount, s.mkt.Types()
	snap.prices = s.pollPrices()
	snap.reliable = bidbrain.AllocState{
		Type:      s.reliable.Type,
		Count:     s.reliable.Count,
		Price:     s.reliable.Type.OnDemand,
		Remaining: s.reliable.HourEnd(now) - now,
		OnDemand:  true,
	}
	for _, id := range s.allocOrder {
		ba := s.allocs[id]
		if ba.outOfPool() {
			continue
		}
		snap.pool = append(snap.pool, poolAlloc{
			id:        id,
			typ:       ba.alloc.Type,
			count:     ba.alloc.Count,
			price:     ba.alloc.HourCharge() / float64(ba.alloc.Count),
			bidDelta:  ba.bidDelta,
			remaining: ba.alloc.HourEnd(now) - now,
		})
	}
}

// neededCores is the sustained core count that finishes the job exactly
// at its deadline — the deadline-first policy's reservation.
func neededCores(j *jobRun, elapsed time.Duration) int {
	if j.job.Deadline == 0 {
		return 0
	}
	left := (j.job.Deadline - elapsed).Hours()
	if left <= 0 {
		return j.job.Spec.MaxSpotCores
	}
	p := j.job.Spec.Params
	perCore := p.Phi * p.NuPerCore
	if perCore <= 0 {
		return j.job.Spec.MaxSpotCores
	}
	need := int((j.job.Spec.TargetWork-j.work)/(left*perCore)) + 1
	if need > j.job.Spec.MaxSpotCores {
		need = j.job.Spec.MaxSpotCores
	}
	if need < 0 {
		need = 0
	}
	return need
}

// plan decides. It is a pure function of the snapshot (which it leaves
// untouched) and of the brain's tables, the policy and the forecaster,
// none of which it mutates.
//
// When the snapshot calls for capacity, the pooled footprint is
// evaluated and searched: a running job whose deadline is in jeopardy
// lets the deadline machinery pick the candidate (the cheapest that
// restores feasibility); otherwise the cost-per-work objective does,
// blended with fc's live forecast when there is one. A table lookup
// error cancels the acquisition and nothing else. Shares are computed
// only when no acquisition is planned.
func plan(snap *snapshot, brain *bidbrain.Brain, policy Policy, fc bidbrain.ForecastSource, audited bool) planned {
	var p planned
	if snap.acquire {
		p.search(snap, brain, fc, audited)
	}
	if p.n == 0 && len(snap.reqs) > 0 {
		p.shares = policy.Shares(snap.elapsed, snap.reqs, snap.have)
	}
	return p
}

// search is plan's acquisition half.
func (p *planned) search(snap *snapshot, brain *bidbrain.Brain, fc bidbrain.ForecastSource, audited bool) {
	foot, err := footprint(snap, brain, -1)
	if err != nil {
		return
	}
	if goal, ok := urgentDeadline(snap); ok {
		dc, err := brain.DeadlineAcquisition(foot, goal, snap.prices, snap.types, snap.count)
		if err == nil && dc != nil {
			p.cand, p.deadline = &dc.Candidate, true
		}
	}
	if p.cand == nil {
		// A nil fc is the historical-only search.
		if audited {
			p.cand, p.audit, err = brain.BestAcquisitionForecastAudited(foot, snap.prices, snap.types, snap.count, fc)
		} else {
			p.cand, err = brain.BestAcquisitionForecast(foot, snap.prices, snap.types, snap.count, fc)
		}
		if err != nil || p.cand == nil {
			p.cand = nil
			return
		}
	}
	p.n = max(0, min(p.cand.Count, (snap.demand-snap.have)/p.cand.Type.VCPUs))
}

// footprint translates the snapshot's pool into BidBrain state — the
// reliable anchor first, then the pooled allocations with their eviction
// probability and expected useful time — leaving out one allocation (for
// its own renewal decision).
func footprint(snap *snapshot, brain *bidbrain.Brain, exclude market.AllocationID) ([]bidbrain.AllocState, error) {
	out := make([]bidbrain.AllocState, 1, len(snap.pool)+1)
	out[0] = snap.reliable
	for i := range snap.pool {
		a := &snap.pool[i]
		if a.id == exclude {
			continue
		}
		beta, err := brain.Beta(a.typ.Name, a.bidDelta)
		if err != nil {
			return nil, err
		}
		omega, err := brain.ExpectedUsefulTime(a.typ.Name, a.bidDelta, a.remaining)
		if err != nil {
			return nil, err
		}
		out = append(out, bidbrain.AllocState{
			Type:      a.typ,
			Count:     a.count,
			Price:     a.price,
			Beta:      beta,
			Remaining: a.remaining,
			Omega:     omega,
		})
	}
	return out, nil
}

// urgentDeadline finds the running deadline job in most jeopardy — the
// earliest deadline, the first in running-set order on ties — and phrases
// it as a bidbrain goal.
func urgentDeadline(snap *snapshot) (bidbrain.DeadlineGoal, bool) {
	var best *ShareRequest
	for i := range snap.reqs {
		r := &snap.reqs[i]
		if r.Deadline != 0 && (best == nil || r.Deadline < best.Deadline) {
			best = r
		}
	}
	if best == nil {
		return bidbrain.DeadlineGoal{}, false
	}
	left := best.Deadline - snap.elapsed
	if best.RemainingWork <= 0 || left <= 0 {
		return bidbrain.DeadlineGoal{}, false
	}
	return bidbrain.DeadlineGoal{RemainingWork: best.RemainingWork, Deadline: left}, true
}

// decide runs one decision and reports whether it bought capacity.
// Callers hold mu; with t.unlock it is released across plan and held
// again on return.
func (s *Scheduler) decide(t trigger) bool {
	if s.draining {
		return false
	}
	var fc bidbrain.ForecastSource
	if s.fc != nil {
		fc = s.fc
	}
	snap := s.snapshot(t.acquire)
	if t.unlock {
		s.mu.Unlock()
	}
	p := plan(snap, s.cfg.Brain, s.cfg.Policy, fc, t.parent != nil)
	if t.unlock {
		s.mu.Lock()
		if s.drifted(snap) {
			s.returnSnap(snap)
			snap = s.snapshot(t.acquire)
			p = plan(snap, s.cfg.Brain, s.cfg.Policy, fc, t.parent != nil)
		}
	}
	acquired := s.commit(snap, p, t)
	s.returnSnap(snap)
	return acquired
}

// rebalance re-divides the pooled footprint among the running jobs: a
// decision with acquisition off.
func (s *Scheduler) rebalance(cause string) { s.decide(trigger{cause: cause}) }

// drifted reports whether the scheduler no longer matches the snapshot:
// another demand or pool size, another running set, or — when an
// acquisition may have been planned — another pool.
func (s *Scheduler) drifted(snap *snapshot) bool {
	if s.totalDemand() != snap.demand || s.spotCores() != snap.have || len(s.running) != len(snap.reqs) {
		return true
	}
	for i, j := range s.running {
		if snap.reqs[i].ID != j.job.ID {
			return true
		}
	}
	if !snap.acquire {
		return false
	}
	i := 0
	for _, id := range s.allocOrder {
		if s.allocs[id].outOfPool() {
			continue
		}
		if i >= len(snap.pool) || snap.pool[i].id != id {
			return true
		}
		i++
	}
	return i != len(snap.pool)
}

// commit applies a plan: the bid lands in the trigger's trace, then the
// planned capacity is requested and leased out (cause "acquire") before
// the trigger's own division of the footprint; a plan without an
// acquisition moves leases to its shares.
func (s *Scheduler) commit(snap *snapshot, p planned, t trigger) bool {
	if t.parent != nil {
		switch {
		case p.audit != nil:
			t.parent.EventAttrs("bidbrain", "bid", p.audit, "decision: %s", p.audit.Result)
		case p.deadline:
			t.parent.Eventf("bidbrain", "bid", "deadline acquisition: %dx %s bid=$%.4f (beta %.3f)",
				p.cand.Count, p.cand.Type.Name, p.cand.Bid, p.cand.Beta)
		}
	}
	if p.n == 0 {
		if t.cause != "" {
			s.applyShares(snap.reqs, p.shares, t.cause)
		}
		return false
	}
	acquired := s.acquire(p.cand, p.n, t.parent)
	if acquired {
		s.rebalance("acquire")
	}
	if t.cause != "" {
		s.rebalance(t.cause)
	}
	return acquired
}

// acquire requests n instances of the candidate from the market and puts
// them on the broker's books.
func (s *Scheduler) acquire(cand *bidbrain.Candidate, n int, parent *obs.Span) bool {
	alloc, err := s.mkt.RequestSpot(cand.Type.Name, n, cand.Bid)
	if err != nil {
		return false
	}
	if parent != nil {
		parent.Eventf("sched", "acquire", "alloc %d: %dx %s bid=$%.4f (delta $%.4f)",
			alloc.ID, n, cand.Type.Name, cand.Bid, cand.BidDelta)
	}
	ba := &brokerAlloc{alloc: alloc, bidDelta: cand.BidDelta}
	s.addAlloc(ba)
	s.scheduleHourEnd(ba)
	return true
}

// Snapshots are borrowed from a free-list, not kept in one scratch field,
// because decisions nest: commit → grant → recomputeRate → onJobDone →
// rebalance("completion").

func (s *Scheduler) borrowSnap() *snapshot {
	n := len(s.snapFree)
	if n == 0 {
		return &snapshot{}
	}
	snap := s.snapFree[n-1]
	s.snapFree = s.snapFree[:n-1]
	snap.reqs, snap.pool = snap.reqs[:0], snap.pool[:0]
	return snap
}

func (s *Scheduler) returnSnap(snap *snapshot) { s.snapFree = append(s.snapFree, snap) }

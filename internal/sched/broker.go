package sched

import (
	"fmt"
	"strconv"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/trace"
)

// The footprint broker: the shared pool's books (allocations, leases,
// hour-end renewals, the market's eviction callbacks) and the placement
// half of a decision, applyShares. What to buy and how to divide it is
// decided in decision.go.

// addAlloc registers a fresh acquisition with the broker. Market IDs are
// monotonic, so appending keeps allocOrder sorted.
func (s *Scheduler) addAlloc(ba *brokerAlloc) {
	s.allocs[ba.alloc.ID] = ba
	s.allocOrder = append(s.allocOrder, ba.alloc.ID)
}

// removeAlloc drops an allocation from the broker's books.
func (s *Scheduler) removeAlloc(id market.AllocationID) {
	delete(s.allocs, id)
	for i, v := range s.allocOrder {
		if v == id {
			s.allocOrder = append(s.allocOrder[:i], s.allocOrder[i+1:]...)
			break
		}
	}
}

// sortedAllocIDs returns the broker's allocations in ascending ID order.
// A copy, for walks that delete allocations as they go. Walks that only
// move leases range over allocOrder itself: nothing reachable from
// release or grant adds or removes an allocation.
func (s *Scheduler) sortedAllocIDs() []market.AllocationID {
	return append([]market.AllocationID(nil), s.allocOrder...)
}

// outOfPool reports allocations excluded from the schedulable footprint:
// warned ones (lease released, alive only for the refund) and
// pre-drained ones (parked by the forecaster awaiting the predicted
// eviction).
func (b *brokerAlloc) outOfPool() bool { return b.warned || b.predrained }

// spotCores counts leased-or-idle transient cores still in the pool.
func (s *Scheduler) spotCores() int {
	total := 0
	for _, ba := range s.allocs {
		if !ba.outOfPool() {
			total += ba.cores()
		}
	}
	return total
}

// totalDemand is the gross transient-core demand of running jobs,
// bounded by the global cap.
func (s *Scheduler) totalDemand() int {
	demand := 0
	for _, j := range s.running {
		demand += j.job.Spec.MaxSpotCores
	}
	if demand > s.cfg.MaxSpotCores {
		demand = s.cfg.MaxSpotCores
	}
	return demand
}

// pollPrices refreshes the reusable spot-price map through the market's
// per-type change subscription: only types whose price moved since the
// last poll are re-read, and an unmoved type's cached entry equals the
// lookup it elides by construction — so every BidBrain search sees the
// exact prices a full SpotPrice sweep would have produced. Catalog
// types always resolve (the market refuses to build without a trace per
// type), which is why this path carries no error return.
func (s *Scheduler) pollPrices() map[string]float64 {
	if s.priceSub == nil {
		s.priceSub = s.mkt.SubscribePrices()
		s.priceScratch = make(map[string]float64, s.priceSub.Len())
	}
	for _, i := range s.priceSub.Poll(s.eng.Now()) {
		s.priceScratch[s.priceSub.Type(i).Name] = s.priceSub.Price(i)
	}
	return s.priceScratch
}

// scheduleHourEnd arms the pre-hour-end renew/terminate decision (§4.2).
// Warned allocations are left alone — terminating them would forfeit the
// refund arriving with the eviction. Draining or surplus capacity
// terminates before the next hour is charged.
func (s *Scheduler) scheduleHourEnd(ba *brokerAlloc) {
	now := s.eng.Now()
	at := ba.alloc.HourEnd(now) - preHourLead
	if at <= now {
		at = ba.alloc.HourEnd(now) + trace.BillingHour - preHourLead
	}
	s.eng.AtTransient(at, "sched.hourEnd", func() {
		cur, ok := s.allocs[ba.alloc.ID]
		if !ok || cur != ba {
			return
		}
		if ba.warned {
			return
		}
		if ba.predrained {
			// The predicted eviction never arrived before the hour-end
			// decision: settle the drain as a miss and hand the machines
			// back to the renewal logic below.
			s.resolvePredrain(ba, false)
			ba.predrained = false
		}
		if s.draining {
			s.terminate(ba)
			return
		}
		if s.spotCores()-ba.cores() >= s.totalDemand() {
			s.terminate(ba)
			s.rebalance("shrink")
			return
		}
		// The renewal weighs ba against the rest of the pool: the same
		// pool capture and footprint evaluation a decision uses.
		snap := s.borrowSnap()
		s.capturePool(snap)
		rest, err := footprint(snap, s.cfg.Brain, ba.alloc.ID)
		price := snap.prices[ba.alloc.Type.Name]
		s.returnSnap(snap)
		if err != nil {
			return
		}
		beta, _ := s.cfg.Brain.Beta(ba.alloc.Type.Name, ba.bidDelta)
		state := bidbrain.AllocState{
			Type:      ba.alloc.Type,
			Count:     ba.alloc.Count,
			Price:     price,
			Beta:      beta,
			Remaining: trace.BillingHour,
		}
		if price > ba.alloc.Bid || !s.cfg.Brain.ShouldRenew(rest, state, price) {
			s.terminate(ba)
			s.rebalance("renewal")
			return
		}
		s.scheduleHourEnd(ba)
	})
}

func (s *Scheduler) terminate(ba *brokerAlloc) {
	s.release(ba)
	s.removeAlloc(ba.alloc.ID)
	_ = s.mkt.Terminate(ba.alloc)
}

// release reclaims the allocation's lease, returning it to the idle
// pool. The (former) holder's rate drops and its hooks shrink.
func (s *Scheduler) release(ba *brokerAlloc) {
	j := ba.holder
	if j == nil {
		return
	}
	now := s.eng.Now()
	held := now - ba.leaseStart
	s.leaseHistogram().ObserveEx(held.Seconds(), j.traceID)
	if ba.leaseSpan != nil {
		ba.leaseSpan.EndDetail(leaseHeldDetail(ba.alloc.ID, ba.cores(), held))
		ba.leaseSpan = nil
	}
	j.coreSeconds += held.Seconds() * float64(ba.cores())
	j.leasedCores -= ba.cores()
	ba.lastHolder = j
	ba.holder = nil
	s.recomputeRate(j)
	if j.hooks != nil {
		var err error
		if pd, ok := j.hooks.(ProactiveDrainer); ok && ba.predrained {
			// Forecast-initiated drain: flush in-flight state first, then
			// walk the same §3.3 eviction path a warning would have taken
			// — with the whole lead time instead of the 2-minute window.
			err = pd.PreDrain(ba.cores())
		} else {
			err = j.hooks.Shrink(ba.cores())
		}
		if err != nil {
			s.fail(fmt.Errorf("sched: job %d shrink hook: %w", j.job.ID, err))
		}
	}
}

// grant leases the allocation to the job. A first-ever lease pays the
// job's σ incorporation pause; transfers of warm machines do not.
func (s *Scheduler) grant(ba *brokerAlloc, j *jobRun) {
	ba.holder = j
	ba.leaseStart = s.eng.Now()
	if j.span != nil {
		ba.leaseSpan = j.span.ChildDetail("sched", "lease",
			leaseGrantDetail(ba.alloc.ID, ba.alloc.Count, ba.alloc.Type.Name, ba.cores()))
	}
	j.leasedCores += ba.cores()
	if !j.everRan && j.state == Running {
		j.everRan = true
		s.emitJob(EventRunning, j, fmt.Sprintf("first lease: %d cores", ba.cores()))
	}
	if !ba.everLeased {
		ba.everLeased = true
		s.pauseJob(j, j.job.Spec.Params.Sigma)
	}
	s.recomputeRate(j)
	if j.hooks != nil {
		if err := j.hooks.Grow(ba.cores()); err != nil {
			s.fail(fmt.Errorf("sched: job %d grow hook: %w", j.job.ID, err))
		}
	}
}

// leaseGrantDetail and leaseHeldDetail render the lease span's two
// details — fmt.Sprintf("alloc %d: %dx %s = %d cores", ...) at grant and
// fmt.Sprintf("alloc %d: %d cores held %v", ...) at release, to the byte
// — with strconv into a stack buffer: a lease is the scheduler's most
// frequent span, and two fmt passes per lease were 15 % of a recovery.

func leaseGrantDetail(id market.AllocationID, count int, typeName string, cores int) string {
	var buf [64]byte
	b := append(buf[:0], "alloc "...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ": "...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, "x "...)
	b = append(b, typeName...)
	b = append(b, " = "...)
	b = strconv.AppendInt(b, int64(cores), 10)
	b = append(b, " cores"...)
	return string(b)
}

func leaseHeldDetail(id market.AllocationID, cores int, held time.Duration) string {
	var buf [64]byte
	b := append(buf[:0], "alloc "...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ": "...)
	b = strconv.AppendInt(b, int64(cores), 10)
	b = append(b, " cores held "...)
	b = append(b, held.String()...)
	return string(b)
}

// applyShares is the placement half of a decision: it moves leases to
// the planned core shares (parallel to reqs, the snapshot's running jobs).
// Current holders keep their leases when the new shares allow,
// minimizing churn; the move is counted (and recorded in the utilization
// timeline) only when a lease actually changes hands. A job that
// completes mid-walk stays in reqs, exactly as it stays in the snapshot.
func (s *Scheduler) applyShares(reqs []ShareRequest, shares []int, cause string) {
	changed := false
	if len(reqs) == 0 {
		for _, id := range s.allocOrder {
			if ba := s.allocs[id]; ba.holder != nil {
				s.release(ba)
				changed = true
			}
		}
	} else {
		target := s.borrowTarget()
		for i, r := range reqs {
			if i < len(shares) {
				target[r.ID] = shares[i]
			}
		}
		// Pass 1: keep holders whose share still covers their lease.
		for _, id := range s.allocOrder {
			ba := s.allocs[id]
			if ba.outOfPool() || ba.holder == nil {
				continue
			}
			if ba.holder.state == Running && target[ba.holder.job.ID] >= ba.cores() {
				target[ba.holder.job.ID] -= ba.cores()
				continue
			}
			s.release(ba)
			changed = true
		}
		// Pass 2: hand idle allocations to the largest remaining share.
		for _, id := range s.allocOrder {
			ba := s.allocs[id]
			if ba.outOfPool() || ba.holder != nil {
				continue
			}
			pick, best := -1, 0
			for i := range reqs {
				if t := target[reqs[i].ID]; t > best {
					best, pick = t, reqs[i].ID
				}
			}
			if pick < 0 {
				continue
			}
			target[pick] -= ba.cores()
			s.grant(ba, s.byID[pick])
			changed = true
		}
		s.returnTarget(target)
	}
	if changed {
		s.rebalances++
		s.rebalanceCounter(cause).Inc()
	}
	s.observeState(changed)
}

// target ledgers are borrowed from a free-list because applyShares nests
// (grant → recomputeRate → onJobDone → rebalance("completion")).

func (s *Scheduler) borrowTarget() map[int]int {
	if n := len(s.tgtFree); n > 0 {
		m := s.tgtFree[n-1]
		s.tgtFree = s.tgtFree[:n-1]
		clear(m)
		return m
	}
	return make(map[int]int, 8)
}

func (s *Scheduler) returnTarget(m map[int]int) { s.tgtFree = append(s.tgtFree, m) }

// --- market.Handler -------------------------------------------------

// EvictionWarning implements market.Handler: the broker reclaims the
// lease immediately — the holder's elasticity controller drains within
// the warning window (§3.3) — while the allocation itself stays alive to
// collect the eviction refund.
func (s *Scheduler) EvictionWarning(a *market.Allocation, _ time.Duration) {
	ba, ok := s.allocs[a.ID]
	if !ok {
		return
	}
	ba.warned = true
	ba.warnedAt = s.eng.Now()
	if ba.predrained {
		// The forecaster called it: state was drained before the warning
		// even arrived. Record the hit and how much lead it bought.
		s.resolvePredrain(ba, true)
	}
	if j := ba.holder; j != nil && j.span != nil {
		j.span.Eventf("sched", "eviction-warning",
			"alloc %d (%d cores): lease reclaimed, draining within warning window", a.ID, ba.cores())
	}
	s.release(ba)
	s.rebalance("warning")
}

// Evicted implements market.Handler: the machines are gone; the former
// holder pays the λ disruption and the broker reconsiders the market.
func (s *Scheduler) Evicted(a *market.Allocation) {
	ba, ok := s.allocs[a.ID]
	if !ok {
		return
	}
	s.release(ba) // zero-warning markets evict without a prior warning
	s.removeAlloc(a.ID)
	if ba.predrained {
		s.resolvePredrain(ba, true) // eviction with no prior warning still validates the drain
	}
	var parent *obs.Span
	if j := ba.lastHolder; j != nil {
		// The in-progress hour's charge comes back on eviction (§2.2 "free
		// compute"); record it in the causal tree of the job that paid it.
		if j.span != nil {
			j.span.Eventf("sched", "refund",
				"alloc %d evicted: $%.4f refunded for the in-progress hour", a.ID, a.HourCharge())
		}
		if j.state == Running {
			j.evictions++
			parent = j.span
			if !ba.predrained {
				// The λ disruption is the cost of reacting to the warning;
				// a pre-drained job already moved its state off these
				// machines with the whole forecast lead to do it.
				s.pauseJob(j, j.job.Spec.Params.Lambda)
			}
		}
	}
	s.decide(trigger{cause: "eviction", acquire: true, parent: parent})
}

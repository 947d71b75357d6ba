package sched

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// ShareRequest describes one running job's claim on the shared transient
// footprint at a rebalance point.
type ShareRequest struct {
	ID       int
	Priority int
	Arrival  time.Duration
	// Deadline is the job's completion target (offset from scheduler
	// start); zero means none.
	Deadline time.Duration
	// MaxCores is the most transient cores the job can absorb.
	MaxCores int
	// NeededCores is the sustained core count that finishes the job
	// exactly at its deadline (zero when no deadline).
	NeededCores int
	// RemainingWork is the core-hours still to accrue.
	RemainingWork float64
}

// Policy divides the available transient cores among running jobs. The
// returned slice is parallel to reqs; entries may exceed availability
// intent-wise but their sum must not exceed total. Implementations must
// be deterministic in their inputs.
//
// The three policies here sort indexes into reqs and compare the
// requests in place. Job IDs are unique and every comparator ends on
// them, so each is a total order and the unstable sort has exactly one
// result.
type Policy interface {
	Name() string
	Shares(now time.Duration, reqs []ShareRequest, total int) []int
}

// weight is a job's fair-share weight: priority+1, at least 1.
func weight(priority int) int {
	return max(priority+1, 1)
}

// FairShare divides cores proportionally to priority weight
// (priority+1), capped per job, leftover round-robin to the
// highest-weight jobs first.
type FairShare struct{}

// Name implements Policy.
func (FairShare) Name() string { return "fair" }

// Shares implements Policy.
func (FairShare) Shares(_ time.Duration, reqs []ShareRequest, total int) []int {
	out := make([]int, len(reqs))
	if len(reqs) == 0 || total <= 0 {
		return out
	}
	sumW := 0
	for _, r := range reqs {
		if r.MaxCores > 0 {
			sumW += weight(r.Priority)
		}
	}
	if sumW == 0 {
		return out
	}
	given := 0
	for i, r := range reqs {
		if r.MaxCores <= 0 {
			continue
		}
		out[i] = total * weight(r.Priority) / sumW
		if out[i] > r.MaxCores {
			out[i] = r.MaxCores
		}
		given += out[i]
	}
	// Leftover (rounding and caps) goes one core at a time, heaviest
	// weight first, then lowest ID for determinism.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		a, b := &reqs[x], &reqs[y]
		if wa, wb := weight(a.Priority), weight(b.Priority); wa != wb {
			return cmp.Compare(wb, wa)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	for given < total {
		progressed := false
		for _, i := range order {
			if given >= total {
				break
			}
			if out[i] < reqs[i].MaxCores {
				out[i]++
				given++
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// CostGreedy packs cores into the jobs closest to completion
// (shortest remaining work first), draining the queue fastest and
// minimizing the wall-clock the shared reliable anchor must be paid for.
type CostGreedy struct{}

// Name implements Policy.
func (CostGreedy) Name() string { return "cost-greedy" }

// Shares implements Policy.
func (CostGreedy) Shares(_ time.Duration, reqs []ShareRequest, total int) []int {
	out := make([]int, len(reqs))
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		a, b := &reqs[x], &reqs[y]
		if a.RemainingWork != b.RemainingWork {
			return cmp.Compare(a.RemainingWork, b.RemainingWork)
		}
		if a.Priority != b.Priority {
			return cmp.Compare(b.Priority, a.Priority)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	rem := total
	for _, i := range order {
		give := reqs[i].MaxCores
		if give > rem {
			give = rem
		}
		out[i] = give
		rem -= give
		if rem == 0 {
			break
		}
	}
	return out
}

// DeadlineFirst reserves each deadline job's needed cores in
// earliest-deadline-first order, then fair-shares the remainder among
// all jobs up to their caps.
type DeadlineFirst struct{}

// Name implements Policy.
func (DeadlineFirst) Name() string { return "deadline" }

// Shares implements Policy.
func (DeadlineFirst) Shares(now time.Duration, reqs []ShareRequest, total int) []int {
	out := make([]int, len(reqs))
	order := make([]int, 0, len(reqs))
	for i, r := range reqs {
		if r.Deadline > 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(x, y int) int {
		a, b := &reqs[x], &reqs[y]
		if a.Deadline != b.Deadline {
			return cmp.Compare(a.Deadline, b.Deadline)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	rem := total
	for _, i := range order {
		give := reqs[i].NeededCores
		if give > reqs[i].MaxCores {
			give = reqs[i].MaxCores
		}
		if give > rem {
			give = rem
		}
		out[i] = give
		rem -= give
	}
	if rem > 0 {
		residual := make([]ShareRequest, len(reqs))
		copy(residual, reqs)
		for i := range residual {
			residual[i].MaxCores -= out[i]
		}
		extra := (FairShare{}).Shares(now, residual, rem)
		for i := range out {
			out[i] += extra[i]
		}
	}
	return out
}

// PolicyByName resolves a CLI policy flag.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "fair", "fair-share", "":
		return FairShare{}, nil
	case "cost", "cost-greedy", "greedy":
		return CostGreedy{}, nil
	case "deadline", "deadline-first", "edf":
		return DeadlineFirst{}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want fair, cost-greedy, or deadline)", name)
}

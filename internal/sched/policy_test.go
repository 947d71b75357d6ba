package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func sumShares(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}

func TestFairShareRespectsCapsAndTotal(t *testing.T) {
	reqs := []ShareRequest{
		{ID: 0, Priority: 0, MaxCores: 100},
		{ID: 1, Priority: 2, MaxCores: 100},
		{ID: 2, Priority: 0, MaxCores: 10},
	}
	out := (FairShare{}).Shares(0, reqs, 120)
	if sumShares(out) > 120 {
		t.Fatalf("shares %v exceed total", out)
	}
	for i, r := range reqs {
		if out[i] > r.MaxCores {
			t.Fatalf("share %d exceeds cap: %v", i, out)
		}
	}
	if out[1] <= out[0] {
		t.Fatalf("priority 2 should out-share priority 0: %v", out)
	}
	// Capacity under caps is fully distributed.
	if sumShares(out) != 120 {
		t.Fatalf("left cores on the table: %v", out)
	}
}

func TestFairShareCapsBindEverything(t *testing.T) {
	reqs := []ShareRequest{{ID: 0, MaxCores: 8}, {ID: 1, MaxCores: 8}}
	out := (FairShare{}).Shares(0, reqs, 1000)
	if out[0] != 8 || out[1] != 8 {
		t.Fatalf("want both capped at 8, got %v", out)
	}
	if got := (FairShare{}).Shares(0, nil, 100); len(got) != 0 {
		t.Fatalf("no requests should give no shares, got %v", got)
	}
	if got := (FairShare{}).Shares(0, reqs, 0); sumShares(got) != 0 {
		t.Fatalf("zero cores should give zero shares, got %v", got)
	}
}

func TestCostGreedyPacksShortestFirst(t *testing.T) {
	reqs := []ShareRequest{
		{ID: 0, MaxCores: 100, RemainingWork: 500},
		{ID: 1, MaxCores: 100, RemainingWork: 5},
		{ID: 2, MaxCores: 100, RemainingWork: 50},
	}
	out := (CostGreedy{}).Shares(0, reqs, 150)
	if out[1] != 100 {
		t.Fatalf("shortest job should be fully packed: %v", out)
	}
	if out[2] != 50 || out[0] != 0 {
		t.Fatalf("remainder should go to next-shortest: %v", out)
	}
}

func TestDeadlineFirstReservesNeededCores(t *testing.T) {
	reqs := []ShareRequest{
		{ID: 0, MaxCores: 100},
		{ID: 1, MaxCores: 100, Deadline: time.Hour, NeededCores: 60},
		{ID: 2, MaxCores: 100, Deadline: 2 * time.Hour, NeededCores: 30},
	}
	out := (DeadlineFirst{}).Shares(0, reqs, 100)
	if out[1] < 60 {
		t.Fatalf("earliest deadline under-served: %v", out)
	}
	if out[2] < 30 {
		t.Fatalf("second deadline under-served: %v", out)
	}
	if sumShares(out) != 100 {
		t.Fatalf("residual not distributed: %v", out)
	}
}

func TestDeadlineFirstStarvesGracefully(t *testing.T) {
	// Reservations beyond capacity: earliest deadline wins what exists.
	reqs := []ShareRequest{
		{ID: 0, MaxCores: 100, Deadline: time.Hour, NeededCores: 80},
		{ID: 1, MaxCores: 100, Deadline: 30 * time.Minute, NeededCores: 80},
	}
	out := (DeadlineFirst{}).Shares(0, reqs, 100)
	if out[1] != 80 {
		t.Fatalf("EDF order violated: %v", out)
	}
	if out[0] != 20 {
		t.Fatalf("leftover should go to the later deadline: %v", out)
	}
}

func TestPolicyByName(t *testing.T) {
	cases := map[string]string{
		"fair":        "fair",
		"":            "fair",
		"cost-greedy": "cost-greedy",
		"greedy":      "cost-greedy",
		"deadline":    "deadline",
		"edf":         "deadline",
	}
	for in, want := range cases {
		p, err := PolicyByName(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if p.Name() != want {
			t.Fatalf("%q resolved to %q, want %q", in, p.Name(), want)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// The ref* functions are the three policies as they stood when they
// sorted through sort.Slice, kept as the reference the shipped policies
// must equal element for element.

func refOrder(n int, keep func(i int) bool, less func(a, b int) bool) []int {
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if keep == nil || keep(i) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return less(order[a], order[b]) })
	return order
}

func refFairShare(reqs []ShareRequest, total int) []int {
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
	order := refOrder(len(reqs), nil, func(a, b int) bool {
		ra, rb := reqs[a], reqs[b]
		if weight(ra.Priority) != weight(rb.Priority) {
			return weight(ra.Priority) > weight(rb.Priority)
		}
		return ra.ID < rb.ID
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

func refCostGreedy(reqs []ShareRequest, total int) []int {
	out := make([]int, len(reqs))
	order := refOrder(len(reqs), nil, func(a, b int) bool {
		ra, rb := reqs[a], reqs[b]
		if ra.RemainingWork != rb.RemainingWork {
			return ra.RemainingWork < rb.RemainingWork
		}
		if ra.Priority != rb.Priority {
			return ra.Priority > rb.Priority
		}
		return ra.ID < rb.ID
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

func refDeadlineFirst(reqs []ShareRequest, total int) []int {
	out := make([]int, len(reqs))
	order := refOrder(len(reqs), func(i int) bool { return reqs[i].Deadline > 0 }, func(a, b int) bool {
		ra, rb := reqs[a], reqs[b]
		if ra.Deadline != rb.Deadline {
			return ra.Deadline < rb.Deadline
		}
		return ra.ID < rb.ID
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
		extra := refFairShare(residual, rem)
		for i := range out {
			out[i] += extra[i]
		}
	}
	return out
}

// TestPoliciesMatchSortSliceReference: on random request sets drawn from
// deliberately small value pools — so equal weights, equal deadlines,
// equal remaining work, zero caps, an empty pool and an over-subscribed
// one all occur, and every comparator is decided by its ID tie-break
// often — each policy returns exactly what its sort.Slice reference
// returns. IDs are unique, as the scheduler's are.
func TestPoliciesMatchSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	priorities := []int{-3, -1, 0, 0, 1, 1, 4}
	deadlines := []time.Duration{0, 0, time.Hour, time.Hour, 90 * time.Minute, 6 * time.Hour}
	remaining := []float64{0, 1.5, 1.5, 10, 10, 640}
	caps := []int{0, 0, 1, 4, 16, 64}
	totals := []int{-1, 0, 1, 7, 64, 1000}
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(13)
		if trial%50 == 0 {
			n = 64 + rng.Intn(64) // past any insertion-sort cutoff
		}
		reqs := make([]ShareRequest, n)
		for i, id := range rng.Perm(n) {
			reqs[i] = ShareRequest{
				ID:            3 * id,
				Priority:      priorities[rng.Intn(len(priorities))],
				Arrival:       time.Duration(rng.Intn(4)) * time.Minute,
				Deadline:      deadlines[rng.Intn(len(deadlines))],
				MaxCores:      caps[rng.Intn(len(caps))],
				NeededCores:   rng.Intn(24),
				RemainingWork: remaining[rng.Intn(len(remaining))],
			}
		}
		total := totals[rng.Intn(len(totals))]
		now := time.Duration(rng.Intn(3)) * time.Hour
		input := append([]ShareRequest(nil), reqs...)
		for _, c := range []struct {
			policy Policy
			want   []int
		}{
			{FairShare{}, refFairShare(reqs, total)},
			{CostGreedy{}, refCostGreedy(reqs, total)},
			{DeadlineFirst{}, refDeadlineFirst(reqs, total)},
		} {
			got := c.policy.Shares(now, reqs, total)
			if !slices.Equal(got, c.want) {
				t.Fatalf("trial %d: %s over total %d\nreqs %+v\n got %v\nwant %v",
					trial, c.policy.Name(), total, reqs, got, c.want)
			}
			if !slices.Equal(reqs, input) {
				t.Fatalf("trial %d: %s modified its requests", trial, c.policy.Name())
			}
		}
	}
}

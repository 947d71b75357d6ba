package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"
)

// shardJobs is the golden-fingerprint workload: staggered arrivals, mixed
// priorities, a couple of deadlines, and (with MaxConcurrent=3) enough
// jobs that the admission queue actually queues.
func shardJobs() []Job {
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{
			ID:       i,
			Name:     "tenant",
			Spec:     smallSpec(),
			Arrival:  time.Duration(i) * 7 * time.Minute,
			Priority: i % 3,
		}
	}
	jobs[4].Deadline = 48 * time.Hour
	jobs[9].Deadline = 72 * time.Hour
	return jobs
}

// TestAdmissionMatchesGlobalOrder: popping the admission heap must yield
// exactly the total admitBefore order a full sort would.
func TestAdmissionMatchesGlobalOrder(t *testing.T) {
	var queue admitHeap
	var all []*jobRun
	for id := 0; id < 40; id++ {
		j := &jobRun{job: Job{
			ID:       id,
			Priority: id % 4,
			Arrival:  time.Duration(id%7) * time.Minute,
		}}
		if id%3 == 0 {
			j.job.Deadline = time.Duration(24+id%5) * time.Hour
		}
		all = append(all, j)
		heap.Push(&queue, j)
	}
	want := append([]*jobRun(nil), all...)
	sort.Slice(want, func(i, j int) bool { return admitBefore(want[i], want[j]) })
	for i, w := range want {
		if len(queue) == 0 {
			t.Fatalf("queue ran dry at %d of %d", i, len(want))
		}
		if got := heap.Pop(&queue).(*jobRun); got != w {
			t.Fatalf("pop %d: got job %d, want job %d", i, got.job.ID, w.job.ID)
		}
	}
	if len(queue) != 0 {
		t.Fatalf("%d jobs left in the queue", len(queue))
	}
}

// submitGate is a placement policy that, the first time a decision
// tick consults it with mu released (the plan phase, where Submit
// callers get in), opens a window for a submitter and waits until the
// submitter closes done. Only the drive loop calls Shares.
type submitGate struct {
	Policy
	s      *Scheduler
	opened bool
	open   chan struct{}
	done   chan struct{}
}

func (g *submitGate) Shares(now time.Duration, reqs []ShareRequest, total int) []int {
	if !g.opened && g.s.mu.TryLock() {
		g.s.mu.Unlock()
		g.opened = true
		close(g.open)
		<-g.done
	}
	return g.Policy.Shares(now, reqs, total)
}

// TestSubmitWhileTicking runs under -race in CI: another goroutine
// submits while Run steps through decision ticks, whose plan phase runs
// with mu released. Run's contract is that Submit may inject jobs while
// it drives: every job submitted inside a tick, while jobs[0] is still
// running, must be accepted and finish.
func TestSubmitWhileTicking(t *testing.T) {
	f := newRecoveryFixture(t, 21)
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.MaxConcurrent = 3
	gate := &submitGate{Policy: FairShare{}, open: make(chan struct{}), done: make(chan struct{})}
	cfg.Policy = gate
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate.s = s
	jobs := shardJobs()
	// Seed the run with long-arriving work, so the first tick that
	// shares cores comes hours into the run.
	jobs[0].Arrival = 6 * time.Hour
	if err := s.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	settled := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		select {
		case <-gate.open:
		case <-settled:
			errc <- errors.New("no decision tick consulted the policy with mu released")
			return
		}
		defer close(gate.done)
		for _, j := range jobs[1:] {
			if err := s.Submit(j); err != nil {
				errc <- fmt.Errorf("job %d, submitted inside a tick: %w", j.ID, err)
				return
			}
		}
		errc <- nil
	}()
	res, err := s.Run()
	close(settled)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("%d jobs settled, want %d", len(res.Jobs), len(jobs))
	}
	for _, jr := range res.Jobs {
		if jr.State != Done {
			t.Errorf("job %d ended %v", jr.Job.ID, jr.State)
		}
		// Injected live, each later job arrives after jobs[0] did.
		if jr.Job.ID > 0 && jr.Job.Arrival <= jobs[0].Arrival {
			t.Errorf("job %d arrived at +%v, before the tick it was submitted in", jr.Job.ID, jr.Job.Arrival)
		}
	}
}

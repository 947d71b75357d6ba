package sched

import (
	"container/heap"
	"fmt"
)

// Admission: the queue of arrived jobs awaiting a concurrency slot, and
// the running set they are admitted into.

// admit moves queued jobs to running while concurrency slots are free.
// Admission order is priority-first, then earliest deadline, then
// arrival, then ID — the deadline-aware queue ordering; core *shares*
// among admitted jobs are the pluggable policy's business.
func (s *Scheduler) admit() {
	for len(s.queue) > 0 {
		if s.cfg.MaxConcurrent > 0 && s.stateCount[Running] >= s.cfg.MaxConcurrent {
			return
		}
		next := heap.Pop(&s.queue).(*jobRun)
		s.setState(next, Running)
		s.insertRunning(next)
		next.startedAt = s.eng.Now()
		next.lastAccrue = s.eng.Now()
		if s.cfg.Hooks != nil {
			next.hooks = s.cfg.Hooks(next.job)
		}
		s.jobCounter("running").Inc()
		wait := next.startedAt - next.queuedAt
		// The admission-wait histogram carries the job's trace ID as its
		// bucket exemplar: a slow-admission spike on a dashboard links
		// straight to a causal tree explaining the wait.
		s.admissionWaitHistogram().ObserveEx(wait.Seconds(), next.traceID)
		s.emitJob(EventAdmitted, next, fmt.Sprintf("waited %v", wait))
	}
}

// admitBefore orders the admission queue.
func admitBefore(a, b *jobRun) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	da, db := a.job.Deadline, b.job.Deadline
	if (da > 0) != (db > 0) {
		return da > 0
	}
	if da > 0 && da != db {
		return da < db
	}
	if a.job.Arrival != b.job.Arrival {
		return a.job.Arrival < b.job.Arrival
	}
	return a.job.ID < b.job.ID
}

// admitHeap is the admission queue: a heap over admitBefore. Since the
// order is total (ties broken by ID), popping yields exactly the job a
// linear min-scan would pick.
type admitHeap []*jobRun

func (h admitHeap) Len() int            { return len(h) }
func (h admitHeap) Less(i, j int) bool  { return admitBefore(h[i], h[j]) }
func (h admitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *admitHeap) Push(x interface{}) { *h = append(*h, x.(*jobRun)) }
func (h *admitHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// insertRunning adds the job to the running set, kept in s.jobs slot
// order so rebalance iterates runnable jobs exactly as a scan of s.jobs
// would (pass-2 grant ties break on that order).
func (s *Scheduler) insertRunning(j *jobRun) {
	lo, hi := 0, len(s.running)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.running[mid].slot < j.slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.running = append(s.running, nil)
	copy(s.running[lo+1:], s.running[lo:])
	s.running[lo] = j
}

// removeRunning drops the job from the running set.
func (s *Scheduler) removeRunning(j *jobRun) {
	lo, hi := 0, len(s.running)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.running[mid].slot < j.slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.running) && s.running[lo] == j {
		copy(s.running[lo:], s.running[lo+1:])
		s.running[len(s.running)-1] = nil
		s.running = s.running[:len(s.running)-1]
	}
}

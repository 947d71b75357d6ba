package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/trace"
	"proteus/internal/wal"
)

// Lifecycle: driving a run from Submit to settle, and each job from
// arrival to completion, including its work integration.

// What a refused Submit wraps, for callers that answer each differently
// (the HTTP control plane: 409, 503, 500; anything else is the job's own
// fault).
var (
	// ErrDuplicateID: a job with this ID was already submitted.
	ErrDuplicateID = errors.New("sched: duplicate job ID")
	// ErrDraining: the scheduler is shutting down or has finished.
	ErrDraining = errors.New("sched: not accepting jobs")
	// ErrWAL: the write-ahead log could not take the submit record, so
	// the job was not registered. A record over the log's frame bound is
	// not this: the log is fine and the job is at fault.
	ErrWAL = errors.New("sched: write-ahead log append failed")
)

// Submit registers a job. Before Run or Serve starts, submissions
// simply join the batch. Once the scheduler is being driven, Submit is
// safe to call from any goroutine: the job is injected into the live
// timeline, its arrival moved forward to just past the current virtual
// time if the requested offset already passed. Submissions are rejected
// once the scheduler is draining for shutdown or has finished.
func (s *Scheduler) Submit(job Job) error {
	s.submitWaiters.Add(1)
	s.mu.Lock()
	s.submitWaiters.Add(-1)
	defer s.mu.Unlock()
	if s.finished {
		return fmt.Errorf("%w: the run finished", ErrDraining)
	}
	if s.closing {
		return fmt.Errorf("%w: the scheduler is draining", ErrDraining)
	}
	if err := job.Spec.Validate(); err != nil {
		return fmt.Errorf("sched: job %d: %w", job.ID, err)
	}
	if job.Arrival < 0 {
		return fmt.Errorf("sched: job %d: negative arrival", job.ID)
	}
	if _, dup := s.byID[job.ID]; dup {
		return fmt.Errorf("%w %d", ErrDuplicateID, job.ID)
	}
	j := &jobRun{job: job, state: Pending, traceID: obs.NewTraceID(s.cfg.TraceSeed, uint64(job.ID))}
	var arriveAt time.Duration
	if s.started {
		now := s.eng.Now()
		arriveAt = s.startAt + job.Arrival
		if arriveAt < now {
			// The requested offset is already in the virtual past; the job
			// arrives at the next representable instant and its record
			// reflects that. Not at now itself: now is the instant of the
			// event the engine last fired, and this arrival fires after it,
			// but a replay schedules every arrival before the first event
			// and would fire it first.
			arriveAt = now + 1
			j.job.Arrival = arriveAt - s.startAt
		}
		j.lastAccrue = now
	}
	// Log-before-mutate: the submission (with its effective, post-clamp
	// arrival) must be durable-loggable before any scheduler state
	// changes, so a crash never knows a job the log does not.
	if err := s.walSubmit(j); err != nil {
		if errors.Is(err, wal.ErrFrameTooLarge) {
			return fmt.Errorf("sched: job %d: %w", job.ID, err)
		}
		return fmt.Errorf("%w: job %d: %w", ErrWAL, job.ID, err)
	}
	if s.started {
		s.eng.AtTransient(arriveAt, "sched.arrival", func() { s.arrive(j) })
		// Live submissions take the next slot directly; batch submissions
		// are re-slotted by the startJobsLocked sort.
		j.slot = len(s.jobs)
	}
	// The root of the job's causal trace opens at submission; the
	// validate/enqueue step is its first child. Safe here: mu serializes
	// Submit against engine stepping, so the clock read cannot race.
	j.span = s.obs().Trace().StartTrace(j.traceID, "sched", "job").
		Detailf("job %d (%s) prio=%d deadline=%v", j.job.ID, j.job.Name, j.job.Priority, j.job.Deadline)
	j.span.Eventf("sched", "submit", "spec validated; target=%.1f core-hours, arrival=+%v",
		j.job.Spec.TargetWork, j.job.Arrival)
	s.jobs = append(s.jobs, j)
	s.byID[job.ID] = j
	s.stateCount[Pending]++
	if job.ID > s.maxID {
		s.maxID = job.ID
	}
	if s.started {
		// Nudge a Serve loop sleeping on an idle timeline.
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return nil
}

// NextJobID returns one greater than the highest submitted job ID (zero
// when none) — a convenient unique-ID source for submitters like the
// HTTP control plane.
func (s *Scheduler) NextJobID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxID + 1
}

// startJobsLocked begins the run: anchors the reliable tier, installs
// the market handler, arms the decision ticker, and schedules the
// arrivals of everything submitted so far. The ticker is armed before
// the arrival events so that batch runs and live Serve submissions
// order identically at virtual-time ties (a served job's arrival is
// always scheduled after the ticker; the batch path must match or the
// two drive modes would bill differently on the same seed). Callers
// hold mu.
func (s *Scheduler) startJobsLocked() error {
	s.started = true
	sort.Slice(s.jobs, func(i, j int) bool { return s.jobs[i].job.ID < s.jobs[j].job.ID })
	for i, j := range s.jobs {
		j.slot = i
	}

	s.startAt = s.eng.Now()
	s.startCost = s.mkt.TotalCost()
	s.startUsage = s.mkt.TotalUsage()

	reliable, err := s.mkt.RequestOnDemand(s.cfg.ReliableType, s.cfg.ReliableCount)
	if err != nil {
		return err
	}
	s.reliable = reliable
	s.mkt.SetHandler(s)

	s.ticker = s.eng.Every(decisionPeriod, "sched.decide", func() {
		if s.draining || s.allTerminal() {
			return
		}
		s.walWatermark(watermarkPeriod)
		// Forecast first: pre-drains must release their leases (and
		// pre-acquires claim their replacements) before the regular
		// decision sees the footprint.
		s.forecastTick()
		// The tick holds mu only to snapshot and to commit; the search
		// runs with it released so Submit callers get in (decision.go).
		s.decide(trigger{cause: "tick", acquire: true, unlock: true})
	})
	for _, j := range s.jobs {
		j.lastAccrue = s.startAt
		jr := j
		s.eng.AtTransient(s.startAt+jr.job.Arrival, "sched.arrival", func() { s.arrive(jr) })
	}
	return nil
}

// Run executes every submitted job and returns the consolidated
// accounting: Serve's loop, unpaced, settling as soon as every job is
// terminal (or the market horizon is exhausted). The mutex is released
// between engine steps, so Submit may inject jobs while Run is driving.
func (s *Scheduler) Run() (*Result, error) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: Run called twice")
	}
	if len(s.jobs) == 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: no jobs submitted")
	}
	if err := s.startJobsLocked(); err != nil {
		s.mkt.SetHandler(nil)
		s.mu.Unlock()
		return nil, err
	}
	// Unpaced and settling once idle, the loop never waits, so it never
	// reads the context.
	return s.drive(context.TODO(), 0, true)
}

// settleLocked finalizes the run: accrues the stragglers, executes the
// shutdown/drain, and assembles the Result. Callers hold mu.
func (s *Scheduler) settleLocked() (*Result, error) {
	s.ticker.Stop()
	s.finished = true
	defer s.mkt.SetHandler(nil)
	s.walWatermark(0) // a drained log's resume point is the settle instant
	if s.runErr != nil {
		return nil, s.runErr
	}
	// Serve-injected jobs appended after the initial sort; restore the
	// promised ID order before assembling results.
	sort.Slice(s.jobs, func(i, j int) bool { return s.jobs[i].job.ID < s.jobs[j].job.ID })
	for _, j := range s.jobs {
		if j.state == Running {
			s.accrueJob(j)
		}
	}
	makespan := s.eng.Now() - s.startAt

	// Snapshot paid-but-unused final-hour fractions before the shutdown
	// path decides their fate (terminated hours stay paid; evicted ones
	// are refunded and excluded below).
	type pending struct {
		alloc  *market.Allocation
		unused float64
	}
	var pendings []pending
	now := s.eng.Now()
	for _, a := range s.mkt.ActiveAllocations() {
		unused := a.ChargedThrough() - now
		if unused < 0 {
			unused = 0
		}
		frac := unused.Hours() / trace.BillingHour.Hours()
		pendings = append(pendings, pending{alloc: a, unused: a.HourCharge() * frac})
	}

	harvested, err := s.shutdown()
	if err != nil {
		return nil, err
	}
	// Jobs still short of terminal state at settle (horizon exhausted,
	// service drained) close their trace roots here so no span is left
	// open forever.
	for _, j := range s.jobs {
		s.endJobSpan(j, "settled "+j.state.String())
	}
	// The final instant's coalesced point (the shutdown just rewrote it)
	// must land before the timeline is frozen into the Result.
	s.flushTimelineLocked()

	out := &Result{
		TotalCost:        s.mkt.TotalCost() - s.startCost,
		HarvestedRefunds: harvested,
		Makespan:         makespan,
		Rebalances:       s.rebalances,
		Timeline:         s.timeline.points(),
	}
	for _, p := range pendings {
		if p.alloc.State() != market.Evicted {
			out.UnusedPaid += p.unused
		}
	}
	u := s.mkt.TotalUsage()
	u.OnDemandHours -= s.startUsage.OnDemandHours
	u.SpotHours -= s.startUsage.SpotHours
	u.FreeHours -= s.startUsage.FreeHours
	out.Usage = u

	// Attribute the exact total pro-rata by paid leased core-seconds:
	// shared-footprint refunds can land after the job that triggered the
	// charge finished, so window-delta accounting per job would mislead.
	adjusted := out.TotalCost - out.UnusedPaid
	var totalShare float64
	for _, j := range s.jobs {
		totalShare += j.coreSeconds
	}
	for _, j := range s.jobs {
		jr := JobResult{
			Job:         j.job,
			State:       j.state,
			Completed:   j.state == Done,
			QueuedAt:    j.queuedAt - s.startAt,
			Work:        j.work,
			Evictions:   j.evictions,
			MetDeadline: j.job.Deadline == 0,
		}
		if j.state == Running || j.state == Done {
			jr.StartedAt = j.startedAt - s.startAt
			jr.Wait = j.startedAt - j.queuedAt
		}
		if j.state == Done {
			jr.Finished = j.finished - s.startAt
			jr.Runtime = j.finished - j.startedAt
			if j.job.Deadline > 0 {
				jr.MetDeadline = jr.Finished <= j.job.Deadline
			}
		} else if j.job.Deadline > 0 {
			jr.MetDeadline = false
		}
		if totalShare > 0 {
			jr.Cost = adjusted * j.coreSeconds / totalShare
		} else if n := len(s.jobs); n > 0 {
			jr.Cost = adjusted / float64(n)
		}
		out.Jobs = append(out.Jobs, jr)
	}
	return out, nil
}

// shutdown releases the footprint after the last job. With Drain, spot
// allocations run out their charged billing hours "in hope that they are
// evicted … prior to the end of the billing hour" (§5), generalized here
// across tenants; without it, everything not already under an eviction
// warning terminates immediately (warned allocations are waited out so
// their imminent refunds are collected, not forfeited).
func (s *Scheduler) shutdown() (float64, error) {
	s.draining = true
	for _, id := range s.sortedAllocIDs() {
		s.release(s.allocs[id])
	}
	costBefore := s.mkt.TotalCost()
	if err := s.mkt.Terminate(s.reliable); err != nil {
		return 0, err
	}
	if !s.cfg.Drain {
		for _, id := range s.sortedAllocIDs() {
			ba := s.allocs[id]
			if ba.warned {
				continue // eviction (and its refund) is at most a warning away
			}
			if err := s.mkt.Terminate(ba.alloc); err != nil {
				return 0, err
			}
			s.removeAlloc(id)
		}
	}
	// Remaining allocations die at their armed hour-end decisions or get
	// evicted (refunded) first; no new hours start while draining.
	for len(s.allocs) > 0 && s.eng.Step() {
	}
	harvested := costBefore - s.mkt.TotalCost()
	if harvested < 0 {
		harvested = 0
	}
	return harvested, nil
}

func (s *Scheduler) fail(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
}

func (s *Scheduler) allTerminal() bool {
	return s.stateCount[Pending]+s.stateCount[Queued]+s.stateCount[Running] == 0
}

// setState moves a job between lifecycle states, keeping the per-state
// counts (the O(1) backing of allTerminal and Stats).
func (s *Scheduler) setState(j *jobRun, st JobState) {
	s.stateCount[j.state]--
	j.state = st
	s.stateCount[st]++
}

// --- job transitions -----------------------------------------------

func (s *Scheduler) arrive(j *jobRun) {
	if s.draining || j.state != Pending {
		return
	}
	now := s.eng.Now()
	j.queuedAt = now
	if j.job.Deadline > 0 && now >= s.startAt+j.job.Deadline {
		s.setState(j, Expired)
		s.jobCounter("expired").Inc()
		s.emitJob(EventExpired, j, fmt.Sprintf("arrived after deadline %v", j.job.Deadline))
		s.endJobSpan(j, "expired")
		return
	}
	s.setState(j, Queued)
	heap.Push(&s.queue, j)
	s.jobCounter("queued").Inc()
	s.emitJob(EventQueued, j, fmt.Sprintf("priority=%d deadline=%v", j.job.Priority, j.job.Deadline))
	s.admit()
	s.decide(trigger{cause: "arrival", acquire: true, parent: j.span})
}

// endJobSpan closes the job's root trace span with a final-state detail.
func (s *Scheduler) endJobSpan(j *jobRun, why string) {
	if j.span == nil {
		return
	}
	j.span.Detailf("job %d (%s) %s: work=%.1f evictions=%d", j.job.ID, j.job.Name, why, j.work, j.evictions).End()
	j.span = nil
}

func (s *Scheduler) onJobDone(j *jobRun) {
	if j.state != Running {
		return
	}
	s.accrueJob(j)
	s.setState(j, Done)
	s.removeRunning(j)
	// Done is terminal, so the completion handle is never re-armed: a
	// finished job, kept for good, must not pin the event's slab.
	j.completion = nil
	j.finished = s.eng.Now()
	s.jobCounter("done").Inc()
	s.emitJob(EventDone, j, fmt.Sprintf("work=%.1f evictions=%d", j.work, j.evictions))
	if j.span != nil {
		j.span.Detailf("job %d (%s) complete: work=%.1f evictions=%d wait=%v runtime=%v",
			j.job.ID, j.job.Name, j.work, j.evictions, j.startedAt-j.queuedAt, j.finished-j.startedAt).End()
		j.span = nil
	}
	// The finishing job's leases return to the pool as already-paid
	// capacity; rebalance hands them to whoever can harvest them.
	for _, id := range s.allocOrder {
		if ba := s.allocs[id]; ba.holder == j {
			s.release(ba)
		}
	}
	s.admit()
	s.rebalance("completion")
}

// --- work integration (per job) ------------------------------------

// accrueJob integrates work up to now, honoring pauses.
func (s *Scheduler) accrueJob(j *jobRun) {
	now := s.eng.Now()
	from := j.lastAccrue
	if from < j.pausedTo {
		from = j.pausedTo
		if from > now {
			from = now
		}
	}
	if now > from {
		j.work += j.rate * (now - from).Hours()
	}
	j.lastAccrue = now
}

func (s *Scheduler) recomputeRate(j *jobRun) {
	s.accrueJob(j)
	p := j.job.Spec.Params
	j.rate = p.Phi * float64(j.leasedCores) * p.NuPerCore
	s.scheduleCompletion(j)
}

func (s *Scheduler) pauseJob(j *jobRun, d time.Duration) {
	s.accrueJob(j)
	until := s.eng.Now() + d
	if until > j.pausedTo {
		j.pausedTo = until
	}
	s.scheduleCompletion(j)
}

// scheduleCompletion moves the job's completion event to where its
// current rate and pause put it, or takes it off the queue. The event
// and its closure are made once per job and re-armed in place after.
func (s *Scheduler) scheduleCompletion(j *jobRun) {
	progressing := j.state == Running && j.rate > 0
	remaining := j.job.Spec.TargetWork - j.work
	if !progressing || remaining <= 0 {
		if j.completion != nil {
			j.completion.Cancel()
		}
		if progressing {
			s.onJobDone(j)
		}
		return
	}
	start := s.eng.Now()
	if j.pausedTo > start {
		start = j.pausedTo
	}
	at := start + time.Duration(remaining/j.rate*float64(time.Hour))
	if j.completion == nil {
		j.completion = s.eng.At(at, "sched.complete", func() { s.onJobDone(j) })
		return
	}
	s.eng.Reschedule(j.completion, at)
}

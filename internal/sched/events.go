package sched

import "time"

// Event kinds published on the scheduler's stream. Job lifecycle events
// fire in order queued → admitted → running → done (or queued/expired);
// timeline events fire whenever leases move.
const (
	// EventQueued: the job arrived and entered the admission queue.
	EventQueued = "queued"
	// EventAdmitted: the job won a concurrency slot and competes for
	// leases.
	EventAdmitted = "admitted"
	// EventRunning: the job holds transient cores for the first time and
	// is accruing work.
	EventRunning = "running"
	// EventDone: the job reached its target work.
	EventDone = "done"
	// EventExpired: the job arrived at or after its deadline and never
	// ran.
	EventExpired = "expired"
	// EventTimeline: the shared-footprint utilization changed (leases
	// moved); Util carries the sample.
	EventTimeline = "timeline"
)

// Event is one scheduler state transition or utilization sample. At is
// an offset from the scheduler's start on the virtual clock.
type Event struct {
	Kind    string
	At      time.Duration
	JobID   int // -1 for timeline events
	JobName string
	// State is the job's lifecycle state after the transition (zero for
	// timeline events).
	State  JobState
	Detail string
	Util   *UtilPoint // timeline events only
	// TraceID is the job's causal trace and SpanID the span recorded for
	// this very transition within it — the bridge from the event stream
	// into GET /v1/jobs/{id}/trace. Zero for timeline events and when
	// tracing is disabled (SpanID only).
	TraceID uint64
	SpanID  uint64
}

// Subscription is one consumer of the scheduler's event stream. Events
// are delivered on C in emission order; a consumer whose buffer is full
// loses the newest events — those emitted while it stays full, never
// the ones already queued — (counted by Dropped) rather than stalling
// the simulation. Close releases the subscription and closes C.
//
// A subscription is what makes the scheduler build events at all: with
// none registered, emitJob and emitTimeline construct nothing and send
// nothing, so a stream nobody reads costs the simulation nothing.
type Subscription struct {
	C <-chan Event

	s       *Scheduler
	ch      chan Event
	dropped int
	closed  bool
}

// Subscribe registers a consumer for all scheduler events with the given
// channel buffer (minimum 16; zero or negative selects 256, enough for a
// busy multi-tenant day). Safe to call from any goroutine at any point
// in the scheduler's life; events before the subscription are not
// replayed.
func (s *Scheduler) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 256
	} else if buffer < 16 {
		buffer = 16
	}
	sub := &Subscription{s: s, ch: make(chan Event, buffer)}
	sub.C = sub.ch
	s.mu.Lock()
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	return sub
}

// Close unregisters the subscription and closes its channel. Idempotent
// and safe to call concurrently with event emission.
func (sub *Subscription) Close() {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	delete(sub.s.subs, sub)
	close(sub.ch)
}

// Dropped reports how many events this subscription lost to a full
// buffer.
func (sub *Subscription) Dropped() int {
	sub.s.mu.Lock()
	defer sub.s.mu.Unlock()
	return sub.dropped
}

// emit broadcasts to every subscriber without blocking the simulation:
// a full buffer drops the event for that subscriber. Callers hold mu
// and have checked that there is a subscriber to build the event for.
func (s *Scheduler) emit(ev Event) {
	for sub := range s.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped++
			s.eventsDropped++
			s.eventsDroppedCounter().Inc()
		}
	}
}

// emitJob records a job lifecycle transition twice from one call: as an
// instant child span in the job's causal trace, and — when anyone is
// subscribed — as an Event on the subscription stream annotated with
// that span's identity, so an SSE consumer can jump from any event
// straight to the span that recorded it.
func (s *Scheduler) emitJob(kind string, j *jobRun, detail string) {
	ref := j.span.Eventf("sched", kind, "%s", detail)
	if len(s.subs) == 0 {
		return
	}
	s.emit(Event{
		Kind:    kind,
		At:      s.eng.Now() - s.startAt,
		JobID:   j.job.ID,
		JobName: j.job.Name,
		State:   j.state,
		Detail:  detail,
		TraceID: j.traceID,
		SpanID:  ref.SpanID,
	})
}

func (s *Scheduler) emitTimeline(p UtilPoint) {
	if len(s.subs) == 0 {
		return
	}
	util := p // the heap copy the event points at, made only for a reader
	s.emit(Event{Kind: EventTimeline, At: p.At, JobID: -1, Util: &util})
}

// JobStatus is a point-in-time view of one submitted job, with work
// accrued up to the current virtual instant. Times are offsets from the
// scheduler's start and are meaningful only for states the job reached.
type JobStatus struct {
	Job         Job
	State       JobState
	Work        float64
	LeasedCores int
	Evictions   int
	QueuedAt    time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
	// TraceID identifies the job's causal trace (obs.Tracer.TraceSpans).
	TraceID uint64
}

// statusLocked builds the live view of one job. Callers hold mu.
func (s *Scheduler) statusLocked(j *jobRun) JobStatus {
	st := JobStatus{
		Job:         j.job,
		State:       j.state,
		Work:        s.liveWork(j),
		LeasedCores: j.leasedCores,
		Evictions:   j.evictions,
		TraceID:     j.traceID,
	}
	if j.state != Pending {
		st.QueuedAt = j.queuedAt - s.startAt
	}
	if j.state == Running || j.state == Done {
		st.StartedAt = j.startedAt - s.startAt
	}
	if j.state == Done {
		st.FinishedAt = j.finished - s.startAt
	}
	return st
}

// liveWork integrates work up to now without mutating the accounting —
// the read-only twin of accrueJob, for status snapshots taken between
// accrual points.
func (s *Scheduler) liveWork(j *jobRun) float64 {
	now := s.eng.Now()
	from := j.lastAccrue
	if from < j.pausedTo {
		from = j.pausedTo
		if from > now {
			from = now
		}
	}
	if now > from && j.state == Running {
		return j.work + j.rate*(now-from).Hours()
	}
	return j.work
}

// Snapshot returns the live status of every submitted job, ordered by
// job ID. Safe to call from any goroutine while the scheduler runs.
func (s *Scheduler) Snapshot() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	// Serve-injected jobs append out of order; report sorted.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Job.ID < out[k-1].Job.ID; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Status returns the live status of one job by ID.
func (s *Scheduler) Status(id int) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return JobStatus{}, false
	}
	return s.statusLocked(j), true
}

// Stats is a point-in-time summary of the whole scheduler: queue and
// footprint occupancy, accumulated bill, and where the virtual clock
// stands against the market horizon.
type Stats struct {
	// Now is the virtual time since the scheduler started; Horizon is
	// where the market's price traces end.
	Now     time.Duration
	Horizon time.Duration

	Jobs    int
	Pending int
	Queued  int
	Running int
	Done    int
	Expired int

	LeasedCores int
	IdleCores   int
	Rebalances  int

	// CostSoFar is the net dollars billed by the market since the
	// scheduler started (zero before the run begins).
	CostSoFar float64

	Draining    bool
	Subscribers int

	// EventsDropped counts scheduler events lost to slow subscribers
	// (cumulative, including closed subscriptions); SpansDropped counts
	// trace spans discarded by tracer retention. Both zero on a healthy
	// service — the SLO gate asserts exactly that.
	EventsDropped int
	SpansDropped  uint64

	// Recovered reports the scheduler was built by Recover from a WAL;
	// RecoveredJobs is how many submissions the replay restored.
	// CatchingUp is true from Recover until the drive loop has
	// fast-forwarded the virtual clock to where the crashed run left off,
	// or has nothing left to replay because every job is terminal (the
	// log's last record can post-date the last completion). New
	// submissions are accepted throughout.
	Recovered     bool
	RecoveredJobs int
	CatchingUp    bool

	// Forecast carries the online eviction forecaster's accuracy and
	// proactive-action counters (Enabled=false on reactive schedulers).
	Forecast ForecastStats
}

// Stats summarizes the scheduler's current state. Safe to call from any
// goroutine.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Horizon:       s.horizon,
		Jobs:          len(s.jobs),
		Pending:       s.stateCount[Pending],
		Queued:        s.stateCount[Queued],
		Running:       s.stateCount[Running],
		Done:          s.stateCount[Done],
		Expired:       s.stateCount[Expired],
		Rebalances:    s.rebalances,
		Draining:      s.closing || s.draining,
		Subscribers:   len(s.subs),
		EventsDropped: s.eventsDropped,
		SpansDropped:  s.obs().Trace().Dropped(),
		Recovered:     s.recovered,
		RecoveredJobs: s.recoveredJobs,
		CatchingUp:    s.recovered && (!s.started || (s.eng.Now() < s.resumeTo && !s.allTerminal())),
	}
	if s.started {
		st.Now = s.eng.Now() - s.startAt
		st.CostSoFar = s.mkt.TotalCost() - s.startCost
	}
	if s.fc != nil {
		st.Forecast = s.fc.stats()
	}
	for _, ba := range s.allocs {
		if ba.outOfPool() {
			continue
		}
		if ba.holder != nil {
			st.LeasedCores += ba.cores()
		} else {
			st.IdleCores += ba.cores()
		}
	}
	return st
}

// Timeline returns a copy of the utilization timeline recorded so far:
// the flushed, coalesced points — one per instant that changed state,
// each emitted to the event stream exactly once — so replayed history
// and the live SSE feed agree point for point.
func (s *Scheduler) Timeline() []UtilPoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]UtilPoint, len(s.timeline))
	copy(out, s.timeline)
	return out
}

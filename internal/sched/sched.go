// Package sched is the multi-tenant control plane above the single-job
// driver: it admits a stream of jobs (arrival times, priorities,
// optional deadlines), runs them concurrently against one shared
// BidBrain-managed footprint, and arbitrates machines between jobs.
//
// The paper runs one ML application at a time (§5 assumes a *sequence*);
// a production service multiplexes many users' jobs onto the same pool
// of transient machines. Package sched generalizes the §5 footprint
// handoff from serial to concurrent: a footprint broker leases
// allocations from the shared pool to jobs, reclaims leases on eviction
// warnings, and hands already-paid end-of-billing-hour capacity freed by
// a finishing job to whichever admitted job can harvest it. Placement is
// pluggable (fair-share, cost-greedy, deadline-first); deadline jobs
// feed the bidbrain deadline machinery at acquisition time.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/core"
	"proteus/internal/forecast"
	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/sim"
	"proteus/internal/wal"
)

// decisionPeriod matches the single-job driver: the broker reconsiders
// the market every two minutes (§5).
const decisionPeriod = 2 * time.Minute

// watermarkPeriod spaces the decision ticker's WAL watermarks: one at
// the first tick this long after the last, so a service recovered after
// a SIGKILL resumes pacing at most this far (plus a decision period)
// behind where the crashed one stood.
const watermarkPeriod = time.Hour

// preHourLead is how long before an allocation's billing-hour end the
// renew/terminate decision runs.
const preHourLead = 3 * time.Minute

// Job is one tenant job submitted to the scheduler.
type Job struct {
	// ID must be unique within a scheduler; results are reported by ID.
	ID   int
	Name string
	Spec core.JobSpec
	// Arrival is when the job enters the queue, as an offset from the
	// scheduler's start.
	Arrival time.Duration
	// Priority weights placement; higher is more important.
	Priority int
	// Deadline, when nonzero, is the completion target as an offset from
	// the scheduler's start. A job arriving at or after its deadline is
	// rejected as expired.
	Deadline time.Duration
	// Proactive opts the job into forecast-driven elasticity: when the
	// scheduler runs with Config.Forecast, leases whose predicted
	// eviction probability crosses the threshold are drained ahead of the
	// market warning (and replacements pre-acquired). Jobs without the
	// knob keep the paper's reactive behavior even on a forecasting
	// scheduler.
	Proactive bool
}

// JobState is the lifecycle state of a submitted job.
type JobState int

const (
	// Pending jobs are submitted but have not arrived yet.
	Pending JobState = iota
	// Queued jobs have arrived and await admission.
	Queued
	// Running jobs hold (or compete for) footprint leases.
	Running
	// Done jobs completed their target work.
	Done
	// Expired jobs arrived at or after their deadline and never ran.
	Expired
)

// String implements fmt.Stringer for metrics labels and logs.
func (s JobState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Expired:
		return "expired"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// JobResult reports one job's outcome. Times are offsets from the
// scheduler's start.
type JobResult struct {
	Job       Job
	State     JobState
	Completed bool
	QueuedAt  time.Duration
	StartedAt time.Duration
	Finished  time.Duration
	// Wait is queue time before first admission.
	Wait time.Duration
	// Runtime is admission to completion (zero if the job never ran).
	Runtime time.Duration
	// Cost is the job's pro-rata share (by paid leased core-hours) of
	// the run's exact total bill.
	Cost float64
	// Work is the core-hours actually accrued.
	Work      float64
	Evictions int
	// MetDeadline is true when the job had no deadline or finished
	// before it.
	MetDeadline bool
}

// UtilPoint samples the shared footprint when leases change.
type UtilPoint struct {
	At          time.Duration
	LeasedCores int
	IdleCores   int
	Running     int
	Queued      int
}

// Result reports a whole scheduler run.
type Result struct {
	// Jobs is ordered by job ID.
	Jobs []JobResult
	// TotalCost is the exact net dollars billed by the market during the
	// run, including the drain.
	TotalCost float64
	// UnusedPaid is dollars paid for billing-hour fractions outlasting
	// the last job that were neither used nor refunded; subtract it for
	// accounting comparable to the single-job schemes (which pro-rate
	// final hours away).
	UnusedPaid float64
	// HarvestedRefunds is money recovered during the final drain by
	// leaving spot allocations alive until their billing hours ended.
	HarvestedRefunds float64
	// Makespan is the scheduler start to the last job's completion
	// (excluding the drain).
	Makespan   time.Duration
	Rebalances int
	Usage      market.Usage
	// Timeline is the utilization history kept at settle, as
	// Scheduler.Timeline returns it.
	Timeline []UtilPoint
}

// ElasticHooks lets a per-job elasticity controller (e.g. AgileML)
// follow the broker's lease changes: Grow fires when cores are leased to
// the job, Shrink when they are reclaimed (rebalance, eviction warning,
// or job completion). Implementations run inline on the simulation
// goroutine and must not block.
type ElasticHooks interface {
	Grow(cores int) error
	Shrink(cores int) error
}

// Config parameterizes a Scheduler.
type Config struct {
	Brain *bidbrain.Brain
	// Policy arbitrates core shares between running jobs; nil means
	// FairShare.
	Policy Policy
	// ReliableType and ReliableCount size the shared on-demand anchor
	// (state safety for every tenant's AgileML tier).
	ReliableType  string
	ReliableCount int
	// MaxSpotCores caps the shared transient footprint across all jobs.
	MaxSpotCores int
	// ChunkCores is the granularity of one acquisition request.
	ChunkCores int
	// MaxConcurrent caps simultaneously running jobs; 0 means unlimited.
	// 1 reproduces serial back-to-back execution over the shared
	// footprint (the §5 sequence).
	MaxConcurrent int
	// Drain, when true, ends the run with the §5 shutdown: spot
	// allocations stay alive until their billing hours end, hoping for
	// eviction refunds. When false everything terminates immediately
	// (except allocations already under eviction warning, which are
	// waited out so their refunds are not forfeited).
	Drain bool
	// Observer instruments the scheduler (sched_* families, per-job
	// spans). Nil disables instrumentation.
	Observer *obs.Observer
	// TraceSeed roots the deterministic per-job trace IDs
	// (obs.NewTraceID(TraceSeed, jobID)): the same seed and job IDs
	// yield the same trace trees on any worker count. Harnesses running
	// several schedulers into one merged observer give each a distinct
	// seed so trace IDs cannot collide. Zero is a valid seed.
	TraceSeed uint64
	// Hooks, when set, builds the per-job elasticity adapter at
	// admission time.
	Hooks func(Job) ElasticHooks
	// WAL, when set, receives every accepted submission and a
	// virtual-time watermark at most once per virtual hour and at settle
	// (wal.KindTick): the inputs replay needs and the instant to resume
	// pacing from. Submissions are logged before they mutate scheduler
	// state; a failed append rejects the Submit.
	WAL wal.Writer
	// Forecast, when set, runs a per-type online eviction forecaster over
	// the observed price stream and enables proactive drain/pre-acquire
	// for jobs submitted with Proactive=true. Nil keeps the reactive
	// behavior.
	Forecast *forecast.Options
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Brain == nil {
		return fmt.Errorf("sched: config needs a Brain")
	}
	if c.ReliableType == "" || c.ReliableCount <= 0 {
		return fmt.Errorf("sched: ReliableType and ReliableCount must be set")
	}
	if c.MaxSpotCores <= 0 || c.ChunkCores <= 0 {
		return fmt.Errorf("sched: MaxSpotCores and ChunkCores must be positive")
	}
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("sched: MaxConcurrent must be non-negative")
	}
	if c.Forecast != nil {
		if err := c.Forecast.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// jobRun is a submitted job's live state: the per-job work integrator
// (the ν·k·Δt accounting of §4.1) plus lease bookkeeping.
type jobRun struct {
	job   Job
	state JobState
	hooks ElasticHooks

	work       float64
	rate       float64 // core-hours per hour of virtual time
	lastAccrue time.Duration
	pausedTo   time.Duration
	everRan    bool // first lease grant seen (the "running" event fired)

	queuedAt  time.Duration
	startedAt time.Duration
	finished  time.Duration

	leasedCores int
	coreSeconds float64 // paid leased core-seconds (cost attribution)
	evictions   int

	completion *sim.Event
	// traceID and span root the job's causal trace: every lifecycle
	// transition, lease, bid decision, and refund hangs off span as a
	// child span/event carrying traceID.
	traceID uint64
	span    *obs.Span
	// slot is the job's index in s.jobs (assigned when the run starts,
	// or at append for live submissions); the running set keeps s.jobs
	// slot order so rebalance tie-breaks are independent of how the set
	// is maintained.
	slot int
}

// brokerAlloc is one market allocation owned by the footprint broker and
// leased to at most one job at a time.
type brokerAlloc struct {
	alloc      *market.Allocation
	bidDelta   float64
	warned     bool
	warnedAt   time.Duration
	everLeased bool
	holder     *jobRun
	lastHolder *jobRun
	leaseStart time.Duration
	// leaseSpan is the holder's open "lease" child span, grant → release.
	leaseSpan *obs.Span
	// predrained marks a forecast-initiated proactive drain: the lease
	// was released ahead of any market warning and the allocation is
	// parked (out of the footprint, never re-granted) awaiting the
	// predicted eviction. Cleared if the prediction misses.
	predrained bool
	predrainAt time.Duration
	// predrainResolved guards the hit/false-positive accounting: each
	// pre-drain settles exactly once (warning → hit; expiry → miss).
	predrainResolved bool
	// predrainMissed marks an allocation whose pre-drain resolved as a
	// false positive; it is never pre-drained again — the bid is fixed,
	// so a second drain would thrash on the same signal.
	predrainMissed bool
}

func (b *brokerAlloc) cores() int { return b.alloc.Count * b.alloc.Type.VCPUs }

// Scheduler runs submitted jobs concurrently over one shared footprint.
//
// Two drive modes share the same machinery: Run executes a pre-submitted
// batch to completion on the virtual clock, and Serve turns the
// scheduler into a long-running service that accepts Submit calls from
// other goroutines while the engine advances (paced against the wall
// clock). The exported methods — Submit, Subscribe, Snapshot, Status,
// Stats, Timeline — are safe for concurrent use; everything below them
// runs on the drive goroutine under the scheduler mutex.
type Scheduler struct {
	eng *sim.Engine
	mkt *market.Market
	cfg Config

	// mu guards every field below plus the engine and market: engine
	// callbacks run inside Step, which the drive loops call with mu held.
	mu   sync.Mutex
	wake chan struct{} // nudges a sleeping Serve loop after Submit
	subs map[*Subscription]struct{}

	// submitWaiters counts goroutines blocked on mu inside Submit. The
	// drive loops re-acquire mu immediately after every engine step; Go
	// mutexes are unfair in that regime, so without an explicit yield a
	// hot Serve loop starves submitters into the 1-ms starvation regime
	// (p99 ~1.4s at 32 concurrent submitters). The loops check this
	// counter after unlocking and yield the processor when anyone is
	// waiting.
	submitWaiters atomic.Int32

	jobs   []*jobRun
	byID   map[int]*jobRun
	allocs map[market.AllocationID]*brokerAlloc
	// allocOrder mirrors s.allocs keys in ascending ID order. Market IDs
	// are assigned monotonically, so acquisition appends in order and the
	// broker's many ordered walks stop re-sorting per call.
	allocOrder []market.AllocationID

	// lastUtil is the last utilization tuple a timeline point recorded
	// (zero at start: a fresh scheduler holds no cores and no jobs), so
	// observeState can detect changes its caller didn't flag.
	lastUtil UtilPoint
	// pendingUtil coalesces same-instant timeline points: the latest
	// state observed at one virtual instant waits here until time moves
	// past it (or the run settles), then flushes once.
	pendingUtil    UtilPoint
	pendingUtilSet bool

	// fc is the online forecasting state (nil without Config.Forecast).
	fc *schedForecast
	// priceScratch is the reusable spot-price map decision snapshots hand
	// to BidBrain; priceSub keeps it fresh by polling the market's
	// per-type change subscription, so a decision re-reads only the types
	// that actually moved.
	priceScratch map[string]float64
	priceSub     *market.PriceSub
	// fcSub/fcMoved are the forecaster's own change subscription and its
	// per-type scratch: feeds of unmoved types take the O(1) steady path.
	fcSub   *market.PriceSub
	fcMoved []bool

	reliable *market.Allocation
	horizon  time.Duration

	startAt    time.Duration
	startCost  float64
	startUsage market.Usage

	started       bool
	closing       bool // draining for shutdown: no new submissions
	finished      bool // settle completed; the scheduler is spent
	draining      bool
	ticker        *sim.Ticker
	rebalances    int
	eventsDropped int // cumulative across all subscriptions, incl. closed
	timeline      utilTimeline
	runErr        error

	// O(1) indexes over s.jobs, so a service ingesting ~1M jobs never
	// scans the whole population per event: per-state counts, the
	// highest submitted ID, the admission queue as a heap ordered by
	// admitBefore, and the running set in s.jobs slot order.
	stateCount [5]int
	maxID      int // -1 until the first submission
	queue      admitHeap
	running    []*jobRun

	// chunkCount is Config.ChunkCores in instances of the market's
	// smallest type: the size of one acquisition candidate.
	chunkCount int
	// snapFree and tgtFree are the decision path's scratch free-lists
	// (decision.go, broker.go).
	snapFree []*snapshot
	tgtFree  []map[int]int

	inst instruments

	// wal durability: wal takes every accepted submission and the
	// virtual-time watermarks (walMarkAt is the newest one's instant;
	// a recovered scheduler starts it at the log's resume point, so
	// catch-up replay of that history appends none); resumeTo is the
	// virtual instant a recovered Serve loop fast-forwards to before
	// pacing.
	wal           wal.Writer
	walMarkAt     time.Duration
	resumeTo      time.Duration
	recovered     bool
	recoveredJobs int
}

// New builds a scheduler over the engine and market. Jobs are added with
// Submit before Run.
func New(eng *sim.Engine, mkt *market.Market, cfg Config) (*Scheduler, error) {
	if eng == nil || mkt == nil {
		return nil, fmt.Errorf("sched: nil engine or market")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = FairShare{}
	}
	s := &Scheduler{
		eng:    eng,
		mkt:    mkt,
		cfg:    cfg,
		wake:   make(chan struct{}, 1),
		subs:   make(map[*Subscription]struct{}),
		byID:   make(map[int]*jobRun),
		allocs: make(map[market.AllocationID]*brokerAlloc),
		maxID:  -1,
		wal:    cfg.WAL,
		inst: instruments{
			rebalances: make(map[string]*obs.Counter),
			jobs:       make(map[string]*obs.Counter),
		},
	}
	// The market horizon bounds the run: when the price traces end, no
	// further market events fire and unfinished jobs are reported as
	// incomplete instead of spinning the decision ticker forever. The
	// same walk finds the smallest type, which sizes a candidate.
	smallest := 0
	for _, t := range mkt.Types() {
		if tr, ok := mkt.Trace(t.Name); ok && tr.Duration() > s.horizon {
			s.horizon = tr.Duration()
		}
		if smallest == 0 || t.VCPUs < smallest {
			smallest = t.VCPUs
		}
	}
	if smallest > 0 {
		s.chunkCount = max(1, cfg.ChunkCores/smallest)
	}
	if cfg.Forecast != nil {
		fc, err := newSchedForecast(mkt, *cfg.Forecast)
		if err != nil {
			return nil, err
		}
		s.fc = fc
	}
	return s, nil
}

// --- instrumentation ------------------------------------------------

func (s *Scheduler) obs() *obs.Observer { return s.cfg.Observer }

// instruments memoises the obs handles the drive goroutine would
// otherwise resolve by family name and label signature per lease, per
// rebalance and per job transition. As with market's hot handles, each
// resolves at first use — so a run exports exactly the families it
// touched — and remembers that it did in a done flag or a map entry,
// never a nil check: a nil registry yields nil no-op instruments, and
// those are worth remembering too. Guarded by Scheduler.mu.
type instruments struct {
	lease, admissionWait struct {
		h    *obs.Histogram
		done bool
	}
	state struct {
		queued, running, leased, idle *obs.Gauge
		done                          bool
	}
	rebalances    map[string]*obs.Counter // by cause
	jobs          map[string]*obs.Counter // by state
	eventsDropped struct {
		c    *obs.Counter
		done bool
	}
}

func (s *Scheduler) eventsDroppedCounter() *obs.Counter {
	m := &s.inst.eventsDropped
	if !m.done {
		m.c = s.obs().Reg().Counter("proteus_sched_events_dropped_total",
			"scheduler events lost to a slow subscriber")
		m.done = true
	}
	return m.c
}

func (s *Scheduler) jobCounter(state string) *obs.Counter {
	c, ok := s.inst.jobs[state]
	if !ok {
		c = s.obs().Reg().Counter("proteus_sched_jobs_total",
			"job state transitions", obs.L("state", state))
		s.inst.jobs[state] = c
	}
	return c
}

func (s *Scheduler) rebalanceCounter(cause string) *obs.Counter {
	c, ok := s.inst.rebalances[cause]
	if !ok {
		c = s.obs().Reg().Counter("proteus_sched_rebalances_total",
			"lease reassignments between jobs", obs.L("cause", cause))
		s.inst.rebalances[cause] = c
	}
	return c
}

func (s *Scheduler) leaseHistogram() *obs.Histogram {
	m := &s.inst.lease
	if !m.done {
		m.h = s.obs().Reg().Histogram("proteus_sched_lease_seconds",
			"duration of one allocation lease to one job",
			[]float64{60, 300, 900, 1800, 3600, 7200, 14400, 43200})
		m.done = true
	}
	return m.h
}

func (s *Scheduler) admissionWaitHistogram() *obs.Histogram {
	m := &s.inst.admissionWait
	if !m.done {
		m.h = s.obs().Reg().Histogram("proteus_sched_admission_wait_seconds",
			"queue wait from arrival to admission, in virtual seconds",
			[]float64{0.001, 1, 5, 15, 60, 300, 900, 3600, 14400})
		m.done = true
	}
	return m.h
}

// observeState refreshes the queue/footprint gauges and records a
// utilization timeline point when the state moved. The caller's changed
// hint marks lease churn inside a rebalance; state that changed before
// the rebalance was entered (a finishing job's leases returning to the
// pool, an eviction removing capacity) is caught by comparing the
// computed tuple against the last recorded one, so every call site that
// altered utilization lands a point without having to say so.
func (s *Scheduler) observeState(changed bool) {
	leased, idle := 0, 0
	for _, ba := range s.allocs {
		if ba.outOfPool() {
			continue
		}
		if ba.holder != nil {
			leased += ba.cores()
		} else {
			idle += ba.cores()
		}
	}
	queued := s.stateCount[Queued]
	running := s.stateCount[Running]
	g := &s.inst.state
	if !g.done {
		reg := s.obs().Reg()
		g.queued = reg.Gauge("proteus_sched_queue_depth", "jobs arrived and awaiting admission")
		g.running = reg.Gauge("proteus_sched_running_jobs", "jobs currently holding or competing for leases")
		g.leased = reg.Gauge("proteus_sched_leased_cores", "transient cores currently leased to jobs")
		g.idle = reg.Gauge("proteus_sched_idle_cores", "paid transient cores awaiting a lease")
		g.done = true
	}
	g.queued.Set(float64(queued))
	g.running.Set(float64(running))
	g.leased.Set(float64(leased))
	g.idle.Set(float64(idle))
	now := s.eng.Now() - s.startAt
	if s.pendingUtilSet && s.pendingUtil.At < now {
		s.flushTimelineLocked()
	}
	if !changed {
		changed = leased != s.lastUtil.LeasedCores || idle != s.lastUtil.IdleCores ||
			running != s.lastUtil.Running || queued != s.lastUtil.Queued
	}
	if changed {
		// Coalesce: a burst of lease moves at one instant (a rebalance
		// walking many allocations) folds into a single pending point —
		// the instant's final state — instead of appending and fanning
		// out every intermediate. The point becomes visible when virtual
		// time moves past it (the flush above), on the serve loop's idle
		// transition, or at settle.
		s.pendingUtil = UtilPoint{
			At:          now,
			LeasedCores: leased,
			IdleCores:   idle,
			Running:     running,
			Queued:      queued,
		}
		s.pendingUtilSet = true
		s.lastUtil = s.pendingUtil
	}
}

// flushTimelineLocked commits the pending utilization point to the
// retained timeline and the event stream. Emission happens only here —
// on the simulation thread, once per instant — so the live SSE stream
// gets every point, and replayed history (Timeline, /v1/timeline)
// serves the same points until they age into the timeline's hourly
// tier.
func (s *Scheduler) flushTimelineLocked() {
	if !s.pendingUtilSet {
		return
	}
	s.pendingUtilSet = false
	s.timeline.add(s.pendingUtil)
	s.emitTimeline(s.pendingUtil)
}

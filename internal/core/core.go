// Package core wires Proteus together: it runs ML jobs over the simulated
// resource market under one of four acquisition schemes — the three the
// paper evaluates in §6.3 plus the all-on-demand baseline — and accounts
// cost, runtime, and machine-hour usage.
//
// A job is a required amount of work (core-hours, the ν·k·Δt currency of
// §4.1). The simulator integrates the footprint's work rate over virtual
// time; evictions pause progress (λ for AgileML schemes, the full restart
// delay for checkpointing), and scheme policies decide when to acquire,
// renew, and release allocations. Billing and refunds come from the
// market package; per the paper's accounting, minutes left in a job's
// final billing hours are not charged to the job (they would be used by
// the next job in the sequence).
package core

import (
	"fmt"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/market"
	"proteus/internal/sim"
	"proteus/internal/trace"
)

// JobSpec describes one ML training job to run under a scheme.
type JobSpec struct {
	// TargetWork is the core-hours of useful work the job requires.
	TargetWork float64
	// Params are the application characteristics BidBrain reasons about.
	Params bidbrain.Params
	// ReliableType and ReliableCount describe the non-transient footprint
	// AgileML keeps for state safety (Proteus used 3 on-demand machines
	// for the Fig. 1 experiment).
	ReliableType  string
	ReliableCount int
	// MaxSpotCores caps the transient footprint, like the paper's
	// "up to 189 spot market machines".
	MaxSpotCores int
	// ChunkCores is the granularity of one spot allocation request.
	ChunkCores int
}

// Validate rejects unusable specs.
func (s JobSpec) Validate() error {
	if s.TargetWork <= 0 {
		return fmt.Errorf("core: TargetWork must be positive")
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.MaxSpotCores <= 0 || s.ChunkCores <= 0 {
		return fmt.Errorf("core: MaxSpotCores and ChunkCores must be positive")
	}
	return nil
}

// Result reports one job run.
type Result struct {
	Scheme    string
	Completed bool
	Cost      float64 // dollars charged to this job (final hours pro-rated)
	Runtime   time.Duration
	Usage     market.Usage
	Evictions int
}

// Scheme is an acquisition policy driving a job on the market.
type Scheme interface {
	// Name labels the scheme in reports.
	Name() string
	// Run executes the job to completion (or the market horizon) and
	// returns the accounting.
	Run(eng *sim.Engine, mkt *market.Market, spec JobSpec) (Result, error)
}

// decisionPeriod is how often schemes reconsider the market (§5:
// "BidBrain considers making new allocation requests every two minutes").
const decisionPeriod = 2 * time.Minute

// preHourLead is how long before an allocation's billing-hour end the
// renewal decision runs.
const preHourLead = 3 * time.Minute

// jobSim integrates work over time and centralizes the bookkeeping every
// scheme shares.
type jobSim struct {
	eng  *sim.Engine
	mkt  *market.Market
	spec JobSpec

	work       float64 // core-hours accrued
	rate       float64 // core-hours per hour of virtual time
	startAt    time.Duration
	lastAccrue time.Duration
	pausedTo   time.Duration
	doneAt     time.Duration
	done       bool
	evictions  int

	startCost  float64
	startUsage market.Usage
	completion *sim.Event
}

func newJobSim(eng *sim.Engine, mkt *market.Market, spec JobSpec) *jobSim {
	return &jobSim{
		eng:        eng,
		mkt:        mkt,
		spec:       spec,
		startAt:    eng.Now(),
		lastAccrue: eng.Now(),
		startCost:  mkt.TotalCost(),
		startUsage: mkt.TotalUsage(),
	}
}

// accrue integrates work up to now at the current rate, honoring pauses.
func (j *jobSim) accrue() {
	now := j.eng.Now()
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

// setRate changes the work rate (after accruing at the old one) and
// reschedules the completion event.
func (j *jobSim) setRate(rate float64) {
	j.accrue()
	j.rate = rate
	j.scheduleCompletion()
}

// pause stops progress until now+d (eviction/restart overheads). Pauses
// do not stack: a longer existing pause wins.
func (j *jobSim) pause(d time.Duration) {
	j.accrue()
	until := j.eng.Now() + d
	if until > j.pausedTo {
		j.pausedTo = until
	}
	j.scheduleCompletion()
}

// scheduleCompletion moves the completion event to where the current
// rate and pause put it, or takes it off the queue. The event and its
// closure are made once per job and re-armed in place after.
func (j *jobSim) scheduleCompletion() {
	progressing := !j.done && j.rate > 0
	remaining := j.spec.TargetWork - j.work
	if !progressing || remaining <= 0 {
		if j.completion != nil {
			j.completion.Cancel()
		}
		if progressing {
			j.finish()
		}
		return
	}
	start := j.eng.Now()
	if j.pausedTo > start {
		start = j.pausedTo
	}
	at := start + time.Duration(remaining/j.rate*float64(time.Hour))
	if j.completion == nil {
		j.completion = j.eng.At(at, "job.complete", j.finish)
		return
	}
	j.eng.Reschedule(j.completion, at)
}

func (j *jobSim) finish() {
	if j.done {
		return
	}
	j.accrue()
	j.done = true
	j.doneAt = j.eng.Now()
}

// result assembles the accounting, pro-rating the in-progress hours of
// allocations still running at completion.
func (j *jobSim) result(name string) Result {
	usage := j.mkt.TotalUsage()
	cost := j.mkt.TotalCost() - j.startCost
	for _, a := range j.mkt.ActiveAllocations() {
		unused := a.ChargedThrough() - j.eng.Now()
		if unused < 0 {
			unused = 0
		}
		frac := unused.Hours() / trace.BillingHour.Hours()
		cost -= a.HourCharge() * frac
	}
	u := usage
	u.OnDemandHours -= j.startUsage.OnDemandHours
	u.SpotHours -= j.startUsage.SpotHours
	u.FreeHours -= j.startUsage.FreeHours
	return Result{
		Scheme:    name,
		Completed: j.done,
		Cost:      cost,
		Runtime:   j.doneAt - j.startAt,
		Usage:     u,
		Evictions: j.evictions,
	}
}

// coresOf returns the instance type's core count, or an error for
// unknown types.
func coresOf(mkt *market.Market, name string) (int, error) {
	t, ok := mkt.Type(name)
	if !ok {
		return 0, fmt.Errorf("core: unknown instance type %s", name)
	}
	return t.VCPUs, nil
}

// OnDemandScheme is the traditional baseline: N on-demand machines run
// the whole job, no transient resources.
type OnDemandScheme struct {
	Type  string
	Count int
}

// Name implements Scheme.
func (s OnDemandScheme) Name() string { return "on-demand" }

// Run implements Scheme.
func (s OnDemandScheme) Run(eng *sim.Engine, mkt *market.Market, spec JobSpec) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	cores, err := coresOf(mkt, s.Type)
	if err != nil {
		return Result{}, err
	}
	j := newJobSim(eng, mkt, spec)
	alloc, err := mkt.RequestOnDemand(s.Type, s.Count)
	if err != nil {
		return Result{}, err
	}
	// The on-demand machines are the workers here.
	j.setRate(spec.Params.Phi * float64(s.Count*cores) * spec.Params.NuPerCore)
	for !j.done {
		if !eng.Step() {
			break
		}
	}
	// Account before releasing: the final-hour pro-rating reads the
	// allocations still active at completion.
	res := j.result(s.Name())
	if err := mkt.Terminate(alloc); err != nil {
		return Result{}, err
	}
	return res, nil
}

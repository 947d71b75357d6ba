package core

import (
	"fmt"
	"time"

	"proteus/internal/agileml"
	"proteus/internal/bidbrain"
	"proteus/internal/cluster"
	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/perfmodel"
	"proteus/internal/sim"
)

// LiveConfig parameterizes a full-stack Proteus run (the Fig. 7
// architecture): BidBrain acquires instances on the simulated market,
// granted instances join the cluster and the AgileML elasticity
// controller as machines, market eviction warnings flow to the
// controller, and the actual ML application trains against the real
// parameter-server stack. Virtual time advances by the performance
// model's per-iteration estimate for the current layout, so the run
// produces both a trained model and the paper's cost/time accounting.
type LiveConfig struct {
	App        agileml.App
	Iterations int
	// ReliableType and ReliableCount size the on-demand footprint that
	// anchors AgileML's reliable tier.
	ReliableType  string
	ReliableCount int
	// MaxSpotInstances caps the transient footprint (in instances).
	MaxSpotInstances int
	// ChunkInstances is the size of one BidBrain allocation request.
	ChunkInstances int
	Params         bidbrain.Params
	// Workload and Cluster feed the iteration-time model.
	Workload perfmodel.Workload
	Cluster  perfmodel.Cluster
	// Staleness is the SSP bound for the parameter-server clients.
	Staleness int
	// Observer, when set, instruments the whole stack: it is installed on
	// the Brain and the AgileML controller, and core-level iteration
	// metrics are recorded. Its tracer is the record of the run's
	// decisions (acquisitions, refunds, elasticity transitions); without
	// one, none is kept.
	Observer *obs.Observer
	// TraceSeed roots the run's deterministic trace ID
	// (obs.NewTraceID(TraceSeed, 0)): with a tracer configured, the whole
	// run — BidBrain audits, elasticity transitions, partition migrations
	// — folds into one causal tree under a "core"/"job" root span.
	// Harnesses merging several runs into one observer should give each a
	// distinct seed; zero is a valid seed.
	TraceSeed uint64
}

// Validate rejects unusable configurations.
func (c LiveConfig) Validate() error {
	if c.App == nil {
		return fmt.Errorf("core: live config needs an App")
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("core: Iterations must be positive")
	}
	if c.ReliableCount <= 0 {
		return fmt.Errorf("core: ReliableCount must be positive")
	}
	if c.MaxSpotInstances <= 0 || c.ChunkInstances <= 0 {
		return fmt.Errorf("core: MaxSpotInstances and ChunkInstances must be positive")
	}
	return c.Params.Validate()
}

// LivePoint is one iteration of a live run's timeline.
type LivePoint struct {
	Iteration int
	At        time.Duration // virtual time the iteration completed
	Seconds   float64       // modeled duration of this iteration
	Machines  int
	Stage     agileml.Stage
}

// LiveResult reports a live run.
type LiveResult struct {
	Iterations int
	Objective  float64
	Cost       float64
	Runtime    time.Duration
	Evictions  int
	Recoveries int
	Timeline   []LivePoint
}

// liveJob wires the market, cluster, controller, and BidBrain together.
type liveJob struct {
	cfg   LiveConfig
	eng   *sim.Engine
	mkt   *market.Market
	brain *bidbrain.Brain

	clus   *cluster.Cluster
	ctrl   *agileml.Controller
	runner *agileml.Runner

	// machinesOf maps a market allocation to the cluster machines it
	// granted; spotAllocs tracks the live spot footprint with bid deltas.
	machinesOf map[market.AllocationID][]cluster.MachineID
	spotAllocs map[market.AllocationID]*spotAlloc
	reliable   *market.Allocation

	// span is the run's root trace span (nil when tracing is off); every
	// causal annotation below hangs off it so one job yields one tree.
	span    *obs.Span
	traceID uint64

	startAt   time.Duration
	startCost float64
	evictions int
	timeline  []LivePoint
	iterEvent *sim.Event
	runErr    error
	done      bool
}

// RunLive executes a full-stack Proteus job and returns its accounting
// and trained-model objective.
func RunLive(eng *sim.Engine, mkt *market.Market, brain *bidbrain.Brain, cfg LiveConfig) (LiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return LiveResult{}, err
	}
	if brain == nil {
		return LiveResult{}, fmt.Errorf("core: live run needs a Brain")
	}
	j := &liveJob{
		cfg:        cfg,
		eng:        eng,
		mkt:        mkt,
		brain:      brain,
		clus:       cluster.New(),
		machinesOf: make(map[market.AllocationID][]cluster.MachineID),
		spotAllocs: make(map[market.AllocationID]*spotAlloc),
		startAt:    eng.Now(),
		startCost:  mkt.TotalCost(),
	}
	j.traceID = obs.NewTraceID(cfg.TraceSeed, 0)
	j.span = cfg.Observer.Trace().StartTrace(j.traceID, "core", "job")
	j.span.Detailf("live run: %d iterations, reliable %dx %s, spot cap %d",
		cfg.Iterations, cfg.ReliableCount, cfg.ReliableType, cfg.MaxSpotInstances)
	defer j.span.End()

	// Anchor the reliable tier.
	rel, err := mkt.RequestOnDemand(cfg.ReliableType, cfg.ReliableCount)
	if err != nil {
		return LiveResult{}, err
	}
	j.reliable = rel
	j.span.Eventf("core", "acquire", "reliable tier: %dx %s on-demand", rel.Count, rel.Type.Name)
	relMachines, err := j.clus.Add(cluster.Reliable, rel.Type.VCPUs, rel.Count, allocLabel(rel))
	if err != nil {
		return LiveResult{}, err
	}
	j.machinesOf[rel.ID] = machineIDsOf(relMachines)

	if cfg.Observer != nil {
		brain.SetObserver(cfg.Observer)
	}
	maxMachines := cfg.ReliableCount + cfg.MaxSpotInstances
	ctrl, err := agileml.New(agileml.Config{
		App:         cfg.App,
		MaxMachines: maxMachines,
		Staleness:   cfg.Staleness,
		Observer:    cfg.Observer,
		TraceParent: j.span,
	}, relMachines)
	if err != nil {
		return LiveResult{}, err
	}
	j.ctrl = ctrl
	j.runner = agileml.NewRunner(ctrl, cfg.App)

	mkt.SetHandler(j)
	defer mkt.SetHandler(nil)

	// BidBrain decision loop and the training loop.
	j.decide()
	ticker := eng.Every(decisionPeriod, "live.decide", func() {
		if !j.done {
			j.decide()
		}
	})
	j.scheduleIteration(false)
	for !j.done {
		if !eng.Step() {
			break
		}
	}
	ticker.Stop()
	if j.runErr != nil {
		j.span.Detailf("failed: %v", j.runErr)
		return LiveResult{}, j.runErr
	}

	// Job finished: release everything.
	for _, sa := range sortedSpot(j.spotAllocs) {
		if err := mkt.Terminate(sa.alloc); err != nil {
			return LiveResult{}, err
		}
		delete(j.spotAllocs, sa.alloc.ID)
	}
	if err := mkt.Terminate(rel); err != nil {
		return LiveResult{}, err
	}

	obj, err := j.runner.Objective()
	if err != nil {
		return LiveResult{}, err
	}
	cost := mkt.TotalCost() - j.startCost
	for _, a := range mkt.Allocations() {
		if a.State() != market.Terminated || a.EndedAt() != eng.Now() {
			continue
		}
		unused := a.ChargedThrough() - eng.Now()
		if unused < 0 {
			unused = 0
		}
		cost -= a.HourCharge() * unused.Hours()
	}
	j.span.Detailf("complete: %d iterations, objective=%.4f, cost=$%.2f, evictions=%d",
		j.runner.Iterations(), obj, cost, j.evictions)
	return LiveResult{
		Iterations: j.runner.Iterations(),
		Objective:  obj,
		Cost:       cost,
		Runtime:    eng.Now() - j.startAt,
		Evictions:  j.evictions,
		Recoveries: ctrl.Recoveries(),
		Timeline:   j.timeline,
	}, nil
}

func allocLabel(a *market.Allocation) string {
	return fmt.Sprintf("alloc-%d", a.ID)
}

func machineIDsOf(ms []*cluster.Machine) []cluster.MachineID {
	out := make([]cluster.MachineID, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

// scheduleIteration arranges the next training clock one modeled
// iteration from now. blip applies the paper's measured transition
// overhead to the iteration during which a bulk eviction was enacted.
func (j *liveJob) scheduleIteration(blip bool) {
	if j.done {
		return
	}
	secs := j.iterationSeconds()
	if blip {
		secs *= 1 + perfmodel.TransitionBlip
	}
	j.iterEvent = j.eng.After(time.Duration(secs*float64(time.Second)), "live.iter", func() {
		if j.done {
			return
		}
		if err := j.runner.RunClock(); err != nil {
			j.fail(err)
			return
		}
		reg := j.cfg.Observer.Reg()
		reg.Counter("proteus_core_iterations_total", "training iterations completed").Inc()
		reg.Histogram("proteus_core_iteration_seconds",
			"modeled duration of each training iteration",
			[]float64{1, 2, 5, 10, 30, 60, 120}).Observe(secs)
		rel, trans := j.ctrl.NumMachines()
		j.timeline = append(j.timeline, LivePoint{
			Iteration: j.runner.Iterations(),
			At:        j.eng.Now(),
			Seconds:   secs,
			Machines:  rel + trans,
			Stage:     j.ctrl.Stage(),
		})
		if j.runner.Iterations() >= j.cfg.Iterations {
			j.done = true
			return
		}
		j.scheduleIteration(false)
	})
}

func (j *liveJob) fail(err error) {
	j.runErr = err
	j.done = true
}

// iterationSeconds models the current layout's iteration time.
func (j *liveJob) iterationSeconds() float64 {
	rel, trans := j.ctrl.NumMachines()
	var lay perfmodel.Layout
	switch j.ctrl.Stage() {
	case agileml.Stage1:
		lay = perfmodel.Stage1(rel, trans)
	case agileml.Stage2:
		lay = perfmodel.Stage2(rel, trans, (trans+1)/2)
	default:
		lay = perfmodel.Stage3(rel, trans, (trans+1)/2)
	}
	b, err := perfmodel.IterationTime(j.cfg.Cluster, j.cfg.Workload, lay)
	if err != nil {
		// Degenerate layouts (e.g. zero workers mid-transition) should
		// not occur; treat as a slow iteration rather than dying.
		return 60
	}
	return b.Total
}

// decide runs one BidBrain decision point: acquire the best candidate
// allocation if it improves the footprint's expected cost per work, and
// register the granted machines with the cluster and controller.
func (j *liveJob) decide() {
	spotCount := 0
	for _, sa := range j.spotAllocs {
		spotCount += sa.alloc.Count
	}
	if spotCount >= j.cfg.MaxSpotInstances {
		return
	}
	cur, err := j.footprint()
	if err != nil {
		return
	}
	prices := make(map[string]float64)
	for _, t := range j.mkt.Types() {
		p, err := j.mkt.SpotPrice(t.Name)
		if err != nil {
			return
		}
		prices[t.Name] = p
	}
	count := j.cfg.ChunkInstances
	if remaining := j.cfg.MaxSpotInstances - spotCount; count > remaining {
		count = remaining
	}
	var cand *bidbrain.Candidate
	if j.span != nil {
		// Audited search shares the hot path's exact decision logic; the
		// audit is attached only when the brain acts, so ticker-driven
		// holds don't flood the tree.
		var audit *bidbrain.DecisionAudit
		cand, audit, err = j.brain.BestAcquisitionAudited(cur, prices, j.mkt.Types(), count)
		if audit != nil && audit.Result == "acquire" {
			j.span.EventAttrs("bidbrain", "bid", audit, "decision: %s", audit.Result)
		}
	} else {
		cand, err = j.brain.BestAcquisition(cur, prices, j.mkt.Types(), count)
	}
	if err != nil || cand == nil {
		return
	}
	alloc, err := j.mkt.RequestSpot(cand.Type.Name, cand.Count, cand.Bid)
	if err != nil {
		return
	}
	j.span.Eventf("core", "acquire", "alloc %d: %dx %s bid=$%.4f (delta $%.4f)",
		alloc.ID, cand.Count, cand.Type.Name, cand.Bid, cand.BidDelta)
	j.spotAllocs[alloc.ID] = &spotAlloc{alloc: alloc, bidDelta: cand.BidDelta}
	machines, err := j.clus.Add(cluster.Transient, alloc.Type.VCPUs, alloc.Count, allocLabel(alloc))
	if err != nil {
		j.fail(err)
		return
	}
	j.machinesOf[alloc.ID] = machineIDsOf(machines)
	if err := j.ctrl.AddMachines(machines); err != nil {
		j.fail(err)
	}
}

// footprint translates the live market allocations into BidBrain state.
func (j *liveJob) footprint() ([]bidbrain.AllocState, error) {
	now := j.eng.Now()
	out := []bidbrain.AllocState{{
		Type:      j.reliable.Type,
		Count:     j.reliable.Count,
		Price:     j.reliable.Type.OnDemand,
		Remaining: j.reliable.HourEnd(now) - now,
		OnDemand:  true,
	}}
	for _, sa := range sortedSpot(j.spotAllocs) {
		beta, err := j.brain.Beta(sa.alloc.Type.Name, sa.bidDelta)
		if err != nil {
			return nil, err
		}
		remaining := sa.alloc.HourEnd(now) - now
		omega, err := j.brain.ExpectedUsefulTime(sa.alloc.Type.Name, sa.bidDelta, remaining)
		if err != nil {
			return nil, err
		}
		out = append(out, bidbrain.AllocState{
			Type:      sa.alloc.Type,
			Count:     sa.alloc.Count,
			Price:     sa.alloc.HourCharge() / float64(sa.alloc.Count),
			Beta:      beta,
			Remaining: remaining,
			Omega:     omega,
		})
	}
	return out, nil
}

// EvictionWarning implements market.Handler: the controller drains the
// doomed machines' ActivePSs and reassigns their partitions within the
// warning window, exactly the §3.3 eviction path.
func (j *liveJob) EvictionWarning(a *market.Allocation, _ time.Duration) {
	ids, ok := j.machinesOf[a.ID]
	if !ok || j.done {
		return
	}
	j.span.Eventf("core", "eviction-warning", "alloc %d (%dx %s): draining within warning window",
		a.ID, a.Count, a.Type.Name)
	if err := j.clus.WarnEviction(ids, 2*time.Minute); err != nil {
		j.fail(err)
		return
	}
	if err := j.ctrl.HandleEvictionWarning(ids); err != nil {
		j.fail(err)
	}
}

// Evicted implements market.Handler: the machines are gone; complete the
// membership change, apply the transition blip to the in-flight
// iteration, and reconsider the market immediately (§5).
func (j *liveJob) Evicted(a *market.Allocation) {
	ids, ok := j.machinesOf[a.ID]
	if !ok || j.done {
		return
	}
	delete(j.machinesOf, a.ID)
	delete(j.spotAllocs, a.ID)
	j.evictions++
	j.span.Eventf("core", "refund", "alloc %d evicted: $%.4f refunded for the in-progress hour",
		a.ID, a.HourCharge())
	if err := j.clus.Evict(ids); err != nil {
		j.fail(err)
		return
	}
	if err := j.ctrl.CompleteEviction(ids); err != nil {
		j.fail(err)
		return
	}
	// Restart the in-flight iteration under the new (smaller) layout,
	// with the paper's 13% transition blip.
	if j.iterEvent != nil {
		j.iterEvent.Cancel()
	}
	j.scheduleIteration(true)
	j.decide()
}

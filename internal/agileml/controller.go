package agileml

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/obs"
	"proteus/internal/ps"
	"proteus/internal/transport"
)

// App is the contract an ML application implements to train under AgileML
// (§3.1: the application provides functions AgileML calls plus an input
// data description). Workers must be stateless: all mutable model state
// flows through the parameter-server client.
type App interface {
	// Name labels the application in logs.
	Name() string
	// NumItems reports the training-set size; AgileML partitions
	// [0, NumItems) among workers.
	NumItems() int
	// InitState installs the initial model rows through the router.
	InitState(router *ps.Router) error
	// ProcessRange runs one clock of training on items [start, end).
	ProcessRange(c *ps.Client, start, end int) error
	// Objective evaluates goodness-of-solution (lower is better).
	Objective(c *ps.Client) (float64, error)
}

// Config parameterizes an AgileML job.
type Config struct {
	App App
	// MaxMachines caps the footprint; the partition count defaults to
	// half of it (§3.3: "setting N equal to half of the maximum number of
	// resources ... to be effective").
	MaxMachines int
	// Partitions overrides the default partition count when positive.
	Partitions int
	// Staleness is the SSP bound for worker caches.
	Staleness int
	// Thresholds are the stage-switch ratios; zero value means defaults.
	Thresholds Thresholds
	// ActivePSFraction is the fraction of transient machines that host an
	// ActivePS in stages 2–3. The paper finds one half best (§3.3).
	// Zero means 0.5.
	ActivePSFraction float64
	// Network, when set, streams active→backup flush batches through the
	// transport fabric (with per-batch acks) instead of direct calls, so
	// flush volume shows up on the fabric's byte counters. Call
	// Controller.Close when done to release the fabric endpoints.
	Network *transport.Network

	// Observer receives AgileML metrics and elasticity spans. Its tracer
	// is the only record of the controller's decisions (stage
	// transitions, membership changes, recoveries).
	Observer *obs.Observer

	// TraceParent, when set, is the owning job's span in Observer's
	// tracer: elasticity spans (incorporate, drain) open as its children
	// and controller events record as its instant children, so the whole
	// run folds into one causal tree. Nil keeps the pre-tree behavior of
	// flat spans.
	TraceParent *obs.Span

	// restore carries a reliable-tier checkpoint to start from instead of
	// the application's initial state; set via RestoreFromCheckpoint.
	restore *Checkpoint
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.App == nil {
		return out, fmt.Errorf("agileml: config needs an App")
	}
	if out.MaxMachines <= 0 {
		return out, fmt.Errorf("agileml: MaxMachines %d must be positive", out.MaxMachines)
	}
	if out.Partitions <= 0 {
		out.Partitions = out.MaxMachines / 2
		if out.Partitions == 0 {
			out.Partitions = 1
		}
	}
	if out.Staleness < 0 {
		return out, fmt.Errorf("agileml: negative staleness")
	}
	if (out.Thresholds == Thresholds{}) {
		out.Thresholds = DefaultThresholds()
	}
	if err := out.Thresholds.Validate(); err != nil {
		return out, err
	}
	if out.ActivePSFraction == 0 {
		out.ActivePSFraction = 0.5
	}
	if out.ActivePSFraction < 0 || out.ActivePSFraction > 1 {
		return out, fmt.Errorf("agileml: ActivePSFraction %v out of (0,1]", out.ActivePSFraction)
	}
	return out, nil
}

// machineState is the controller's view of one machine.
type machineState struct {
	m *cluster.Machine
	// serving is the machine's ParamServ or ActivePS, if any.
	serving *ps.Server
	// backup is the machine's BackupPS (reliable machines, stages 2–3).
	backup *ps.Server
	// client is the machine's worker-side cache, nil when the machine
	// runs no worker (reliable machines in stage 3).
	client *ps.Client
	// joinOrder is a monotone counter; lower means longer-running, which
	// is where new ActivePSs go first (§3.3).
	joinOrder int
}

// Controller is AgileML's elasticity controller (§3.2): it tracks which
// resources participate, assigns input data to workers, starts
// ActivePSs, re-shards on eviction, and orchestrates recovery.
type Controller struct {
	cfg    Config
	router *ps.Router
	psm    *ps.Metrics

	mu        sync.Mutex
	machines  map[cluster.MachineID]*machineState
	stage     Stage
	data      *DataMap
	nextJoin  int
	consClock int // latest known globally consistent (flushed) clock
	stream    *streamState

	// stats
	stageTransitions int
	recoveries       int
}

// log records a controller event as an instant span: under the owning
// job's span when there is one, flat otherwise. Without a tracer it is a
// no-op.
func (c *Controller) log(kind, detail string, args ...any) {
	if c.cfg.TraceParent != nil {
		c.cfg.TraceParent.Eventf("agileml", kind, detail, args...)
		return
	}
	c.cfg.Observer.Trace().Event("agileml", kind, detail, args...)
}

// newServer creates a parameter server wired to the job's metric set.
func (c *Controller) newServer(name string, role ps.Role) *ps.Server {
	s := ps.NewServer(name, role)
	s.SetMetrics(c.psm)
	return s
}

// New creates a controller, lays out servers for the seed machines'
// stage, initializes the model, and assigns input data.
func New(cfg Config, seed []*cluster.Machine) (*Controller, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(seed) == 0 {
		return nil, fmt.Errorf("agileml: need at least one seed machine")
	}
	reliable := 0
	for _, m := range seed {
		if m.Tier == cluster.Reliable {
			reliable++
		}
	}
	if reliable == 0 {
		return nil, fmt.Errorf("agileml: need at least one reliable machine to hold state")
	}

	c := &Controller{
		cfg:      full,
		router:   ps.NewRouter(full.Partitions),
		psm:      ps.NewMetrics(full.Observer.Reg()),
		machines: make(map[cluster.MachineID]*machineState),
	}
	c.router.SetMetrics(c.psm)
	// Hang partition-migration trace events off the job's tree. Guarded on
	// a live registry so the shared no-op metric set is never mutated.
	if full.TraceParent != nil && full.Observer.Reg() != nil {
		c.psm.Trace = full.TraceParent
	}
	if full.Network != nil {
		st, err := newStreamState(full.Network)
		if err != nil {
			return nil, err
		}
		c.stream = st
	}
	for _, m := range seed {
		c.machines[m.ID] = &machineState{m: m, joinOrder: c.nextJoin}
		c.nextJoin++
	}
	c.stage = full.Thresholds.StageFor(c.counts())

	// Lay out stage-1 servers first so InitState has owners to write to.
	if err := c.layoutStage1(); err != nil {
		return nil, err
	}
	if full.restore != nil {
		// Restoring from a reliable-tier checkpoint (§3.3): install the
		// checkpointed partitions in place of fresh initial state, and
		// start workers from the checkpoint's clock.
		for _, snap := range full.restore.Partitions {
			owner, err := c.router.Owner(snap.ID)
			if err != nil {
				return nil, err
			}
			owner.InstallSnapshot(snap)
		}
		c.consClock = full.restore.Clock
	} else if err := full.App.InitState(c.router); err != nil {
		return nil, fmt.Errorf("agileml: init app state: %w", err)
	}
	// If the seed ratio wants stage 2/3, transition now that state exists.
	if c.stage != Stage1 {
		target := c.stage
		c.stage = Stage1
		if err := c.transitionTo(target); err != nil {
			return nil, err
		}
	}

	dm, err := NewDataMap(full.App.NumItems(), c.workerIDs())
	if err != nil {
		return nil, err
	}
	c.data = dm
	c.ensureClients()
	c.observeState()
	return c, nil
}

// observeState refreshes the stage and membership gauges.
func (c *Controller) observeState() {
	reg := c.cfg.Observer.Reg()
	if reg == nil {
		return
	}
	rel, trans := c.counts()
	reg.Gauge("proteus_agileml_stage", "current elasticity stage (1-3)").Set(float64(c.stage))
	reg.Gauge("proteus_agileml_machines", "registered machines by tier",
		obs.L("tier", "reliable")).Set(float64(rel))
	reg.Gauge("proteus_agileml_machines", "registered machines by tier",
		obs.L("tier", "transient")).Set(float64(trans))
	actives := 0
	for _, ms := range c.machines {
		if ms.m.Tier == cluster.Transient && ms.serving != nil && ms.serving.NumPartitions() > 0 {
			actives++
		}
	}
	reg.Gauge("proteus_agileml_active_ps", "transient machines hosting an ActivePS").Set(float64(actives))
}

// Router exposes the job's partition router (examples, tests).
func (c *Controller) Router() *ps.Router { return c.router }

// Stage reports the current stage.
func (c *Controller) Stage() Stage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stage
}

// StageTransitions reports how many stage changes have occurred.
func (c *Controller) StageTransitions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stageTransitions
}

// Recoveries reports how many rollback recoveries have run.
func (c *Controller) Recoveries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveries
}

// ConsistentClock reports the latest clock known safe on reliable
// machines (flushed to backups, or directly applied to ParamServs).
func (c *Controller) ConsistentClock() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stage == Stage1 {
		return c.router.Clocks().Min()
	}
	return c.consClock
}

func (c *Controller) counts() (reliable, transient int) {
	for _, ms := range c.machines {
		if ms.m.Tier == cluster.Reliable {
			reliable++
		} else {
			transient++
		}
	}
	return
}

// workerIDs lists machines that run workers in the current stage, sorted.
func (c *Controller) workerIDs() []cluster.MachineID {
	var out []cluster.MachineID
	for id, ms := range c.machines {
		if c.stage == Stage3 && ms.m.Tier == cluster.Reliable {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Controller) sortedMachines(tier cluster.Tier) []*machineState {
	var out []*machineState
	for _, ms := range c.machines {
		if ms.m.Tier == tier {
			out = append(out, ms)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].joinOrder != out[j].joinOrder {
			return out[i].joinOrder < out[j].joinOrder
		}
		return out[i].m.ID < out[j].m.ID
	})
	return out
}

// layoutStage1 spreads ParamServs across the reliable machines,
// partitions round-robin (§3.2 stage 1). Existing server state, if any,
// must already have been consolidated onto reliable machines.
func (c *Controller) layoutStage1() error {
	rel := c.sortedMachines(cluster.Reliable)
	if len(rel) == 0 {
		return fmt.Errorf("agileml: stage 1 needs reliable machines")
	}
	for i, ms := range rel {
		srv := c.newServer(fmt.Sprintf("m%d/paramserv", ms.m.ID), ps.ParamServ)
		ms.serving = srv
		ms.backup = nil
		_ = i
	}
	for p := 0; p < c.cfg.Partitions; p++ {
		ms := rel[p%len(rel)]
		part := ps.NewPartition(ps.PartitionID(p))
		if err := ms.serving.AddPartition(part); err != nil {
			return err
		}
		c.router.SetOwner(ps.PartitionID(p), ms.serving)
		c.router.SetBackup(ps.PartitionID(p), nil)
	}
	return nil
}

// activePSTargets picks which transient machines host ActivePSs: the
// configured fraction, longest-running first (§3.3).
func (c *Controller) activePSTargets() []*machineState {
	trans := c.sortedMachines(cluster.Transient)
	n := int(float64(len(trans))*c.cfg.ActivePSFraction + 0.5)
	if n == 0 && len(trans) > 0 {
		n = 1
	}
	if n > len(trans) {
		n = len(trans)
	}
	return trans[:n]
}

// transitionTo moves the layout between stages. Callers hold no lock; the
// controller's public entry points serialize via c.mu before calling.
func (c *Controller) transitionTo(target Stage) error {
	if target == c.stage {
		return nil
	}
	c.stageTransitions++
	c.log("stage-transition", "%v -> %v", c.stage, target)
	c.cfg.Observer.Reg().Counter("proteus_agileml_stage_transitions_total",
		"stage transitions by direction",
		obs.L("from", c.stage.String()), obs.L("to", target.String())).Inc()
	start := time.Now()
	defer func() {
		c.cfg.Observer.Reg().Histogram("proteus_agileml_transition_seconds",
			"wall seconds spent executing a stage transition",
			[]float64{0.0001, 0.001, 0.01, 0.1, 1}).Observe(time.Since(start).Seconds())
		c.observeState()
	}()
	switch {
	case c.stage == Stage1 && target >= Stage2:
		if err := c.stage1to2(); err != nil {
			return err
		}
		c.stage = Stage2
		if target == Stage3 {
			c.stageTransitions++
			c.stage = Stage3 // 2→3 is only a worker-placement change
		}
	case c.stage >= Stage2 && target == Stage1:
		if err := c.stage2to1(); err != nil {
			return err
		}
		c.stage = Stage1
	default:
		// 2↔3: pure worker-placement change; data reassignment happens in
		// the caller via refreshWorkers.
		c.stage = target
	}
	return nil
}

// stage1to2 converts the ParamServs on reliable machines into BackupPSs
// and starts ActivePSs on transient machines, copying partition state to
// the new actives in the background before redirecting workers (§3.3
// "workers are directed to send their requests to ActivePSs started in
// the background").
func (c *Controller) stage1to2() error {
	targets := c.activePSTargets()
	if len(targets) == 0 {
		return fmt.Errorf("agileml: stage 2 needs transient machines")
	}
	for _, ms := range targets {
		if ms.serving == nil {
			ms.serving = c.newServer(fmt.Sprintf("m%d/activeps", ms.m.ID), ps.ActivePS)
		}
	}
	for p := 0; p < c.cfg.Partitions; p++ {
		pid := ps.PartitionID(p)
		oldOwner, err := c.router.Owner(pid)
		if err != nil {
			return err
		}
		snap, err := oldOwner.SnapshotPartition(pid)
		if err != nil {
			return err
		}
		// The reliable copy and the new active copy are identical at this
		// instant: mark both flushed so the recovery point is this clock.
		snap.FlushedClock = snap.Clock
		snap.Log = make(map[int]map[ps.Key][]float32)
		target := targets[p%len(targets)].serving
		target.InstallSnapshot(snap)
		if part, ok := oldOwner.Partition(pid); ok {
			part.MarkFlushed()
		}
		c.router.SetBackup(pid, oldOwner)
		c.router.SetOwner(pid, target)
	}
	// Rebrand the reliable servers as backups.
	for _, ms := range c.sortedMachines(cluster.Reliable) {
		if ms.serving != nil {
			ms.serving.SetRole(ps.BackupPS)
			ms.backup = ms.serving
			ms.serving = nil
		}
	}
	c.consClock = c.minBackupClock()
	return nil
}

// stage2to1 drains the ActivePSs into the BackupPSs (end-of-life flush),
// promotes the backups to ParamServs, and redirects workers (§3.3
// "ActivePSs push their updates to BackupPSs, which become ParamServs").
func (c *Controller) stage2to1() error {
	min := c.router.Clocks().Min()
	for _, ms := range c.sortedMachines(cluster.Transient) {
		if ms.serving == nil {
			continue
		}
		batches, err := ms.serving.CollectFlush(min, true)
		if err != nil {
			return err
		}
		for _, b := range batches {
			backup := c.router.Backup(b.Partition)
			if backup == nil {
				return fmt.Errorf("agileml: partition %d has no backup during drain", b.Partition)
			}
			if err := c.deliverFlush(backup, b); err != nil {
				return err
			}
		}
		ms.serving = nil
	}
	for _, ms := range c.sortedMachines(cluster.Reliable) {
		if ms.backup != nil {
			ms.backup.SetRole(ps.ParamServ)
			ms.serving = ms.backup
			ms.backup = nil
		}
	}
	for p := 0; p < c.cfg.Partitions; p++ {
		pid := ps.PartitionID(p)
		backup := c.router.Backup(pid)
		if backup == nil {
			return fmt.Errorf("agileml: partition %d lost its backup", pid)
		}
		c.router.SetOwner(pid, backup)
		c.router.SetBackup(pid, nil)
	}
	c.consClock = min
	return nil
}

// minBackupClock is the newest clock every backup partition has flushed —
// the recovery point.
func (c *Controller) minBackupClock() int {
	min := -1
	for p := 0; p < c.cfg.Partitions; p++ {
		b := c.router.Backup(ps.PartitionID(p))
		if b == nil {
			continue
		}
		part, ok := b.Partition(ps.PartitionID(p))
		if !ok {
			continue
		}
		if min == -1 || part.FlushedClock() < min {
			min = part.FlushedClock()
		}
	}
	if min == -1 {
		return 0
	}
	return min
}

// ensureClients creates clients for machines that should run workers and
// closes clients on machines that should not (stage 3 reliable machines).
// New clients join at the job's current clock so they neither drag the
// global minimum back nor skip ahead.
func (c *Controller) ensureClients() {
	start := c.consClock
	if c.router.Clocks().NumWorkers() > 0 {
		if m := c.router.Clocks().Min(); m > start {
			start = m
		}
	}
	should := make(map[cluster.MachineID]bool)
	for _, id := range c.workerIDs() {
		should[id] = true
	}
	for id, ms := range c.machines {
		switch {
		case should[id] && ms.client == nil:
			ms.client = ps.NewClientAt(fmt.Sprintf("w%d", id), c.router, c.cfg.Staleness, start)
		case !should[id] && ms.client != nil:
			ms.client.Close()
			ms.client = nil
		}
	}
}

package agileml

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"proteus/internal/cluster"
	"proteus/internal/obs"
	"proteus/internal/ps"
)

// AddMachines incorporates newly granted machines: they register with the
// controller, receive a data assignment, and — if the new ratio calls for
// it — host new ActivePSs or trigger a stage transition (§3.3 scaling up).
// Preparation (loading data, copying partitions) happens before workers
// are redirected, which is why the paper measures no disruption (§6.6).
func (c *Controller) AddMachines(ms []*cluster.Machine) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(ms) == 0 {
		return nil
	}
	if len(c.machines)+len(ms) > c.cfg.MaxMachines {
		return fmt.Errorf("agileml: adding %d machines exceeds MaxMachines %d", len(ms), c.cfg.MaxMachines)
	}
	for _, m := range ms {
		if _, ok := c.machines[m.ID]; ok {
			return fmt.Errorf("agileml: machine %d already registered", m.ID)
		}
	}
	span := obs.StartSpan(c.cfg.Observer.Trace(), c.cfg.TraceParent, "agileml", "incorporate").
		Detailf("%d machines joining (%v)", len(ms), ms[0].Tier)
	start := time.Now()
	for _, m := range ms {
		c.machines[m.ID] = &machineState{m: m, joinOrder: c.nextJoin}
		c.nextJoin++
		c.cfg.Observer.Reg().Counter("proteus_agileml_machines_added_total",
			"machines incorporated by tier", obs.L("tier", m.Tier.String())).Inc()
	}
	c.log("add-machines", "%d machines joined (%v)", len(ms), ms[0].Tier)
	if err := c.transitionTo(c.cfg.Thresholds.StageFor(c.counts())); err != nil {
		return err
	}
	if c.stage != Stage1 {
		if err := c.rebalanceActivePSs(); err != nil {
			return err
		}
	}
	err := c.refreshWorkers()
	c.cfg.Observer.Reg().Histogram("proteus_agileml_incorporate_seconds",
		"wall seconds to incorporate new machines",
		[]float64{0.0001, 0.001, 0.01, 0.1, 1}).Observe(time.Since(start).Seconds())
	c.observeState()
	span.End()
	return err
}

// refreshWorkers reconciles data assignment and clients with the current
// worker set: newcomers get data, machines that stopped being workers
// give theirs back.
func (c *Controller) refreshWorkers() error {
	want := c.workerIDs()
	wantSet := make(map[cluster.MachineID]bool, len(want))
	for _, id := range want {
		wantSet[id] = true
	}
	cur := c.data.Owners()
	var departing []cluster.MachineID
	for _, id := range cur {
		if !wantSet[id] {
			departing = append(departing, id)
		}
	}
	if len(departing) > 0 {
		if err := c.data.RemoveMachines(departing, want); err != nil {
			return err
		}
	}
	// Arrivals are computed after removal: the removal step may already
	// have routed orphaned data to an incoming machine via the
	// least-loaded fallback.
	var arriving []cluster.MachineID
	for _, id := range want {
		if c.data.Load(id) == 0 {
			arriving = append(arriving, id)
		}
	}
	if len(arriving) > 0 {
		if err := c.data.AddMachines(arriving); err != nil {
			return err
		}
	}
	c.ensureClients()
	return nil
}

// rebalanceActivePSs ensures the configured fraction of transient
// machines host ActivePSs, moving partitions onto new actives round-robin
// (§3.3: new ActivePSs start on the longest-running transient machines
// that lack one and take over a share of partitions).
func (c *Controller) rebalanceActivePSs() error {
	targets := c.activePSTargets()
	if len(targets) == 0 {
		return fmt.Errorf("agileml: no transient machines for ActivePSs")
	}
	for _, ms := range targets {
		if ms.serving == nil {
			ms.serving = c.newServer(fmt.Sprintf("m%d/activeps", ms.m.ID), ps.ActivePS)
		}
	}
	targetSet := make(map[*ps.Server]bool, len(targets))
	for _, ms := range targets {
		targetSet[ms.serving] = true
	}
	for p := 0; p < c.cfg.Partitions; p++ {
		pid := ps.PartitionID(p)
		owner, err := c.router.Owner(pid)
		if err != nil {
			return err
		}
		desired := targets[p%len(targets)].serving
		if owner == desired {
			continue
		}
		// Move the partition: the previous owner hands over a snapshot
		// (including the unflushed delta log) and the router repoints.
		snap, err := owner.SnapshotPartition(pid)
		if err != nil {
			return err
		}
		if _, err := owner.RemovePartition(pid); err != nil {
			return err
		}
		desired.InstallSnapshot(snap)
		c.router.SetOwner(pid, desired)
	}
	// Drop ActivePS servers that no longer host partitions and are not
	// targets (e.g. fraction shrank).
	for _, ms := range c.sortedMachines(cluster.Transient) {
		if ms.serving != nil && !targetSet[ms.serving] && ms.serving.NumPartitions() == 0 {
			ms.serving = nil
		}
	}
	return nil
}

// FlushActives streams the aggregated deltas accumulated on every
// ActivePS to the BackupPSs, covering clocks up to the global consistent
// clock. The controller calls this every clock; the paper streams "at a
// rate that the network bandwidth accommodates" (§1).
func (c *Controller) FlushActives() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushActivesLocked(false)
}

func (c *Controller) flushActivesLocked(endOfLife bool) error {
	if c.stage == Stage1 {
		return nil // ParamServs on reliable machines need no flush
	}
	min := c.router.Clocks().Min()
	for _, ms := range c.sortedMachines(cluster.Transient) {
		if ms.serving == nil {
			continue
		}
		batches, err := ms.serving.CollectFlush(min, endOfLife)
		if err != nil {
			return err
		}
		for _, b := range batches {
			backup := c.router.Backup(b.Partition)
			if backup == nil {
				return fmt.Errorf("agileml: partition %d has no backup", b.Partition)
			}
			if err := c.deliverFlush(backup, b); err != nil {
				return err
			}
		}
	}
	if min > c.consClock {
		c.consClock = min
	}
	return nil
}

// HandleEvictionWarning reacts to an eviction notice for the given
// machines (§3.3 "Evictions"). With warning in hand the controller drains
// state gracefully: if every transient machine is leaving, all ActivePSs
// push final state to the backups and the job falls back to stage 1;
// otherwise evicted ActivePSs migrate their partitions to survivors and
// evicted workers' data returns to previous owners. Call before the
// machines actually disappear.
func (c *Controller) HandleEvictionWarning(ids []cluster.MachineID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	span := obs.StartSpan(c.cfg.Observer.Trace(), c.cfg.TraceParent, "agileml", "drain").
		Detailf("%d machines draining", len(ids))
	start := time.Now()
	defer func() {
		c.cfg.Observer.Reg().Histogram("proteus_agileml_drain_seconds",
			"wall seconds to drain state off warned machines",
			[]float64{0.0001, 0.001, 0.01, 0.1, 1}).Observe(time.Since(start).Seconds())
		span.End()
	}()
	evicted := make(map[cluster.MachineID]bool, len(ids))
	for _, id := range ids {
		ms, ok := c.machines[id]
		if !ok {
			return fmt.Errorf("agileml: eviction warning for unknown machine %d", id)
		}
		if ms.m.Tier == cluster.Reliable {
			return fmt.Errorf("agileml: eviction warning for reliable machine %d", id)
		}
		evicted[id] = true
	}
	// Walk the warned machines in ascending ID, never in map order: the
	// round-robin hand-off below gives each partition the receiver its
	// place in this walk picks.
	order := make([]cluster.MachineID, 0, len(evicted))
	for id := range evicted {
		order = append(order, id)
	}
	slices.Sort(order)

	// Final flush from evicted actives happens regardless of scope.
	min := c.router.Clocks().Min()
	for _, id := range order {
		ms := c.machines[id]
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
				return fmt.Errorf("agileml: partition %d has no backup", b.Partition)
			}
			if err := c.deliverFlush(backup, b); err != nil {
				return err
			}
		}
	}
	if min > c.consClock {
		c.consClock = min
	}
	c.log("eviction-warning", "%d machines draining, consistent clock %d", len(ids), c.consClock)

	// Migrate evicted actives' partitions to surviving transients that
	// lack an ActivePS, or to surviving actives.
	var survivorsWithPS, survivorsNoPS []*machineState
	for _, ms := range c.sortedMachines(cluster.Transient) {
		if evicted[ms.m.ID] {
			continue
		}
		if ms.serving != nil {
			survivorsWithPS = append(survivorsWithPS, ms)
		} else {
			survivorsNoPS = append(survivorsNoPS, ms)
		}
	}
	// Preference order per §3.3: transients without an ActivePS first.
	receivers := append(append([]*machineState(nil), survivorsNoPS...), survivorsWithPS...)

	next := 0
	for _, id := range order {
		ms := c.machines[id]
		if ms.serving == nil {
			continue
		}
		for _, pid := range ms.serving.PartitionIDs() {
			if len(receivers) == 0 {
				break
			}
			snap, err := ms.serving.SnapshotPartition(pid)
			if err != nil {
				return err
			}
			if _, err := ms.serving.RemovePartition(pid); err != nil {
				return err
			}
			recv := receivers[next%len(receivers)]
			next++
			if recv.serving == nil {
				recv.serving = c.newServer(fmt.Sprintf("m%d/activeps", recv.m.ID), ps.ActivePS)
			}
			recv.serving.InstallSnapshot(snap)
			c.router.SetOwner(pid, recv.serving)
		}
		ms.serving = nil
	}
	return nil
}

// CompleteEviction removes the machines after the warning period lapses.
// The graceful work happened in HandleEvictionWarning; what remains is
// membership bookkeeping, data reassignment, and any stage change.
func (c *Controller) CompleteEviction(ids []cluster.MachineID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeMachines(ids, false)
}

// HandleFailure reacts to machines that disappeared without (sufficient)
// warning (§3.3 "Failures"): lost ActivePS partitions are restored from
// the BackupPSs onto new owners, surviving ActivePSs roll back to the
// consistent state, and all workers restart from the consistent clock —
// the "online checkpoint".
func (c *Controller) HandleFailure(ids []cluster.MachineID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeMachines(ids, true)
}

func (c *Controller) removeMachines(ids []cluster.MachineID, failure bool) error {
	lost := make(map[cluster.MachineID]bool, len(ids))
	lostActivePartitions := false
	for _, id := range ids {
		ms, ok := c.machines[id]
		if !ok {
			return fmt.Errorf("agileml: removing unknown machine %d", id)
		}
		if ms.m.Tier == cluster.Reliable {
			return fmt.Errorf("agileml: cannot remove reliable machine %d (state safety)", id)
		}
		if ms.serving != nil && ms.serving.NumPartitions() > 0 {
			lostActivePartitions = true
		}
		lost[id] = true
	}

	if failure && lostActivePartitions {
		if err := c.recoverLostPartitions(lost); err != nil {
			return err
		}
	}

	for id := range lost {
		ms := c.machines[id]
		if ms.client != nil {
			ms.client.Close()
			ms.client = nil
		}
		delete(c.machines, id)
	}

	c.cfg.Observer.Reg().Counter("proteus_agileml_machines_removed_total",
		"machines removed by cause",
		obs.L("cause", removalCause(failure))).Add(float64(len(ids)))
	if err := c.transitionTo(c.cfg.Thresholds.StageFor(c.counts())); err != nil {
		return err
	}
	if c.stage != Stage1 {
		if err := c.rebalanceActivePSs(); err != nil {
			return err
		}
	}
	err := c.refreshWorkers()
	c.observeState()
	return err
}

// removalCause labels machine removals for metrics.
func removalCause(failure bool) string {
	if failure {
		return "failure"
	}
	return "eviction"
}

// recoverLostPartitions performs the online rollback recovery of §3.3:
// restore lost partitions from backups, roll surviving actives back to
// the consistent clock, and reset every worker to redo the lost work.
func (c *Controller) recoverLostPartitions(lost map[cluster.MachineID]bool) error {
	c.recoveries++
	rollbackTo := c.minBackupClock()
	c.log("rollback-recovery", "%d machines failed, rolling back to clock %d", len(lost), rollbackTo)
	c.cfg.Observer.Reg().Counter("proteus_agileml_recoveries_total",
		"rollback recoveries after unwarned failures").Inc()

	// Survivable transient machines, longest-running first, to host the
	// restored partitions.
	var survivors []*machineState
	for _, ms := range c.sortedMachines(cluster.Transient) {
		if !lost[ms.m.ID] {
			survivors = append(survivors, ms)
		}
	}

	next := 0
	for p := 0; p < c.cfg.Partitions; p++ {
		pid := ps.PartitionID(p)
		owner, err := c.router.Owner(pid)
		if err != nil {
			return err
		}
		ownerLost := false
		for id := range lost {
			ms := c.machines[id]
			if ms.serving == owner {
				ownerLost = true
				break
			}
		}
		backup := c.router.Backup(pid)
		if backup == nil {
			return fmt.Errorf("agileml: partition %d has no backup during recovery", pid)
		}
		if ownerLost {
			if len(survivors) == 0 {
				// No transient survivors: promote the backup's copy; the
				// stage transition that follows will go to stage 1.
				continue
			}
			// §3.3: "the BackupPSs sending their solution states to the
			// new owners of the ActivePSs".
			snap, err := backup.SnapshotPartition(pid)
			if err != nil {
				return err
			}
			recv := survivors[next%len(survivors)]
			next++
			if recv.serving == nil {
				recv.serving = c.newServer(fmt.Sprintf("m%d/activeps", recv.m.ID), ps.ActivePS)
			}
			recv.serving.InstallSnapshot(snap)
			c.router.SetOwner(pid, recv.serving)
		} else {
			// Surviving active: roll this partition back to consistency
			// with the backups using its retained delta log.
			part, ok := owner.Partition(pid)
			if !ok {
				return fmt.Errorf("agileml: owner of partition %d lost it", pid)
			}
			if err := part.Rollback(rollbackTo); err != nil {
				return err
			}
		}
	}

	// All workers restart from the consistent clock (the "online
	// checkpoint"), dropping buffered updates from abandoned iterations.
	c.router.Clocks().ResetAll(rollbackTo)
	for _, ms := range c.machines {
		if ms.client != nil {
			ms.client.ResetClock(rollbackTo)
			ms.client.Invalidate()
		}
	}
	c.consClock = rollbackTo
	return nil
}

// WorkerAssignments returns each worker machine's client and data ranges
// for the current clock, sorted by machine ID. The runner drives these.
func (c *Controller) WorkerAssignments() []WorkerAssignment {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []WorkerAssignment
	for _, id := range c.workerIDs() {
		ms := c.machines[id]
		if ms.client == nil {
			continue
		}
		out = append(out, WorkerAssignment{
			Machine: id,
			Client:  ms.client,
			Ranges:  c.data.RangesOf(id),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// WorkerAssignment pairs a worker's client with its data ranges.
type WorkerAssignment struct {
	Machine cluster.MachineID
	Client  *ps.Client
	Ranges  []Range
}

// NumMachines reports registered machines (reliable, transient).
func (c *Controller) NumMachines() (reliable, transient int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts()
}

// ActivePSCount reports how many transient machines currently host an
// ActivePS with at least one partition.
func (c *Controller) ActivePSCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ms := range c.machines {
		if ms.m.Tier == cluster.Transient && ms.serving != nil && ms.serving.NumPartitions() > 0 {
			n++
		}
	}
	return n
}

// DataMapSnapshot validates and returns the current data map (tests).
func (c *Controller) DataMapSnapshot() *DataMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.data
}

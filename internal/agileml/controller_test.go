package agileml

import (
	"fmt"
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/dataset"
	"proteus/internal/ml/mf"
	"proteus/internal/ps"
)

// testApp builds a small MF app that converges quickly.
func testApp(seed int64) App {
	data := dataset.GenerateMF(dataset.MFConfig{
		Users: 30, Items: 20, Rank: 3, Observed: 250, Noise: 0.01,
	}, seed)
	return mf.New(mf.DefaultConfig(3), data)
}

// mkMachines fabricates machines without a Cluster (controller tests don't
// need the event plumbing).
func mkMachines(startID int, tier cluster.Tier, count int) []*cluster.Machine {
	out := make([]*cluster.Machine, count)
	for i := range out {
		out[i] = &cluster.Machine{
			ID:    cluster.MachineID(startID + i),
			Tier:  tier,
			Cores: 4,
		}
	}
	return out
}

func machineIDs(ms []*cluster.Machine) []cluster.MachineID {
	out := make([]cluster.MachineID, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

func newController(t *testing.T, app App, seed []*cluster.Machine) *Controller {
	t.Helper()
	ctrl, err := New(Config{App: app, MaxMachines: 64, Staleness: 1}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func TestNewValidation(t *testing.T) {
	app := testApp(1)
	rel := mkMachines(0, cluster.Reliable, 1)
	if _, err := New(Config{App: nil, MaxMachines: 4}, rel); err == nil {
		t.Fatal("nil app accepted")
	}
	if _, err := New(Config{App: app, MaxMachines: 0}, rel); err == nil {
		t.Fatal("zero MaxMachines accepted")
	}
	if _, err := New(Config{App: app, MaxMachines: 4}, nil); err == nil {
		t.Fatal("no seed machines accepted")
	}
	trans := mkMachines(0, cluster.Transient, 2)
	if _, err := New(Config{App: app, MaxMachines: 4}, trans); err == nil {
		t.Fatal("all-transient seed accepted (no safe home for state)")
	}
	if _, err := New(Config{App: app, MaxMachines: 4, Thresholds: Thresholds{Stage2: 5, Stage3: 1}}, rel); err == nil {
		t.Fatal("bad thresholds accepted")
	}
}

func TestSetupStage1AllReliable(t *testing.T) {
	seed := mkMachines(0, cluster.Reliable, 4)
	ctrl := newController(t, testApp(2), seed)
	if ctrl.Stage() != Stage1 {
		t.Fatalf("stage = %v, want stage1", ctrl.Stage())
	}
	// Every partition owned by a ParamServ, no backups.
	router := ctrl.Router()
	for p := 0; p < router.NumPartitions(); p++ {
		owner, err := router.Owner(ps.PartitionID(p))
		if err != nil {
			t.Fatal(err)
		}
		if owner.Role() != ps.ParamServ {
			t.Fatalf("partition %d owner role = %v", p, owner.Role())
		}
		if router.Backup(ps.PartitionID(p)) != nil {
			t.Fatalf("partition %d has a backup in stage 1", p)
		}
	}
	// All 4 machines run workers and own data.
	assigns := ctrl.WorkerAssignments()
	if len(assigns) != 4 {
		t.Fatalf("workers = %d, want 4", len(assigns))
	}
	if err := ctrl.DataMapSnapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupStage1MixedLowRatio(t *testing.T) {
	seed := append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 2)...)
	ctrl := newController(t, testApp(3), seed)
	if ctrl.Stage() != Stage1 {
		t.Fatalf("stage = %v at 1:1 ratio", ctrl.Stage())
	}
	// Transient machines run workers but no servers.
	if ctrl.ActivePSCount() != 0 {
		t.Fatal("ActivePS exists in stage 1")
	}
	if len(ctrl.WorkerAssignments()) != 4 {
		t.Fatal("all machines should run workers in stage 1")
	}
}

func TestSetupStage2(t *testing.T) {
	seed := append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 8)...)
	ctrl := newController(t, testApp(4), seed) // ratio 4:1 → stage 2
	if ctrl.Stage() != Stage2 {
		t.Fatalf("stage = %v, want stage2", ctrl.Stage())
	}
	// Half the transients (4) host ActivePSs.
	if got := ctrl.ActivePSCount(); got != 4 {
		t.Fatalf("ActivePS count = %d, want 4", got)
	}
	router := ctrl.Router()
	for p := 0; p < router.NumPartitions(); p++ {
		owner, err := router.Owner(ps.PartitionID(p))
		if err != nil {
			t.Fatal(err)
		}
		if owner.Role() != ps.ActivePS {
			t.Fatalf("partition %d owner role = %v, want activeps", p, owner.Role())
		}
		backup := router.Backup(ps.PartitionID(p))
		if backup == nil || backup.Role() != ps.BackupPS {
			t.Fatalf("partition %d backup wrong: %v", p, backup)
		}
	}
	// All 10 machines run workers in stage 2.
	if len(ctrl.WorkerAssignments()) != 10 {
		t.Fatalf("workers = %d, want 10", len(ctrl.WorkerAssignments()))
	}
}

func TestSetupStage3NoWorkersOnReliable(t *testing.T) {
	seed := append(mkMachines(0, cluster.Reliable, 1), mkMachines(1, cluster.Transient, 31)...)
	ctrl := newController(t, testApp(5), seed) // 31:1 → stage 3
	if ctrl.Stage() != Stage3 {
		t.Fatalf("stage = %v, want stage3", ctrl.Stage())
	}
	assigns := ctrl.WorkerAssignments()
	if len(assigns) != 31 {
		t.Fatalf("workers = %d, want 31 (no worker on the reliable machine)", len(assigns))
	}
	for _, wa := range assigns {
		if wa.Machine == 0 {
			t.Fatal("reliable machine runs a worker in stage 3")
		}
	}
}

func TestTrainingConvergesEachStage(t *testing.T) {
	cases := []struct {
		name string
		seed []*cluster.Machine
	}{
		{"stage1", mkMachines(0, cluster.Reliable, 3)},
		{"stage2", append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 6)...)},
		{"stage3", append(mkMachines(0, cluster.Reliable, 1), mkMachines(1, cluster.Transient, 20)...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := testApp(10)
			ctrl := newController(t, app, tc.seed)
			runner := NewRunner(ctrl, app)
			before, err := runner.Objective()
			if err != nil {
				t.Fatal(err)
			}
			if err := runner.RunClocks(25); err != nil {
				t.Fatal(err)
			}
			after, err := runner.Objective()
			if err != nil {
				t.Fatal(err)
			}
			if after >= before*0.7 {
				t.Fatalf("objective: before=%.4f after=%.4f", before, after)
			}
		})
	}
}

func TestScaleUpTransitionsStages(t *testing.T) {
	app := testApp(11)
	seed := mkMachines(0, cluster.Reliable, 2)
	ctrl := newController(t, app, seed)
	runner := NewRunner(ctrl, app)
	if err := runner.RunClocks(3); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stage() != Stage1 {
		t.Fatal("want stage1 before scale-up")
	}
	// Add 8 transients: ratio 4:1 → stage 2.
	if err := ctrl.AddMachines(mkMachines(10, cluster.Transient, 8)); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stage() != Stage2 {
		t.Fatalf("stage = %v after scale-up, want stage2", ctrl.Stage())
	}
	if err := ctrl.DataMapSnapshot().Validate(); err != nil {
		t.Fatal(err)
	}
	// Training continues and converges.
	before, _ := runner.Objective()
	if err := runner.RunClocks(10); err != nil {
		t.Fatal(err)
	}
	after, _ := runner.Objective()
	if after >= before {
		t.Fatalf("objective stalled after scale-up: %.4f -> %.4f", before, after)
	}
	// Add 24 more: ratio 16:1 → stage 3.
	if err := ctrl.AddMachines(mkMachines(30, cluster.Transient, 24)); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stage() != Stage3 {
		t.Fatalf("stage = %v, want stage3", ctrl.Stage())
	}
	if err := runner.RunClocks(2); err != nil {
		t.Fatal(err)
	}
}

func TestAddMachinesValidation(t *testing.T) {
	app := testApp(12)
	ctrl, err := New(Config{App: app, MaxMachines: 4}, mkMachines(0, cluster.Reliable, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.AddMachines(mkMachines(10, cluster.Transient, 5)); err == nil {
		t.Fatal("exceeding MaxMachines accepted")
	}
	if err := ctrl.AddMachines(mkMachines(0, cluster.Transient, 1)); err == nil {
		t.Fatal("duplicate machine ID accepted")
	}
	if err := ctrl.AddMachines(nil); err != nil {
		t.Fatal("empty add should be a no-op")
	}
}

func TestFullEvictionFallsBackToStage1(t *testing.T) {
	app := testApp(13)
	seed := append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 8)...)
	ctrl := newController(t, app, seed)
	runner := NewRunner(ctrl, app)
	if err := runner.RunClocks(8); err != nil {
		t.Fatal(err)
	}
	objBefore, _ := runner.Objective()

	trans := mkMachines(2, cluster.Transient, 8)
	ids := machineIDs(trans)
	// Warning, then the machines disappear.
	if err := ctrl.HandleEvictionWarning(ids); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.CompleteEviction(ids); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stage() != Stage1 {
		t.Fatalf("stage = %v after full eviction, want stage1", ctrl.Stage())
	}
	// No progress lost: objective unchanged across the eviction (state
	// was drained to the backups before the machines vanished).
	objAfter, _ := runner.Objective()
	if diff := objAfter - objBefore; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("objective changed across graceful eviction: %.6f -> %.6f", objBefore, objAfter)
	}
	// Training continues on the 2 reliable machines.
	if err := runner.RunClocks(5); err != nil {
		t.Fatal(err)
	}
	objLater, _ := runner.Objective()
	if objLater >= objAfter {
		t.Fatalf("no progress after fallback: %.4f -> %.4f", objAfter, objLater)
	}
	if err := ctrl.DataMapSnapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialEvictionMigratesPartitions(t *testing.T) {
	app := testApp(14)
	seed := append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 8)...)
	ctrl := newController(t, app, seed)
	runner := NewRunner(ctrl, app)
	if err := runner.RunClocks(5); err != nil {
		t.Fatal(err)
	}
	objBefore, _ := runner.Objective()

	// Evict 3 of the 8 transients, including ones hosting ActivePSs
	// (machines 2,3 host ActivePSs as longest-running).
	ids := []cluster.MachineID{2, 3, 9}
	if err := ctrl.HandleEvictionWarning(ids); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.CompleteEviction(ids); err != nil {
		t.Fatal(err)
	}
	// Still stage 2 (5:2 ratio) and every partition has an owner.
	if ctrl.Stage() != Stage2 {
		t.Fatalf("stage = %v, want stage2", ctrl.Stage())
	}
	router := ctrl.Router()
	for p := 0; p < router.NumPartitions(); p++ {
		if _, err := router.Owner(ps.PartitionID(p)); err != nil {
			t.Fatalf("partition %d ownerless after partial eviction: %v", p, err)
		}
	}
	objAfter, _ := runner.Objective()
	if diff := objAfter - objBefore; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("objective changed across partial eviction: %.6f -> %.6f", objBefore, objAfter)
	}
	if err := runner.RunClocks(5); err != nil {
		t.Fatal(err)
	}
	objLater, _ := runner.Objective()
	if objLater >= objAfter {
		t.Fatal("no progress after partial eviction")
	}
}

// TestEvictionHandOffInMachineOrder warns three ActivePS-holding
// transients at once. Their partitions go round-robin to the receivers,
// so which survivor gets which partition depends on the order the warned
// machines are walked in: ascending MachineID, whatever the order of
// the warning's IDs (and never Go's map order).
func TestEvictionHandOffInMachineOrder(t *testing.T) {
	seed := append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 8)...)
	ctrl := newController(t, testApp(14), seed)
	router := ctrl.Router()
	owners := func() []string {
		out := make([]string, router.NumPartitions())
		for p := range out {
			o, err := router.Owner(ps.PartitionID(p))
			if err != nil {
				t.Fatal(err)
			}
			out[p] = o.Name()
		}
		return out
	}
	// Before the warning, partition p is on m(2 + p%4).
	for p, name := range owners() {
		if want := fmt.Sprintf("m%d/activeps", 2+p%4); name != want {
			t.Fatalf("before the warning partition %d is on %s, want %s", p, name, want)
		}
	}
	if err := ctrl.HandleEvictionWarning([]cluster.MachineID{4, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The partitions of m2, m3 and m4, in that order, go round-robin to
	// m6, m7, m8, m9 (transients without an ActivePS) and then m5.
	want := []cluster.MachineID{
		6, 9, 7, 5,
		7, 5, 8, 5,
		8, 6, 9, 5,
		9, 7, 5, 5,
		5, 8, 6, 5,
		6, 9, 7, 5,
		7, 5, 8, 5,
		8, 6, 9, 5,
	}
	got := owners()
	if len(got) != len(want) {
		t.Fatalf("%d partitions, want %d", len(got), len(want))
	}
	for p, name := range got {
		if w := fmt.Sprintf("m%d/activeps", want[p]); name != w {
			t.Errorf("partition %d handed to %s, want %s", p, name, w)
		}
	}
}

func TestEvictionWarningValidation(t *testing.T) {
	app := testApp(15)
	seed := append(mkMachines(0, cluster.Reliable, 1), mkMachines(1, cluster.Transient, 2)...)
	ctrl := newController(t, app, seed)
	if err := ctrl.HandleEvictionWarning([]cluster.MachineID{99}); err == nil {
		t.Fatal("warning for unknown machine accepted")
	}
	if err := ctrl.HandleEvictionWarning([]cluster.MachineID{0}); err == nil {
		t.Fatal("warning for reliable machine accepted")
	}
	if err := ctrl.CompleteEviction([]cluster.MachineID{0}); err == nil {
		t.Fatal("eviction of reliable machine accepted")
	}
}

func TestFailureTriggersRollbackRecovery(t *testing.T) {
	app := testApp(16)
	seed := append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 8)...)
	ctrl := newController(t, app, seed)
	runner := NewRunner(ctrl, app)
	if err := runner.RunClocks(6); err != nil {
		t.Fatal(err)
	}
	consBefore := ctrl.ConsistentClock()
	if consBefore == 0 {
		t.Fatal("no consistent state after 6 clocks")
	}

	// Machines 2 and 3 (hosting ActivePSs) fail without warning.
	if err := ctrl.HandleFailure([]cluster.MachineID{2, 3}); err != nil {
		t.Fatal(err)
	}
	if ctrl.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", ctrl.Recoveries())
	}
	// Every partition has an owner again and training proceeds.
	router := ctrl.Router()
	for p := 0; p < router.NumPartitions(); p++ {
		owner, err := router.Owner(ps.PartitionID(p))
		if err != nil {
			t.Fatalf("partition %d ownerless after failure: %v", p, err)
		}
		if owner.Role() != ps.ActivePS {
			t.Fatalf("partition %d owner role = %v", p, owner.Role())
		}
	}
	objAfterRecovery, _ := runner.Objective()
	if err := runner.RunClocks(8); err != nil {
		t.Fatal(err)
	}
	objLater, _ := runner.Objective()
	if objLater >= objAfterRecovery {
		t.Fatalf("no progress after recovery: %.4f -> %.4f", objAfterRecovery, objLater)
	}
	if err := ctrl.DataMapSnapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerOnlyFailureNoRecovery(t *testing.T) {
	app := testApp(17)
	seed := append(mkMachines(0, cluster.Reliable, 2), mkMachines(2, cluster.Transient, 8)...)
	ctrl := newController(t, app, seed)
	runner := NewRunner(ctrl, app)
	if err := runner.RunClocks(3); err != nil {
		t.Fatal(err)
	}
	// Machine 9 is a worker-only transient (ActivePSs sit on 2–5).
	if err := ctrl.HandleFailure([]cluster.MachineID{9}); err != nil {
		t.Fatal(err)
	}
	if ctrl.Recoveries() != 0 {
		t.Fatalf("worker-only failure triggered a rollback (Recoveries = %d)", ctrl.Recoveries())
	}
	if err := runner.RunClocks(3); err != nil {
		t.Fatal(err)
	}
}

func TestScaleDownToStage2From3(t *testing.T) {
	app := testApp(18)
	seed := append(mkMachines(0, cluster.Reliable, 1), mkMachines(1, cluster.Transient, 20)...)
	ctrl := newController(t, app, seed) // 20:1 → stage 3
	if ctrl.Stage() != Stage3 {
		t.Fatalf("stage = %v", ctrl.Stage())
	}
	runner := NewRunner(ctrl, app)
	if err := runner.RunClocks(3); err != nil {
		t.Fatal(err)
	}
	// Evict 10 transients: 10:1 → stage 2, reliable machine gets a worker
	// again.
	var ids []cluster.MachineID
	for i := 1; i <= 10; i++ {
		ids = append(ids, cluster.MachineID(i))
	}
	if err := ctrl.HandleEvictionWarning(ids); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.CompleteEviction(ids); err != nil {
		t.Fatal(err)
	}
	if ctrl.Stage() != Stage2 {
		t.Fatalf("stage = %v after scale-down, want stage2", ctrl.Stage())
	}
	found := false
	for _, wa := range ctrl.WorkerAssignments() {
		if wa.Machine == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("reliable machine has no worker after 3→2 transition")
	}
	if err := runner.RunClocks(3); err != nil {
		t.Fatal(err)
	}
}

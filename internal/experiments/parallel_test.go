package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"proteus/internal/obs"
)

// stripWall zeroes the one non-deterministic span field: Wall records
// real elapsed time and varies between any two runs, serial included.
func stripWall(spans []obs.SpanData) []obs.SpanData {
	out := append([]obs.SpanData(nil), spans...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// The multi-tenant study's two arms fan out; bills must not move.
func TestRunMultiTenantDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) MultiTenantStudy {
		cfg := fastCfg()
		cfg.Parallel = workers
		study, err := RunMultiTenant(cfg, SyntheticJobs(4, 1), nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return *study
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("multi-tenant study differs:\nserial: %+v\nparallel: %+v", serial, parallel)
	}
}

// The tentpole determinism guarantee for causal traces: the per-job
// trees a multi-tenant run assembles — IDs, parent links, child order,
// serialized bytes — are identical between a serial and an 8-worker run
// of the same seed. Wall is the one nondeterministic span field and is
// stripped; everything else must match bit-for-bit.
func TestTraceTreesGoldenAcrossWorkers(t *testing.T) {
	run := func(workers int) map[uint64]string {
		cfg := fastCfg()
		cfg.Parallel = workers
		cfg.Observer = obs.NewObserver(nil)
		if _, err := RunMultiTenant(cfg, SyntheticJobs(4, 1), nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		byTrace := map[uint64][]obs.SpanData{}
		for _, sp := range stripWall(cfg.Observer.Trace().Spans()) {
			if sp.TraceID != 0 {
				byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
			}
		}
		trees := make(map[uint64]string, len(byTrace))
		for id, spans := range byTrace {
			roots := obs.BuildTree(spans)
			if len(roots) != 1 {
				t.Fatalf("workers=%d trace %x: %d roots, want 1", workers, id, len(roots))
			}
			b, err := json.Marshal(roots)
			if err != nil {
				t.Fatal(err)
			}
			trees[id] = string(b)
		}
		return trees
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("run recorded no traces")
	}
	parallel := run(8)
	if len(parallel) != len(serial) {
		t.Fatalf("parallel run has %d traces, serial %d", len(parallel), len(serial))
	}
	for id, want := range serial {
		if got := parallel[id]; got != want {
			t.Fatalf("trace %x differs between worker counts:\nserial:   %s\nparallel: %s", id, want, got)
		}
	}
}

// Zone diversification folds per-sample pairs in order; averages must
// not move with the worker count.
func TestRunZoneDiversifiedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ZoneStudyResult {
		cfg := fastCfg()
		cfg.Parallel = workers
		res, err := RunZoneDiversified(cfg, 2, 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	if serial, parallel := run(1), run(8); serial != parallel {
		t.Fatalf("zone study differs:\nserial: %+v\nparallel: %+v", serial, parallel)
	}
}

package sched

import (
	"container/heap"
	"errors"
	"sort"
	"testing"
	"time"

	"proteus/internal/wal"
)

// shardJobs is the golden-fingerprint workload: staggered arrivals, mixed
// priorities, a couple of deadlines, and (with MaxConcurrent=3) enough
// jobs that the admission queue actually queues.
func shardJobs() []Job {
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{
			ID:       i,
			Name:     "tenant",
			Spec:     smallSpec(),
			Arrival:  time.Duration(i) * 7 * time.Minute,
			Priority: i % 3,
		}
	}
	jobs[4].Deadline = 48 * time.Hour
	jobs[9].Deadline = 72 * time.Hour
	return jobs
}

// TestAdmissionMatchesGlobalOrder: popping the admission heap must yield
// exactly the total admitBefore order a full sort would.
func TestAdmissionMatchesGlobalOrder(t *testing.T) {
	var queue admitHeap
	var all []*jobRun
	for id := 0; id < 40; id++ {
		j := &jobRun{job: Job{
			ID:       id,
			Priority: id % 4,
			Arrival:  time.Duration(id%7) * time.Minute,
		}}
		if id%3 == 0 {
			j.job.Deadline = time.Duration(24+id%5) * time.Hour
		}
		all = append(all, j)
		heap.Push(&queue, j)
	}
	want := append([]*jobRun(nil), all...)
	sort.Slice(want, func(i, j int) bool { return admitBefore(want[i], want[j]) })
	for i, w := range want {
		if len(queue) == 0 {
			t.Fatalf("queue ran dry at %d of %d", i, len(want))
		}
		if got := heap.Pop(&queue).(*jobRun); got != w {
			t.Fatalf("pop %d: got job %d, want job %d", i, got.job.ID, w.job.ID)
		}
	}
	if len(queue) != 0 {
		t.Fatalf("%d jobs left in the queue", len(queue))
	}
}

// TestSubmitWhileTicking runs under -race in CI: another goroutine
// submits while the drive loop steps through decision ticks, whose plan
// phase runs with mu released. Every job must be accepted and finish.
func TestSubmitWhileTicking(t *testing.T) {
	f := newRecoveryFixture(t, 21)
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.MaxConcurrent = 3
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := shardJobs()
	// Seed the run with long-arriving work so it is still ticking while the
	// other goroutine submits.
	jobs[0].Arrival = 6 * time.Hour
	if err := s.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		for _, j := range jobs[1:] {
			if err := s.Submit(j); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		// The run may settle before the last Submit lands; only that
		// refusal is acceptable.
		if !errors.Is(err, ErrDraining) {
			t.Fatal(err)
		}
	}
	for _, jr := range res.Jobs {
		if jr.State != Done {
			t.Errorf("job %d ended %v", jr.Job.ID, jr.State)
		}
	}
}

// TestShardedWALCrashRecovery is the durability acceptance test for the
// retired sharded on-disk layout: internal/wal's sharded-3 fixture is the
// log a real run left behind when it died after its 500th record (one
// shard's tail torn). Its merged replay, resumed, must reproduce an
// uninterrupted run of the same jobs byte for byte, bills and trace
// trees. (internal/wal's own tests cover opening such a directory for
// writes, which makes it flat.)
func TestShardedWALCrashRecovery(t *testing.T) {
	replay, err := wal.Recover("../wal/testdata/sharded-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Jobs) != 20 || replay.LastVirtual <= 0 || !replay.TornDropped {
		t.Fatalf("fixture restored %d jobs at %v (torn %v)", len(replay.Jobs), replay.LastVirtual, replay.TornDropped)
	}
	jobs := make([]Job, len(replay.Jobs))
	for i, jr := range replay.Jobs {
		jobs[i] = JobFromRecord(jr)
	}
	_, _, want := goldenRun(t, jobs, nil)

	f := newRecoveryFixture(t, replay.Meta.Seed)
	eng, mkt := f.env(t)
	cfg := goldenConfig(f.config(eng), nil)
	rs, err := Recover(eng, mkt, cfg, replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); !st.Recovered || st.RecoveredJobs != len(jobs) {
		t.Fatalf("recovered stats = %+v", st)
	}
	if got := fingerprint(t, res, cfg.Observer); got != want {
		t.Fatal("recovered sharded run diverges from uninterrupted run")
	}
}

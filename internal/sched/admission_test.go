package sched

import (
	"container/heap"
	"sort"
	"strings"
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
		if !strings.Contains(err.Error(), "finished") {
			t.Fatal(err)
		}
	}
	for _, jr := range res.Jobs {
		if jr.State != Done {
			t.Errorf("job %d ended %v", jr.Job.ID, jr.State)
		}
	}
}

// TestShardedWALCrashRecovery is the sharded durability acceptance test:
// a scheduler logging to a sharded WAL, recovered via the merged
// multi-stream replay, must reproduce the uninterrupted run's bills and
// trace trees byte-identically.
func TestShardedWALCrashRecovery(t *testing.T) {
	const seed = 79
	f := newRecoveryFixture(t, seed)
	jobs := crashJobs()
	want := f.batchFingerprint(t, jobs)

	walDir := t.TempDir()
	log, err := wal.CreateSharded(walDir, wal.Meta{Seed: seed, Note: "shard-crash-test"},
		3, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lastSeq := log.LastSeq()
	if st := log.Stats(); st.Shards != 3 || st.Submits != len(jobs) {
		t.Fatalf("sharded wal stats = %+v", st)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and recover: merge the three streams, rebuild the
	// environment, replay, and drive to completion with the reopened log
	// attached live.
	log2, replay, err := wal.OpenSharded(walDir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if replay.LastSeq < lastSeq {
		t.Fatalf("merged replay LastSeq %d < %d written", replay.LastSeq, lastSeq)
	}
	if len(replay.Jobs) != len(jobs) {
		t.Fatalf("recovered %d jobs, want %d", len(replay.Jobs), len(jobs))
	}
	eng2, mkt2 := f.env(t)
	cfg2 := f.config(eng2)
	rs, err := Recover(eng2, mkt2, cfg2, replay, log2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); !st.Recovered || st.RecoveredJobs != len(jobs) {
		t.Fatalf("recovered stats = %+v", st)
	}
	if got := fingerprint(t, res, cfg2.Observer); got != want {
		t.Fatal("recovered sharded run diverges from uninterrupted run")
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
}

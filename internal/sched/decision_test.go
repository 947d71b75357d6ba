package sched

import "testing"

// TestDriftedNoticesMovedState: the tick commits a plan made with mu
// released only if the scheduler still matches the snapshot the plan was
// made from; a changed running set, pool size or pool membership must all
// read as drift, and an untouched scheduler as none.
func TestDriftedNoticesMovedState(t *testing.T) {
	f := newRecoveryFixture(t, goldenSeed)
	eng, mkt := f.env(t)
	s, err := New(eng, mkt, f.config(eng))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range shardJobs()[:4] {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.startJobsLocked(); err != nil {
		t.Fatal(err)
	}
	defer s.mkt.SetHandler(nil)
	// Short of capacity with two jobs running and something in the pool.
	for len(s.running) < 2 || len(s.allocOrder) == 0 || s.spotCores() >= s.totalDemand() {
		if !s.eng.Step() {
			t.Fatal("engine ran dry before the scheduler was mid-ramp")
		}
	}
	snap := s.snapshot(true)
	if !snap.acquire || len(snap.pool) == 0 || len(snap.reqs) != len(s.running) {
		t.Fatalf("snapshot %+v does not describe a scheduler short of capacity", snap)
	}
	if s.drifted(snap) {
		t.Fatal("an untouched scheduler reads as drifted")
	}

	running := s.running
	s.running = running[1:]
	if !s.drifted(snap) {
		t.Error("a job leaving the running set is not drift")
	}
	s.running = append([]*jobRun{running[1], running[0]}, running[2:]...)
	if !s.drifted(snap) {
		t.Error("a reordered running set is not drift")
	}
	s.running = running

	ba := s.allocs[snap.pool[0].id]
	ba.warned = true // leaves the pool
	if !s.drifted(snap) {
		t.Error("an allocation leaving the pool is not drift")
	}
	ba.warned = false
	if s.drifted(snap) {
		t.Error("restored scheduler still reads as drifted")
	}
	s.returnSnap(snap)
}

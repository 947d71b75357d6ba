package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// waitState polls until the job reaches the state or the deadline hits.
func waitState(t *testing.T, s *Scheduler, id int, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := s.Status(id); ok && st.State == want {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("job %d stuck in %v, want %v", id, st.State, want)
	return JobStatus{}
}

// TestServeSubmitLifecycle drives the scheduler as a live service:
// submissions land while Serve runs, duplicates are refused at any
// point, late submissions have their past arrival clamped to "now", and
// the drain rejects new work then settles both jobs into one bill.
func TestServeSubmitLifecycle(t *testing.T) {
	eng, mkt, brain := testHarness(t, 51)
	s, err := New(eng, mkt, testConfig(brain))
	if err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(4096)
	defer sub.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := s.Serve(ctx, ServeConfig{}) // unpaced
		resCh <- res
		errCh <- err
	}()

	// Submission after the run started (the live path Run never takes).
	if err := s.Submit(Job{ID: 0, Name: "live-a", Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	// Duplicate job IDs are refused while running.
	if err := s.Submit(Job{ID: 0, Name: "dup", Spec: smallSpec()}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate Submit: %v", err)
	}
	first := waitState(t, s, 0, Done)
	if first.Work <= 0 {
		t.Fatalf("job 0 finished with no work: %+v", first)
	}

	// A second submission while the virtual clock sits mid-run: its
	// requested arrival offset (0) is already in the past, so the
	// effective arrival clamps forward to the current virtual instant.
	if err := s.Submit(Job{ID: 1, Name: "live-b", Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	second := waitState(t, s, 1, Done)
	if second.Job.Arrival <= 0 {
		t.Fatalf("late submission kept past arrival %v, want clamp to now", second.Job.Arrival)
	}
	if second.Job.Arrival < first.FinishedAt {
		t.Fatalf("job 1 arrival %v before job 0 finished %v", second.Job.Arrival, first.FinishedAt)
	}

	cancel()
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// The drain refuses new work.
	if err := s.Submit(Job{ID: 2, Spec: smallSpec()}); err == nil {
		t.Fatal("Submit accepted after the service drained")
	}

	if len(res.Jobs) != 2 {
		t.Fatalf("%d job results, want 2", len(res.Jobs))
	}
	for _, jr := range res.Jobs {
		if jr.State != Done || jr.Cost <= 0 {
			t.Fatalf("job %d: state %v cost %.4f", jr.Job.ID, jr.State, jr.Cost)
		}
	}
	if res.TotalCost <= 0 {
		t.Fatalf("total cost %.4f", res.TotalCost)
	}

	// The event stream carried the full lifecycle for both jobs, in
	// order, with no drops at this buffer size.
	if n := sub.Dropped(); n != 0 {
		t.Fatalf("%d events dropped", n)
	}
	sub.Close()
	seen := map[int][]string{}
	for ev := range sub.C {
		if ev.Kind == EventTimeline {
			continue
		}
		seen[ev.JobID] = append(seen[ev.JobID], ev.Kind)
	}
	want := []string{EventQueued, EventAdmitted, EventRunning, EventDone}
	for id := 0; id <= 1; id++ {
		if strings.Join(seen[id], ",") != strings.Join(want, ",") {
			t.Fatalf("job %d events %v, want %v", id, seen[id], want)
		}
	}
}

// TestServeRejectsSecondStart: Serve and Run are both one-shot.
func TestServeRejectsSecondStart(t *testing.T) {
	eng, mkt, brain := testHarness(t, 52)
	s, err := New(eng, mkt, testConfig(brain))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{ID: 0, Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Serve(context.Background(), ServeConfig{}); err == nil {
		t.Fatal("Serve accepted after Run")
	}
	if err := s.Submit(Job{ID: 1, Spec: smallSpec()}); err == nil {
		t.Fatal("Submit accepted after Run finished")
	}
}

// TestServePacedMakesProgress covers the paced loop: with a large
// speedup the virtual clock is throttled against the wall clock but the
// job still completes promptly.
func TestServePacedMakesProgress(t *testing.T) {
	eng, mkt, brain := testHarness(t, 53)
	s, err := New(eng, mkt, testConfig(brain))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan *Result, 1)
	go func() {
		res, _ := s.Serve(ctx, ServeConfig{Speedup: 36000}) // 10 virtual hours per wall second
		resCh <- res
	}()
	if err := s.Submit(Job{ID: 0, Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, 0, Done)
	cancel()
	res := <-resCh
	if len(res.Jobs) != 1 || res.Jobs[0].State != Done {
		t.Fatalf("paced serve result %+v", res.Jobs)
	}
}

// TestServeFlushesIdleTimeline: once every job is terminal the serve
// loop goes quiescent with the virtual clock parked at the last event,
// so the final coalesced utilization point can no longer be flushed by
// time moving past it. The loop must flush it on the idle transition —
// a live /v1/timeline viewer has to see the drop to idle while the
// service sits waiting for work, not only after the drain.
func TestServeFlushesIdleTimeline(t *testing.T) {
	eng, mkt, brain := testHarness(t, 57)
	s, err := New(eng, mkt, testConfig(brain))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan *Result, 1)
	go func() {
		res, _ := s.Serve(ctx, ServeConfig{}) // unpaced
		resCh <- res
	}()
	if err := s.Submit(Job{ID: 0, Name: "idle-a", Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, 0, Done)

	// Before the drain: the retained timeline must already end on the
	// idle state (no leased cores, nothing running).
	var last UtilPoint
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tl := s.Timeline(); len(tl) > 0 {
			last = tl[len(tl)-1]
			if last.LeasedCores == 0 && last.Running == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeline never showed the drop to idle; last point %+v", last)
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	res := <-resCh
	// The idle flush must not have duplicated the point: the settled
	// timeline carries strictly increasing instants.
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].At <= res.Timeline[i-1].At {
			t.Fatalf("timeline instants not strictly increasing at %d: %v then %v",
				i, res.Timeline[i-1].At, res.Timeline[i].At)
		}
	}
}

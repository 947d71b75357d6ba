package server_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/jobspec"
	"proteus/internal/sched"
	"proteus/internal/server"
)

// TestHubSlowConsumerDrops is the backpressure acceptance test for the
// SSE hub: a stalled subscriber (full buffer, never drained) loses its
// own frames and only its own — every dispatch still completes without
// blocking, the healthy subscriber receives the complete stream, and the
// stall shows up on the stalled connection's drop counter. Because
// Dispatch is what the scheduler-facing pump runs, "Dispatch never
// blocks" is exactly "a slow viewer never delays the decision tick".
func TestHubSlowConsumerDrops(t *testing.T) {
	h := server.NewHub(nil, nil) // detached: the test drives Dispatch
	defer h.Close()

	stalled := h.Timeline(2)
	fast := h.Timeline(256)
	job := h.Job(7, 8)

	const n = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			u := sched.UtilPoint{At: time.Duration(i) * time.Minute, LeasedCores: i + 1}
			h.Dispatch(sched.Event{Kind: sched.EventTimeline, At: u.At, JobID: -1, Util: &u})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Dispatch blocked on a stalled consumer")
	}

	// The healthy connection got every frame, in order, fully framed.
	for i := 0; i < n; i++ {
		select {
		case fr := <-fast.C:
			if fr.At != time.Duration(i)*time.Minute {
				t.Fatalf("fast frame %d at %v, want %v", i, fr.At, time.Duration(i)*time.Minute)
			}
			if !bytes.HasPrefix(fr.Data, []byte("event: timeline\ndata: ")) ||
				!bytes.HasSuffix(fr.Data, []byte("\n\n")) {
				t.Fatalf("fast frame %d malformed: %q", i, fr.Data)
			}
			if fr.Terminal {
				t.Fatalf("timeline frame %d marked terminal", i)
			}
		default:
			t.Fatalf("fast connection missing frame %d of %d", i, n)
		}
	}

	// The stalled connection kept its buffered prefix and dropped the
	// rest; nobody else's counter moved.
	if got := stalled.Dropped(); got != n-2 {
		t.Fatalf("stalled dropped %d frames, want %d", got, n-2)
	}
	if len(stalled.C) != 2 {
		t.Fatalf("stalled buffer holds %d frames, want 2", len(stalled.C))
	}
	if fast.Dropped() != 0 || job.Dropped() != 0 {
		t.Fatalf("healthy connections dropped frames: fast=%d job=%d",
			fast.Dropped(), job.Dropped())
	}

	// Filtering: the job connection saw none of the timeline traffic and
	// receives only its own job's lifecycle, terminal on done.
	if len(job.C) != 0 {
		t.Fatalf("job connection received %d timeline frames", len(job.C))
	}
	h.Dispatch(sched.Event{Kind: sched.EventQueued, JobID: 8, JobName: "other"})
	h.Dispatch(sched.Event{Kind: sched.EventQueued, JobID: 7, JobName: "mine"})
	h.Dispatch(sched.Event{Kind: sched.EventDone, JobID: 7, JobName: "mine"})
	if len(job.C) != 2 {
		t.Fatalf("job connection holds %d frames, want 2", len(job.C))
	}
	first, second := <-job.C, <-job.C
	if first.Terminal || !second.Terminal {
		t.Fatalf("terminal flags = %v,%v, want false,true", first.Terminal, second.Terminal)
	}
	if !bytes.Contains(first.Data, []byte(`"job_id": 7`)) && !bytes.Contains(first.Data, []byte(`"job_id":7`)) {
		t.Fatalf("job frame lacks job_id 7: %q", first.Data)
	}

	// Detach closes the connection's channel; a detached connection stops
	// counting against dispatches.
	h.Detach(stalled)
	if _, open := <-stalled.C; open {
		// two buffered frames drain first
		<-stalled.C
		if _, open := <-stalled.C; open {
			t.Fatal("stalled channel still open after Detach")
		}
	}
}

// countingHub builds a hub on sc whose subscribe function records every
// subscription it hands out, so a test can assert on the subscriptions
// themselves: how many were ever made, and whether the latest is still
// open.
type countingHub struct {
	*server.Hub
	mu   sync.Mutex
	subs []*sched.Subscription
}

func newCountingHub(sc *sched.Scheduler) *countingHub {
	c := &countingHub{}
	c.Hub = server.NewHub(func() *sched.Subscription {
		sub := sc.Subscribe(4096)
		c.mu.Lock()
		c.subs = append(c.subs, sub)
		c.mu.Unlock()
		return sub
	}, nil)
	return c
}

func (c *countingHub) made() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// TestHubWithoutViewersNeverSubscribes: a whole scheduler run next to a
// hub nobody attaches to makes no subscription at all — the scheduler
// has nobody to build an event for, so it performs zero sends — and the
// run's result is there regardless.
func TestHubWithoutViewersNeverSubscribes(t *testing.T) {
	eng, mkt, brain := testHarness(t, 97)
	sc, err := sched.New(eng, mkt, testConfig(brain, nil))
	if err != nil {
		t.Fatal(err)
	}
	hub := newCountingHub(sc)
	defer hub.Close()
	jobs, err := jobspec.Jobs(testEntries(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := sc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) || len(sc.Timeline()) == 0 {
		t.Fatalf("run finished %d of %d jobs with %d timeline points", len(res.Jobs), len(jobs), len(sc.Timeline()))
	}
	if n := hub.made(); n != 0 {
		t.Fatalf("an unwatched hub subscribed %d times", n)
	}
	if st := sc.Stats(); st.Subscribers != 0 || st.EventsDropped != 0 {
		t.Fatalf("after an unwatched run: %d subscribers, %d events dropped", st.Subscribers, st.EventsDropped)
	}
}

// serveUnpaced drives sc on its own goroutine until the test ends.
func serveUnpaced(t *testing.T, sc *sched.Scheduler) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		_, err := sc.Serve(ctx, sched.ServeConfig{})
		served <- err
	}()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Error(err)
		}
	})
}

func submitEntry(t *testing.T, sc *sched.Scheduler, id int) {
	t.Helper()
	jobs, err := jobspec.Jobs(testEntries()[:1], id)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
}

func waitDone(t *testing.T, sc *sched.Scheduler, id int) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, ok := sc.Status(id); ok && st.State == sched.Done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never finished", id)
		}
	}
}

// lifecycle reads a job connection to its terminal frame and returns the
// event kinds in order.
func lifecycle(t *testing.T, conn *server.HubConn) string {
	t.Helper()
	var kinds []string
	for {
		select {
		case fr, open := <-conn.C:
			if !open {
				t.Fatalf("connection closed after %v", kinds)
			}
			kind, _, _ := strings.Cut(strings.TrimPrefix(string(fr.Data), "event: "), "\n")
			kinds = append(kinds, kind)
			if fr.Terminal {
				return strings.Join(kinds, ",")
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("no terminal frame; got %v", kinds)
		}
	}
}

// TestHubSubscribesOnlyWhileAttached walks the hub through idle →
// attached → idle → attached against a live scheduler: the subscription
// exists exactly while a connection does (the first attach makes it, the
// last detach closes it), a job that runs while the hub is idle sends
// nothing, and a connection attached after an idle spell still sees its
// job's whole lifecycle.
func TestHubSubscribesOnlyWhileAttached(t *testing.T) {
	const want = "queued,admitted,running,done"
	eng, mkt, brain := testHarness(t, 97)
	sc, err := sched.New(eng, mkt, testConfig(brain, nil))
	if err != nil {
		t.Fatal(err)
	}
	hub := newCountingHub(sc)
	defer hub.Close()
	serveUnpaced(t, sc)

	// Idle: job 0 runs to completion and nobody is told.
	submitEntry(t, sc, 0)
	waitDone(t, sc, 0)
	if hub.made() != 0 || sc.Stats().Subscribers != 0 {
		t.Fatalf("idle hub: %d subscriptions made, %d live", hub.made(), sc.Stats().Subscribers)
	}

	// Attached: two connections share one subscription, live before
	// either attach returns.
	mine, other := hub.Job(1, 0), hub.Timeline(0)
	if hub.made() != 1 || sc.Stats().Subscribers != 1 {
		t.Fatalf("two connections: %d subscriptions made, %d live", hub.made(), sc.Stats().Subscribers)
	}
	submitEntry(t, sc, 1)
	if got := lifecycle(t, mine); got != want {
		t.Fatalf("job 1 lifecycle %s, want %s", got, want)
	}
	hub.Detach(mine)
	if sc.Stats().Subscribers != 1 {
		t.Fatal("the subscription went with the first of two connections")
	}
	select {
	case <-other.C:
	case <-time.After(30 * time.Second):
		t.Fatal("the timeline connection saw nothing of job 1")
	}

	// Idle again on the last detach: the subscription is closed, not
	// parked, and job 2 runs unobserved without a drop being counted.
	hub.Detach(other)
	first := hub.subs[0]
	for range first.C {
	}
	if sc.Stats().Subscribers != 0 {
		t.Fatal("the subscription outlived its last connection")
	}
	submitEntry(t, sc, 2)
	waitDone(t, sc, 2)
	if st := sc.Stats(); hub.made() != 1 || st.Subscribers != 0 || st.EventsDropped != 0 {
		t.Fatalf("idle after detach: %d subscriptions made, %d live, %d events dropped",
			hub.made(), st.Subscribers, st.EventsDropped)
	}

	// Attached after idle: a fresh subscription, and nothing of jobs 0–2
	// leaks into the new connection.
	again := hub.Job(3, 0)
	if hub.made() != 2 || sc.Stats().Subscribers != 1 {
		t.Fatalf("re-attach: %d subscriptions made, %d live", hub.made(), sc.Stats().Subscribers)
	}
	submitEntry(t, sc, 3)
	if got := lifecycle(t, again); got != want {
		t.Fatalf("job 3 lifecycle %s, want %s", got, want)
	}
	hub.Detach(again)
	if sc.Stats().Subscribers != 0 {
		t.Fatal("the second subscription outlived its connection")
	}
}

// TestSSEAttachAfterIdleKeepsLifecycle is TestSSEAttachThenSubmitKeepsLifecycle
// on a server whose hub has already been attached once and gone idle:
// the second stream's subscription must again be live before the headers
// tell the client it may submit.
func TestSSEAttachAfterIdleKeepsLifecycle(t *testing.T) {
	eng, mkt, brain := testHarness(t, 97)
	sc, err := sched.New(eng, mkt, testConfig(brain, nil))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheduler: sc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serveUnpaced(t, sc)
	if n := sc.Stats().Subscribers; n != 0 {
		t.Fatalf("a server nobody watches holds %d subscriptions", n)
	}

	for id := 0; id < 2; id++ {
		w := &gatedWriter{hdr: http.Header{}, attached: make(chan struct{}), release: make(chan struct{})}
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/events", id), nil))
		}()
		<-w.attached
		if n := sc.Stats().Subscribers; n != 1 {
			t.Fatalf("stream %d attached with %d subscriptions", id, n)
		}
		// The whole lifecycle happens inside the header flush.
		submitEntry(t, sc, id)
		waitDone(t, sc, id)
		close(w.release)
		select {
		case <-handled:
		case <-time.After(30 * time.Second):
			t.Fatalf("stream %d did not end with the job's terminal event", id)
		}
		var kinds []string
		for _, line := range strings.Split(w.body.String(), "\n") {
			if kind, ok := strings.CutPrefix(line, "event: "); ok {
				kinds = append(kinds, kind)
			}
		}
		if want := "queued,admitted,running,done"; strings.Join(kinds, ",") != want {
			t.Fatalf("stream %d: SSE kinds %v, want %s", id, kinds, want)
		}
		// The handler has returned, so its connection is detached and
		// the hub is idle until the next stream.
		if n := sc.Stats().Subscribers; n != 0 {
			t.Fatalf("after stream %d the server still holds %d subscriptions", id, n)
		}
	}
}

// TestHubFanoutAllocs holds the serve path's hot loop to one allocation
// per event: a scheduler event dispatched through the hub to 16 live
// timeline viewers is encoded once and fanned out as pre-framed bytes,
// not marshalled per viewer. Under the race detector the count moves
// (the JSON encoder's sync.Pool), so the budget runs without it only.
func TestHubFanoutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the frame encoder's allocation count moves under the race detector")
	}
	const viewers, budget = 16, 1
	hub := server.NewHub(nil, nil) // detached: the test drives Dispatch
	var wg sync.WaitGroup
	for i := 0; i < viewers; i++ {
		conn := hub.Timeline(4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range conn.C {
			}
		}()
	}
	u := sched.UtilPoint{LeasedCores: 512, IdleCores: 32, Running: 8, Queued: 3}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		u.At = time.Duration(i) * time.Second
		hub.Dispatch(sched.Event{Kind: sched.EventTimeline, At: u.At, JobID: -1, Util: &u})
		i++
	})
	hub.Close()
	wg.Wait()
	t.Logf("%v allocs per event to %d viewers", allocs, viewers)
	if allocs > budget {
		t.Fatalf("dispatching one event to %d viewers allocates %v times, over the budget of %d", viewers, allocs, budget)
	}
}

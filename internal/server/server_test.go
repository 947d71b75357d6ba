package server_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/jobspec"
	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/server"
	"proteus/internal/server/client"
	"proteus/internal/sim"
	"proteus/internal/trace"
)

// testHarness builds a brain trained on a synthetic window plus an
// evaluation market on a disjoint trace — the same split the sched
// tests use, sized down for speed. Both halves of the bills-parity test
// call this with the same seed, so the two runs see identical markets.
func testHarness(t testing.TB, seed int64) (*sim.Engine, *market.Market, *bidbrain.Brain) {
	t.Helper()
	return harnessDays(t, seed, 7)
}

// harnessDays is testHarness over an evaluation market of the given
// length.
func harnessDays(t testing.TB, seed int64, days int) (*sim.Engine, *market.Market, *bidbrain.Brain) {
	t.Helper()
	prices := market.CatalogPrices(market.DefaultCatalog())
	hist := trace.GenerateSet("train", 7*24*time.Hour, prices, seed+1000)
	betas := make(map[string]*trace.BetaTable)
	for name := range prices {
		tr, _ := hist.Get(name)
		betas[name] = trace.BuildBetaTable(tr, trace.DefaultDeltas(), 150, seed)
	}
	brain, err := bidbrain.New(bidbrain.DefaultParams(), betas, nil)
	if err != nil {
		t.Fatal(err)
	}
	eval := trace.GenerateSet("eval", time.Duration(days)*24*time.Hour, prices, seed)
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{
		Catalog: market.DefaultCatalog(),
		Traces:  eval,
		Warning: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mkt, brain
}

func testConfig(brain *bidbrain.Brain, o *obs.Observer) sched.Config {
	return sched.Config{
		Brain:         brain,
		ReliableType:  "c4.xlarge",
		ReliableCount: 4,
		MaxSpotCores:  512,
		ChunkCores:    128,
		Observer:      o,
	}
}

// testEntries is the shared workload: staggered arrivals, mixed
// priorities.
func testEntries() []jobspec.Entry {
	return []jobspec.Entry{
		{Name: "tenant-a", Hours: 0.5, Priority: 2},
		{Name: "tenant-b", Hours: 0.5, ArrivalMinutes: 10},
		{Name: "tenant-c", Hours: 0.5, ArrivalMinutes: 20, Priority: 1},
	}
}

// TestServeMatchesBatchBills is the end-to-end acceptance path: jobs
// submitted through the typed client against a Serve-driven scheduler
// produce SSE transitions in lifecycle order, and the final accounting
// is identical to a direct batch Run of the same jobs on the same seed.
func TestServeMatchesBatchBills(t *testing.T) {
	const seed = 412

	// Direct batch run: same entries converted the same way.
	jobs, err := jobspec.Jobs(testEntries(), 0)
	if err != nil {
		t.Fatal(err)
	}
	engA, mktA, brainA := testHarness(t, seed)
	direct, err := sched.New(engA, mktA, testConfig(brainA, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := direct.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Service run: same seed, jobs arrive over HTTP.
	engB, mktB, brainB := testHarness(t, seed)
	o := obs.NewObserver(engB.Now)
	sc, err := sched.New(engB, mktB, testConfig(brainB, o))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheduler: sc, Observer: o, EventBuffer: 8192})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan *sched.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := sc.Serve(ctx, sched.ServeConfig{}) // unpaced
		resCh <- res
		errCh <- err
	}()

	c := client.New(ts.URL, nil)

	// Attach the event stream for job 0 before submitting, so no
	// transition can be missed.
	streamCtx, streamCancel := context.WithTimeout(context.Background(), time.Minute)
	defer streamCancel()
	stream, err := c.JobEvents(streamCtx, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	ids, err := c.Submit(context.Background(), testEntries()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("accepted IDs %v, want [0 1 2]", ids)
	}

	// The stream must deliver the full lifecycle in order and then end.
	var kinds []string
	for {
		msg, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream: %v (kinds so far %v)", err, kinds)
		}
		kinds = append(kinds, msg.Event)
		if msg.Event != "status" {
			ev, err := msg.AsEvent()
			if err != nil {
				t.Fatal(err)
			}
			if ev.JobID == nil || *ev.JobID != 0 {
				t.Fatalf("event for wrong job: %+v", ev)
			}
		}
	}
	wantKinds := []string{"queued", "admitted", "running", "done"}
	if strings.Join(kinds, ",") != strings.Join(wantKinds, ",") {
		t.Fatalf("SSE kinds %v, want %v", kinds, wantKinds)
	}

	// All jobs reach done; status and stats agree.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), time.Minute)
	defer waitCancel()
	for _, id := range ids {
		st, err := c.WaitJob(waitCtx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %d state %q", id, st.State)
		}
		// Accrual is summed piecewise; allow float round-off at the target.
		if st.Work < st.TargetWork*0.999 {
			t.Fatalf("job %d work %.3f below target %.3f", id, st.Work, st.TargetWork)
		}
	}
	all, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("%d jobs listed, want 3", len(all))
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Done != 3 || stats.Jobs != 3 {
		t.Fatalf("stats %+v, want 3 done of 3", stats)
	}
	if stats.CostSoFar <= 0 {
		t.Fatalf("stats cost %.4f, want positive", stats.CostSoFar)
	}

	// Timeline replay delivers recorded utilization history.
	tlCtx, tlCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer tlCancel()
	tl, err := c.Timeline(tlCtx, true)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := tl.Next()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Event != "timeline" {
		t.Fatalf("timeline frame event %q", msg.Event)
	}
	if _, err := msg.AsUtil(); err != nil {
		t.Fatal(err)
	}
	tl.Close()

	// The shared mux carries /metrics with the api_* families.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{
		"proteus_api_requests_total",
		"proteus_api_request_seconds",
		"proteus_api_inflight_requests",
	} {
		if !strings.Contains(string(body), fam) {
			t.Fatalf("/metrics lacks %s", fam)
		}
	}

	// Drain and compare bills with the batch run: the accounting must be
	// identical, not merely close.
	cancel()
	got := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got.TotalCost != want.TotalCost {
		t.Fatalf("serve bill $%.6f != batch bill $%.6f", got.TotalCost, want.TotalCost)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("serve makespan %v != batch %v", got.Makespan, want.Makespan)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("serve %d jobs != batch %d", len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		g, w := got.Jobs[i], want.Jobs[i]
		if g.Cost != w.Cost || g.Finished != w.Finished || g.State != w.State {
			t.Fatalf("job %d: serve {cost %.6f finished %v %v} != batch {cost %.6f finished %v %v}",
				g.Job.ID, g.Cost, g.Finished, g.State, w.Cost, w.Finished, w.State)
		}
	}
}

// TestAPIErrors exercises the failure surface without driving the
// scheduler: field-level 400s, duplicate-ID 409s, and 404s.
func TestAPIErrors(t *testing.T) {
	eng, mkt, brain := testHarness(t, 97)
	sc, err := sched.New(eng, mkt, testConfig(brain, nil))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheduler: sc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	// Invalid submission: every bad field reported with its index.
	_, err = c.Submit(ctx,
		jobspec.Entry{Hours: 0},
		jobspec.Entry{Hours: 1, Priority: 999},
	)
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("error %T (%v), want *client.APIError", err, err)
	}
	if apiErr.Status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", apiErr.Status)
	}
	if len(apiErr.Fields) != 2 ||
		apiErr.Fields[0].Field != "hours" || apiErr.Fields[0].Index != 0 ||
		apiErr.Fields[1].Field != "priority" || apiErr.Fields[1].Index != 1 {
		t.Fatalf("fields %+v", apiErr.Fields)
	}

	// Valid submission, then a duplicate explicit ID conflicts.
	five := 5
	if _, err := c.Submit(ctx, jobspec.Entry{ID: &five, Hours: 1}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, jobspec.Entry{ID: &five, Hours: 1})
	apiErr, ok = err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate ID: %v, want 409", err)
	}

	// Auto-IDs skip past explicit ones across submissions.
	ids, err := c.Submit(ctx, jobspec.Entry{Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 6 {
		t.Fatalf("auto ID %v, want [6]", ids)
	}

	// Unknown and malformed job IDs.
	if _, err := c.Job(ctx, 99); !client.IsNotFound(err) {
		t.Fatalf("missing job: %v, want 404", err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ID status %d, want 400", resp.StatusCode)
	}

	// Pre-start listing still works.
	all, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].ID != 5 || all[1].ID != 6 {
		t.Fatalf("jobs %+v", all)
	}
	if all[0].State != "pending" {
		t.Fatalf("pre-start state %q", all[0].State)
	}
}

// TestTraceEndpoint is the e2e acceptance check for causal tracing over
// HTTP: each job's GET /v1/jobs/{id}/trace returns exactly one rooted
// tree whose parent links all resolve, covering the full lifecycle
// (submit through done), fully closed once the scheduler drains, with
// zero drop counters in /v1/stats.
func TestTraceEndpoint(t *testing.T) {
	eng, mkt, brain := testHarness(t, 733)
	o := obs.NewObserver(eng.Now)
	sc, err := sched.New(eng, mkt, testConfig(brain, o))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheduler: sc, Observer: o, EventBuffer: 8192})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan *sched.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := sc.Serve(ctx, sched.ServeConfig{}) // unpaced
		resCh <- res
		errCh <- err
	}()

	c := client.New(ts.URL, nil)
	ids, err := c.Submit(context.Background(), testEntries()...)
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), time.Minute)
	defer waitCancel()
	statuses := make(map[int]server.JobStatus, len(ids))
	for _, id := range ids {
		st, err := c.WaitJob(waitCtx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "done" {
			t.Fatalf("job %d state %q", id, st.State)
		}
		statuses[id] = st
	}

	// Drain before reading trees so every root span has closed; the
	// httptest server outlives the scheduler loop.
	cancel()
	<-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	for _, id := range ids {
		tr, err := c.JobTrace(context.Background(), id)
		if err != nil {
			t.Fatalf("trace %d: %v", id, err)
		}
		if tr.JobID != id {
			t.Fatalf("trace job_id %d, want %d", tr.JobID, id)
		}
		if tr.TraceID == "" || tr.TraceID != statuses[id].TraceID {
			t.Fatalf("trace_id %q does not match job status %q", tr.TraceID, statuses[id].TraceID)
		}
		if len(tr.Roots) != 1 {
			t.Fatalf("job %d has %d roots, want 1 (orphaned subtrees mean broken parent links)", id, len(tr.Roots))
		}
		root := tr.Roots[0]
		if root.Component != "sched" || root.Name != "job" || root.ParentID != "" {
			t.Fatalf("job %d root = %s/%s parent %q", id, root.Component, root.Name, root.ParentID)
		}
		walked := 0
		names := map[string]bool{}
		var walk func(sp server.TraceSpan, parentID string)
		walk = func(sp server.TraceSpan, parentID string) {
			walked++
			names[sp.Name] = true
			if sp.Open {
				t.Fatalf("job %d span %s/%s still open after drain", id, sp.Component, sp.Name)
			}
			if sp.ParentID != parentID {
				t.Fatalf("job %d span %s parent_id %q, want %q", id, sp.SpanID, sp.ParentID, parentID)
			}
			for _, ch := range sp.Children {
				walk(ch, sp.SpanID)
			}
		}
		walk(root, "")
		if walked != tr.Spans {
			t.Fatalf("job %d tree visits %d spans, response says %d", id, walked, tr.Spans)
		}
		for _, want := range []string{"submit", "queued", "admitted", "running", "lease", "done"} {
			if !names[want] {
				t.Fatalf("job %d tree lacks %q span (has %v)", id, want, names)
			}
		}
	}

	if _, err := c.JobTrace(context.Background(), 99); !client.IsNotFound(err) {
		t.Fatalf("missing job trace: %v, want 404", err)
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsDropped != 0 || stats.SpansDropped != 0 {
		t.Fatalf("drop counters events=%d spans=%d, want 0", stats.EventsDropped, stats.SpansDropped)
	}
	if d := o.Trace().Dropped(); d != stats.SpansDropped {
		t.Fatalf("tracer dropped %d spans, /v1/stats says %d", d, stats.SpansDropped)
	}
	// The two latency families a dashboard reads for this run have samples.
	if h := o.Reg().Histogram("proteus_api_request_seconds", "", nil, obs.L("route", "submit")); h.Count() == 0 {
		t.Fatal(`no sample in proteus_api_request_seconds{route="submit"}`)
	}
	if h := o.Reg().Histogram("proteus_sched_admission_wait_seconds", "", nil); h.Count() == 0 {
		t.Fatal("no sample in proteus_sched_admission_wait_seconds")
	}
}

// TestSSEAttachFlushesHeaders: attaching to the event stream of a job
// nobody has submitted yet must return the response headers at once — not
// with the first frame, which may be a heartbeat interval away — so a
// client knows it is attached before it submits.
func TestSSEAttachFlushesHeaders(t *testing.T) {
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
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Well under the heartbeat: without the flush the request times out
	// waiting for headers.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, path := range []string{"/v1/jobs/0/events", "/v1/timeline"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: headers never arrived: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
			t.Errorf("%s: status %d content-type %q", path, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		resp.Body.Close()
	}
}

// gatedWriter is a streaming ResponseWriter whose first Flush — the SSE
// header flush, the moment a client learns it is attached — blocks until
// the test lets it go.
type gatedWriter struct {
	hdr      http.Header
	mu       sync.Mutex
	body     bytes.Buffer
	once     sync.Once
	attached chan struct{} // closed when the first Flush begins
	release  chan struct{} // the first Flush returns once this closes
}

func (w *gatedWriter) Header() http.Header { return w.hdr }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}
func (w *gatedWriter) Flush() {
	w.once.Do(func() {
		close(w.attached)
		<-w.release
	})
}

// TestSSEAttachThenSubmitKeepsLifecycle: the documented way to watch a
// job is to attach to its event stream first and submit once the
// response headers arrive. The unpaced engine can finish the job before
// the handler runs another line, so the handler must have decided what to
// send before the headers go out: here the whole lifecycle happens inside
// the header flush, and all four events must still be delivered.
func TestSSEAttachThenSubmitKeepsLifecycle(t *testing.T) {
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		_, err := sc.Serve(ctx, sched.ServeConfig{}) // unpaced
		served <- err
	}()

	w := &gatedWriter{hdr: http.Header{}, attached: make(chan struct{}), release: make(chan struct{})}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/0/events", nil))
	}()
	<-w.attached
	jobs, err := jobspec.Jobs(testEntries()[:1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(jobs[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, ok := sc.Status(0); ok && st.State == sched.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 0 never finished")
		}
	}
	close(w.release)
	select {
	case <-handled:
	case <-time.After(30 * time.Second):
		t.Fatal("the stream did not end with the job's terminal event")
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, line := range strings.Split(w.body.String(), "\n") {
		if kind, ok := strings.CutPrefix(line, "event: "); ok {
			kinds = append(kinds, kind)
		}
	}
	if want := "queued,admitted,running,done"; strings.Join(kinds, ",") != want {
		t.Fatalf("SSE kinds %v, want %s", kinds, want)
	}
}

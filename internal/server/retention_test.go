package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/jobspec"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/server"
	"proteus/internal/server/client"
)

// submitWave submits n jobs of the given size straight to the
// scheduler, IDs from first, one arriving every `every` virtual minutes
// (arrivals already past start now), and waits until all are done.
func submitWave(t *testing.T, sc *sched.Scheduler, first, n int, hours, every float64) {
	t.Helper()
	entries := make([]jobspec.Entry, n)
	for i := range entries {
		entries[i] = jobspec.Entry{Hours: hours, ArrivalMinutes: every * float64(i), Priority: i % 3}
	}
	jobs, err := jobspec.Jobs(entries, first)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := sc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
			if st, ok := sc.Status(j.ID); ok && st.State == sched.Done {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never finished", j.ID)
			}
		}
	}
}

// hourly folds points the way the scheduler's timeline folds its older
// history: one point per virtual hour, on the hour, holding the hour's
// maxima.
func hourly(points []sched.UtilPoint) []sched.UtilPoint {
	var out []sched.UtilPoint
	for _, p := range points {
		hour := p.At.Truncate(time.Hour)
		if n := len(out); n > 0 && out[n-1].At == hour {
			o := &out[n-1]
			o.LeasedCores = max(o.LeasedCores, p.LeasedCores)
			o.IdleCores = max(o.IdleCores, p.IdleCores)
			o.Running = max(o.Running, p.Running)
			o.Queued = max(o.Queued, p.Queued)
			continue
		}
		p.At = hour
		out = append(out, p)
	}
	return out
}

// timelineFrames parses the data lines of an SSE body of timeline
// frames.
func timelineFrames(t *testing.T, body string) []server.UtilPoint {
	t.Helper()
	var out []server.UtilPoint
	for _, line := range strings.Split(body, "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var p server.UtilPoint
		if err := json.Unmarshal([]byte(data), &p); err != nil {
			t.Fatalf("frame %q: %v", data, err)
		}
		out = append(out, p)
	}
	return out
}

func wireUtil(points []sched.UtilPoint) []server.UtilPoint {
	out := make([]server.UtilPoint, len(points))
	for i, p := range points {
		out[i] = server.UtilPoint{AtMinutes: p.At.Minutes(), LeasedCores: p.LeasedCores,
			IdleCores: p.IdleCores, Running: p.Running, Queued: p.Queued}
	}
	return out
}

// TestTimelineReplayPastFold: a /v1/timeline viewer who attaches after
// the scheduler's timeline has folded its older history into hourly
// points gets that history, then the full-resolution tail, then every
// live point — each once, with nothing missing. The viewer attaches
// while a wave of jobs runs inside its header flush, so the live frames
// queued for it overlap what the replay then serves and must be skipped
// (the replay cursor); a last wave after the replay must arrive live.
func TestTimelineReplayPastFold(t *testing.T) {
	eng, mkt, brain := harnessDays(t, 45, 21)
	sc, err := sched.New(eng, mkt, testConfig(brain, nil))
	if err != nil {
		t.Fatal(err)
	}
	// The reference keeps every point the scheduler emits; both buffers
	// hold every event of the run, so neither drops.
	ref := sc.Subscribe(1 << 17)
	srv, err := server.New(server.Config{Scheduler: sc, EventBuffer: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		_, err := sc.Serve(ctx, sched.ServeConfig{}) // unpaced
		served <- err
	}()
	drain := sync.OnceValue(func() error {
		cancel()
		return <-served
	})
	defer drain()

	// Enough lease churn that the timeline folds before anyone watches.
	submitWave(t, sc, 0, 100, 8, 180)

	w := &gatedWriter{hdr: http.Header{}, attached: make(chan struct{}), release: make(chan struct{})}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/timeline", nil))
	}()
	<-w.attached
	// Attached but not yet replayed: this wave's points queue live for
	// the viewer and land in the history it is about to replay.
	submitWave(t, sc, 100, 5, 8, 0)
	replayed := len(sc.Timeline())
	close(w.release)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		n := bytes.Count(w.body.Bytes(), []byte("\ndata: "))
		w.mu.Unlock()
		if n >= replayed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay wrote %d of %d points", n, replayed)
		}
	}
	submitWave(t, sc, 105, 5, 8, 0)

	if err := drain(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // delivers what the hub holds, then ends the stream
	select {
	case <-handled:
	case <-time.After(30 * time.Second):
		t.Fatal("the timeline stream did not end with the hub")
	}
	ref.Close()
	var all []sched.UtilPoint
	for ev := range ref.C {
		if ev.Kind == sched.EventTimeline {
			all = append(all, *ev.Util)
		}
	}
	if ref.Dropped() != 0 {
		t.Fatalf("the reference subscriber dropped %d events", ref.Dropped())
	}

	w.mu.Lock()
	got := timelineFrames(t, w.body.String())
	w.mu.Unlock()
	if len(got) <= replayed {
		t.Fatalf("%d frames for %d replayed points: the last wave never arrived live", len(got), replayed)
	}
	// got must be the hourly fold of the reference's first f points, then
	// every later point as emitted, for the f the replay had folded.
	want := wireUtil(all)
	tail := 0
	for tail < len(got) && tail < len(want) && got[len(got)-1-tail] == want[len(want)-1-tail] {
		tail++
	}
	for ; tail > 0; tail-- {
		f := len(all) - tail
		head := wireUtil(hourly(all[:f]))
		if len(head)+tail != len(got) {
			continue
		}
		same := true
		for i := range head {
			same = same && got[i] == head[i]
		}
		if !same {
			continue
		}
		if f == 0 {
			t.Fatal("the replay served no hourly history: the timeline never folded")
		}
		t.Logf("%d points emitted; the viewer got %d hourly points for the first %d, then the other %d as emitted",
			len(all), len(head), f, tail)
		return
	}
	for i := 1; i < len(got); i++ {
		if got[i].AtMinutes <= got[i-1].AtMinutes {
			t.Fatalf("frame %d at %v min after %v min: a point twice", i, got[i].AtMinutes, got[i-1].AtMinutes)
		}
	}
	t.Fatalf("the viewer's %d frames are not the hourly history plus every later point of the %d emitted (a gap)", len(got), len(all))
}

// TestTraceEndpointUnderRetention: once span retention has discarded
// part of the record, GET /v1/jobs/{id}/trace reports for each trace
// exactly how many of its spans are gone, answers 410 for a trace with
// nothing left instead of an empty tree, and reports 0 for a trace
// retention has not reached while others have lost spans.
func TestTraceEndpointUnderRetention(t *testing.T) {
	eng, mkt, brain := testHarness(t, 733)
	o := obs.NewObserver(eng.Now)
	sc, err := sched.New(eng, mkt, testConfig(brain, o))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheduler: sc, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		_, err := sc.Serve(ctx, sched.ServeConfig{}) // unpaced
		served <- err
	}()
	// One job at a time, so each trace's spans sit together in the
	// record, oldest job first.
	c := client.New(ts.URL, nil)
	var ids []int
	for _, e := range testEntries() {
		e.ArrivalMinutes = 0
		got, err := c.Submit(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitJob(context.Background(), got[0], time.Millisecond); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got[0])
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatal(err)
	}

	// Every span is still kept: record what each trace emitted.
	emitted := map[int]int{}
	traceOf := map[uint64]int{} // trace ID -> job ID
	for _, id := range ids {
		st, _ := sc.Status(id)
		spans, dropped := o.Trace().TraceSpans(st.TraceID)
		if dropped != 0 {
			t.Fatalf("job %d lost %d spans before any limit", id, dropped)
		}
		emitted[id] = len(spans)
		traceOf[st.TraceID] = id
	}
	// Keep the spans from half way through the middle job's on: the
	// first trace is gone whole, the middle one keeps its newer half and
	// the last is untouched.
	all := o.Trace().Spans()
	oldest, middle, newest := ids[0], ids[1], ids[len(ids)-1]
	var mine []int
	for i, sp := range all {
		if id, ok := traceOf[sp.TraceID]; ok && id == middle {
			mine = append(mine, i)
		}
	}
	o.Trace().SetLimit(len(all) - mine[len(mine)/2])

	_, err = c.JobTrace(context.Background(), oldest)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("job %d: %v, want 410: retention discarded every span of its trace", oldest, err)
	}
	if !strings.Contains(apiErr.Msg, fmt.Sprint(emitted[oldest])) {
		t.Fatalf("the 410 does not say how many spans went: %q (emitted %d)", apiErr.Msg, emitted[oldest])
	}
	for _, id := range []int{middle, newest} {
		tr, err := c.JobTrace(context.Background(), id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		if got, want := tr.SpansDropped, uint64(emitted[id]-tr.Spans); got != want || tr.Spans == 0 {
			t.Fatalf("job %d: spans_dropped %d with %d spans returned, want %d (emitted %d)", id, got, tr.Spans, want, emitted[id])
		}
		if id == middle && tr.SpansDropped == 0 {
			t.Fatalf("job %d: spans_dropped 0 for a trace half outside the retained window", id)
		}
		if id == newest && (tr.SpansDropped != 0 || len(tr.Roots) != 1) {
			t.Fatalf("job %d: spans_dropped %d and %d roots for the newest trace, want 0 and 1", id, tr.SpansDropped, len(tr.Roots))
		}
	}
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpansDropped == 0 || stats.SpansDropped != o.Trace().Dropped() {
		t.Fatalf("/v1/stats spans_dropped %d, tracer dropped %d", stats.SpansDropped, o.Trace().Dropped())
	}
}

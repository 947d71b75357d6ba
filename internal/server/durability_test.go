package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"proteus/internal/jobspec"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/server"
	"proteus/internal/server/client"
	"proteus/internal/wal"
)

// TestSubmitBackpressure fills the admission backlog past MaxQueue and
// checks the refusal contract: 429, a Retry-After hint, and a retrying
// client that backs off and eventually reports the refusal.
func TestSubmitBackpressure(t *testing.T) {
	eng, mkt, brain := testHarness(t, 611)
	o := obs.NewObserver(eng.Now)
	sc, err := sched.New(eng, mkt, testConfig(brain, o))
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler is never driven: submissions pile up as Pending, so
	// the backlog cannot drain and the refusals are deterministic.
	srv, err := server.New(server.Config{Scheduler: sc, Observer: o, MaxQueue: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := client.New(ts.URL, nil)
	ctx := context.Background()
	if _, err := c.Submit(ctx, testEntries()[:2]...); err != nil {
		t.Fatal(err)
	}

	// Raw refusal: status and header.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"hours": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// Typed refusal: APIError with the hint parsed.
	_, err = c.Submit(ctx, jobspec.Entry{Hours: 0.5})
	ae, ok := err.(*client.APIError)
	if !ok || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("Submit error %v, want 429 APIError", err)
	}
	if !ae.Temporary() || ae.RetryAfter <= 0 {
		t.Fatalf("refusal not marked retryable: %+v", ae)
	}

	// Retrying client: the backlog never drains, so every attempt is
	// refused; the policy must observe each backoff and give up.
	var retries atomic.Int32
	rc := c.WithRetry(client.RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		OnRetry:     func(status int, _ time.Duration) { retries.Add(1) },
	})
	if _, err := rc.Submit(ctx, jobspec.Entry{Hours: 0.5}); err == nil {
		t.Fatal("retrying Submit succeeded against a full queue")
	}
	if got := retries.Load(); got != 2 {
		t.Fatalf("%d retries observed, want 2 (3 attempts)", got)
	}
}

// TestClientRetryEventuallySucceeds drives the retry loop against a
// stub that refuses twice (with a Retry-After it must honor) and then
// accepts.
func TestClientRetryEventuallySucceeds(t *testing.T) {
	var calls atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"hold on"}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"accepted":[7]}`))
	}))
	defer stub.Close()

	var waits atomic.Int32
	c := client.New(stub.URL, nil).WithRetry(client.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Jitter:      0.5,
		OnRetry:     func(status int, _ time.Duration) { waits.Add(1) },
	})
	ids, err := c.Submit(context.Background(), jobspec.Entry{Hours: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("accepted %v, want [7]", ids)
	}
	if calls.Load() != 3 || waits.Load() != 2 {
		t.Fatalf("%d calls, %d retries; want 3 and 2", calls.Load(), waits.Load())
	}
}

// walServer serves a fresh, never-driven scheduler that logs to a new
// WAL directory, and returns both.
func walServer(t *testing.T, seed int64, opts wal.Options) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	wlog, err := wal.Create(dir, wal.Meta{Seed: seed}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	return serveOver(t, seed, wlog), dir
}

// serveOver serves a fresh, never-driven scheduler that logs to w.
func serveOver(t *testing.T, seed int64, w wal.Writer) *httptest.Server {
	t.Helper()
	eng, mkt, brain := testHarness(t, seed)
	o := obs.NewObserver(eng.Now)
	cfg := testConfig(brain, o)
	cfg.WAL = w
	sc, err := sched.New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheduler: sc, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestSubmitDurabilityBarrier: once POST /v1/jobs returns 202, the
// submission must be recoverable from the WAL directory — even if the
// process is SIGKILLed before any graceful close. Recovering the live
// directory (no Close) stands in for the crash.
func TestSubmitDurabilityBarrier(t *testing.T) {
	ts, dir := walServer(t, 612, wal.Options{})
	c := client.New(ts.URL, nil)
	ids, err := c.Submit(context.Background(), testEntries()...)
	if err != nil {
		t.Fatal(err)
	}

	replay, err := wal.Recover(dir)
	if err != nil {
		t.Fatalf("recovering the live directory: %v", err)
	}
	if len(replay.Jobs) != len(ids) {
		t.Fatalf("recovered %d submissions, want %d", len(replay.Jobs), len(ids))
	}
	for i, jr := range replay.Jobs {
		if jr.ID != ids[i] {
			t.Fatalf("recovered job %d has ID %d, want %d", i, jr.ID, ids[i])
		}
	}

	// The stats surface reports the log's progress.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL == nil || st.WAL.LastSeq < uint64(len(ids))+1 || st.WAL.Submits != len(ids) {
		t.Fatalf("stats WAL %+v, want last_seq >= %d and %d submits", st.WAL, len(ids)+1, len(ids))
	}
	if st.Recovered || st.CatchingUp {
		t.Fatalf("fresh service claims recovery: %+v", st)
	}
}

// TestStatsReportRecovery: a service built by Recover advertises its
// provenance on /v1/stats.
func TestStatsReportRecovery(t *testing.T) {
	dir := t.TempDir()
	wlog, err := wal.Create(dir, wal.Meta{Seed: 613}, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt, brain := testHarness(t, 613)
	cfg := testConfig(brain, nil)
	cfg.WAL = wlog
	sc, err := sched.New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := jobspec.Jobs(testEntries(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := sc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}

	log2, replay, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	eng2, mkt2, brain2 := testHarness(t, 613)
	rs, err := sched.Recover(eng2, mkt2, testConfig(brain2, nil), replay, log2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Scheduler: rs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st, err := client.New(ts.URL, nil).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Recovered || st.RecoveredJobs != len(jobs) {
		t.Fatalf("stats %+v, want recovered with %d jobs", st, len(jobs))
	}
	if st.Jobs != len(jobs) {
		t.Fatalf("stats report %d jobs, want %d", st.Jobs, len(jobs))
	}
	if st.WAL == nil || st.WAL.LastSeq == 0 {
		t.Fatalf("stats WAL %+v, want the reopened log's counters", st.WAL)
	}
}

// TestOversizeNameNotAcknowledged: a 200 KB name fits the body limit but
// its WAL frame (encoding/json escapes '<' to six bytes) does not fit
// what recovery reads. Such a job must never get a 202 — the name is a
// field error like any other — and the WAL directory must still recover
// afterwards.
func TestOversizeNameNotAcknowledged(t *testing.T) {
	ts, dir := walServer(t, 614, wal.Options{NoSync: true})
	// Posted raw: the typed client would escape the name past the body limit.
	body := `{"hours": 0.5, "name": "` + strings.Repeat("<", 200_000) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply server.ErrorResponse
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest || len(reply.Fields) != 1 || reply.Fields[0].Field != "name" {
		t.Errorf("status %d, reply %+v (err %v), want a 400 with a name field error", resp.StatusCode, reply, err)
	}
	st, err := client.New(ts.URL, nil).Stats(context.Background())
	if err != nil || st.Jobs != 0 || st.WAL.Submits != 0 {
		t.Errorf("the refused job left a trace: %+v (err %v)", st, err)
	}
	if _, err := wal.Recover(dir); err != nil {
		t.Fatalf("the WAL no longer recovers: %v", err)
	}
}

// faultyWAL is a real log whose Append goes wrong once okAppends records
// are in: it returns fail, or, with fail nil, hands the log a copy of
// the record whose job name alone is over the frame bound, so the
// refusal is the log's own.
type faultyWAL struct {
	wal.Writer
	okAppends int
	fail      error
}

func (f *faultyWAL) Append(r wal.Record) (uint64, error) {
	if f.okAppends > 0 {
		f.okAppends--
		return f.Writer.Append(r)
	}
	if f.fail != nil {
		return 0, f.fail
	}
	job := *r.Job
	job.Name = strings.Repeat("n", 2<<20)
	r.Job = &job
	return f.Writer.Append(r)
}

// TestSubmitFailureStatus: which side a refused POST /v1/jobs blames. A
// log that cannot take the record is the server's failure — a 500, the
// class an operator's error-rate alert counts — and never the 400 that
// tells the client its request was malformed; a job the log cannot frame
// and a taken ID are the client's. Every reply lists the prefix accepted
// before the refusal, and the acknowledged jobs are what the directory
// recovers.
func TestSubmitFailureStatus(t *testing.T) {
	seven := 7
	for _, tc := range []struct {
		name      string
		okAppends int // job 7, then the first two of the batch under test
		fail      error
		third     jobspec.Entry
		status    int
	}{
		{"log append fails", 3, errors.New("write wal-00000001.log: no space left on device"), jobspec.Entry{Hours: 0.5}, http.StatusInternalServerError},
		{"frame over the log's bound", 3, nil, jobspec.Entry{Hours: 0.5}, http.StatusBadRequest},
		{"duplicate id", math.MaxInt, nil, jobspec.Entry{ID: &seven, Hours: 0.5}, http.StatusConflict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wlog, err := wal.Create(dir, wal.Meta{Seed: 615}, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer wlog.Close()
			ts := serveOver(t, 615, &faultyWAL{Writer: wlog, okAppends: tc.okAppends, fail: tc.fail})
			if _, err := client.New(ts.URL, nil).Submit(context.Background(), jobspec.Entry{ID: &seven, Hours: 0.5}); err != nil {
				t.Fatal(err)
			}

			body, err := json.Marshal([]jobspec.Entry{{Hours: 0.5}, {Hours: 0.5}, tc.third})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var reply server.SubmitResponse
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("status %d (%s), want %d", resp.StatusCode, reply.Error, tc.status)
			}
			if !reflect.DeepEqual(reply.Accepted, []int{8, 9}) || reply.Error == "" {
				t.Errorf("reply %+v, want the accepted prefix [8 9] and an error", reply)
			}
			if err := wlog.Sync(); err != nil {
				t.Fatal(err)
			}
			replay, err := wal.Recover(dir)
			if err != nil || len(replay.Jobs) != 3 {
				t.Fatalf("recovered %+v (err %v), want jobs 7, 8 and 9", replay, err)
			}
		})
	}
}

// Package server is the HTTP control plane in front of the multi-tenant
// scheduler: it turns the batch simulator into a long-running service.
// Jobs arrive in the shared jobspec JSON shape over POST /v1/jobs
// (single object or array), status is served at GET /v1/jobs and
// GET /v1/jobs/{id}, per-job state transitions and the cluster
// utilization timeline stream over SSE, and GET /v1/stats summarizes the
// queue, footprint, and bill. The handlers mount on the same mux as the
// obs registry's /metrics and pprof endpoints, so one listener carries
// the whole operational surface.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"proteus/internal/jobspec"
	"proteus/internal/obs"
	"proteus/internal/sched"
)

// maxBodyBytes bounds a job submission; a full day of tenants is a few
// KB, so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// Config assembles a Server.
type Config struct {
	// Scheduler is the control plane's backend; required. The caller owns
	// driving it (Scheduler.Serve) — the Server only submits and observes.
	Scheduler *sched.Scheduler
	// Observer supplies the api_* request metrics, the trace tree behind
	// GET /v1/jobs/{id}/trace, and, when Mux is nil, the
	// /metrics + /debug/flight + pprof mux to mount on. Nil disables
	// instrumentation.
	Observer *obs.Observer
	// Mux is the base mux to mount the v1 routes on. Nil uses
	// Observer.Mux() (the /metrics + /debug/flight + pprof mux) or, with
	// no Observer either, a fresh mux.
	Mux *http.ServeMux
	// EventBuffer is the per-SSE-connection event buffer handed to
	// Scheduler.Subscribe; zero picks the subscription default.
	EventBuffer int
	// MaxQueue caps jobs waiting for admission (pending + queued). A
	// submission that would push the backlog past the cap is refused
	// with 429 and a Retry-After hint instead of growing the queue
	// without bound. Zero means unbounded.
	MaxQueue int
}

// Server is the HTTP control plane. It is an http.Handler; wrap it in an
// http.Server to listen.
type Server struct {
	sched    *sched.Scheduler
	o        *obs.Observer
	mux      *http.ServeMux
	hub      *Hub
	evBuf    int
	maxQueue int
	started  time.Time

	// mu serializes ID assignment across concurrent submissions; nextID
	// tracks the high-water mark beyond what the scheduler has seen.
	mu     sync.Mutex
	nextID int
}

// New builds the control plane and mounts its routes.
func New(cfg Config) (*Server, error) {
	if cfg.Scheduler == nil {
		return nil, fmt.Errorf("server: Config.Scheduler is required")
	}
	mux := cfg.Mux
	if mux == nil {
		if cfg.Observer != nil {
			mux = cfg.Observer.Mux()
		} else {
			mux = http.NewServeMux()
		}
	}
	s := &Server{
		sched:    cfg.Scheduler,
		o:        cfg.Observer,
		mux:      mux,
		evBuf:    cfg.EventBuffer,
		maxQueue: cfg.MaxQueue,
		started:  time.Now(),
		nextID:   cfg.Scheduler.NextJobID(),
	}
	// One scheduler subscription feeds every SSE connection through the
	// hub: each event is encoded once and fanned out, instead of each
	// connection paying its own subscription and json.Marshal. The hub
	// holds it only while a connection is attached. The hub buffer is
	// sized up from the per-connection buffer — it absorbs the full event
	// stream, not one viewer's slice of it.
	hubBuf := cfg.EventBuffer
	if hubBuf < hubSubBuffer {
		hubBuf = hubSubBuffer
	}
	var reg *obs.Registry
	if cfg.Observer != nil {
		reg = cfg.Observer.Reg()
	}
	s.hub = NewHub(func() *sched.Subscription { return s.sched.Subscribe(hubBuf) }, reg)
	s.routes()
	return s, nil
}

// hubSubBuffer is the floor for the hub's scheduler subscription: deep
// enough that the encode-and-fan-out pump riding one GC pause does not
// cost the whole service events.
const hubSubBuffer = 4096

// Close detaches the server from the scheduler's event stream and ends
// every open SSE connection. The server stops streaming but keeps
// answering request/response routes; call it on shutdown.
func (s *Server) Close() {
	s.hub.Close()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.handle("POST /v1/jobs", "submit", s.handleSubmit)
	s.handle("GET /v1/jobs", "jobs", s.handleJobs)
	s.handle("GET /v1/jobs/{id}", "job", s.handleJob)
	s.handle("GET /v1/jobs/{id}/trace", "job_trace", s.handleJobTrace)
	s.handle("GET /v1/jobs/{id}/events", "job_events", s.handleJobEvents)
	s.handle("GET /v1/timeline", "timeline", s.handleTimeline)
	s.handle("GET /v1/stats", "stats", s.handleStats)
}

func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.instrument(route, h))
}

func (s *Server) reg() *obs.Registry {
	if s.o == nil {
		return nil
	}
	return s.o.Reg()
}

// statusRecorder captures the response code for request metrics while
// passing Flush through so SSE handlers still stream. Handlers that know
// which trace their request served set exemplar so the latency histogram
// links the observation to that trace.
type statusRecorder struct {
	http.ResponseWriter
	code     int
	exemplar uint64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush implements http.Flusher when the underlying writer does.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the api_* request metrics: a
// route/method/code counter, a wall-clock latency histogram, and an
// in-flight gauge. Latency for SSE routes measures the stream lifetime,
// which is what an operator debugging hung streams wants.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg := s.reg()
		inflight := reg.Gauge("proteus_api_inflight_requests",
			"control-plane requests currently being served")
		inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			elapsed := time.Since(start).Seconds()
			inflight.Add(-1)
			reg.Counter("proteus_api_requests_total",
				"control-plane requests served",
				obs.L("route", route),
				obs.L("method", r.Method),
				obs.L("code", strconv.Itoa(rec.code))).Inc()
			reg.Histogram("proteus_api_request_seconds",
				"control-plane request latency (wall seconds)", nil,
				obs.L("route", route)).ObserveEx(elapsed, rec.exemplar)
		}()
		h(rec, r)
	})
}

// jsonScratch pairs a reusable buffer with an encoder bound to it, so a
// pooled writeJSON call allocates neither. Encoding to the buffer before
// touching the ResponseWriter also means an encode error can still
// produce a clean 500 instead of a half-written body.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(&s.buf)
	s.enc.SetIndent("", "  ")
	return s
}}

func writeJSON(w http.ResponseWriter, code int, v any) {
	js := jsonPool.Get().(*jsonScratch)
	js.buf.Reset()
	if err := js.enc.Encode(v); err != nil {
		jsonPool.Put(js)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(js.buf.Bytes())
	jsonPool.Put(js)
}

func writeError(w http.ResponseWriter, code int, err error) {
	resp := ErrorResponse{Error: err.Error()}
	var verr jobspec.ValidationError
	if errors.As(err, &verr) {
		resp.Fields = verr
	}
	writeJSON(w, code, resp)
}

// retryAfterSeconds is the hint sent with backpressure refusals (429
// queue-full, 503 draining): long enough to let the scheduler drain a
// decision cycle, short enough that a ramp of retrying submitters
// recovers quickly.
const retryAfterSeconds = 1

// refuse writes a backpressure reply: the Retry-After hint plus a
// counter so operators can see refusals per cause on /metrics.
func (s *Server) refuse(w http.ResponseWriter, code int, cause string, accepted []int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	s.reg().Counter("proteus_api_backpressure_total",
		"submissions refused to protect the service",
		obs.L("cause", cause)).Inc()
	writeJSON(w, code, SubmitResponse{Accepted: accepted, Error: err.Error()})
}

// handleSubmit accepts one entry or an array in the jobspec shape.
// Responses: 202 with the accepted IDs — written only after the WAL (if
// any) has made the submissions durable — 400 with field-level errors
// on a bad submission, 409 on a duplicate job ID, 429 when the
// admission backlog is full, 503 while draining, 500 when the WAL cannot
// take the submission. 429 and 503 carry a Retry-After hint.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	entries, err := jobspec.Decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.maxQueue > 0 {
		st := s.sched.Stats()
		if backlog := st.Pending + st.Queued; backlog+len(entries) > s.maxQueue {
			s.refuse(w, http.StatusTooManyRequests, "queue_full", []int{},
				fmt.Errorf("admission backlog full (%d waiting, cap %d)", backlog, s.maxQueue))
			return
		}
	}
	// Serialize ID assignment: concurrent submissions must not hand the
	// same auto-ID to two jobs between scheduler Submit calls. The lock
	// is released before the WAL sync so concurrent submitters keep
	// appending while this batch commits (group commit).
	s.mu.Lock()
	next := s.sched.NextJobID()
	if s.nextID > next {
		next = s.nextID
	}
	jobs, err := jobspec.Jobs(entries, next)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	accepted := make([]int, 0, len(jobs))
	for _, j := range jobs {
		if err := s.sched.Submit(j); err != nil {
			s.mu.Unlock()
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, sched.ErrDraining):
				s.refuse(w, http.StatusServiceUnavailable, "draining", accepted, err)
				return
			case errors.Is(err, sched.ErrDuplicateID):
				code = http.StatusConflict
			case errors.Is(err, sched.ErrWAL):
				// Ours, not the request's: a client must not read a dead
				// disk as its own malformed job.
				code = http.StatusInternalServerError
			}
			writeJSON(w, code, SubmitResponse{Accepted: accepted, Error: err.Error()})
			return
		}
		accepted = append(accepted, j.ID)
		if j.ID >= s.nextID {
			s.nextID = j.ID + 1
		}
	}
	s.mu.Unlock()
	// Durability barrier: the 202 is a promise that a crash right after
	// this response cannot lose the submission. One fsync here covers
	// every record appended so far, so N concurrent submitters share a
	// handful of syncs rather than paying one each.
	if err := s.sched.SyncWAL(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Exemplar the submit latency with the first accepted job's trace, so
	// the histogram's buckets link to concrete causal trees.
	if rec, ok := w.(*statusRecorder); ok && len(accepted) > 0 {
		if st, found := s.sched.Status(accepted[0]); found {
			rec.exemplar = st.TraceID
		}
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{Accepted: accepted})
}

// handleJobTrace returns the job's assembled causal trace tree: every
// retained span of the trace — finished ones plus snapshots of any still
// open — rooted at the job span, with spans_dropped counting the spans
// of this trace that span retention discarded (the tree is whole only
// when it is 0). 404 for unknown jobs, 410 when retention discarded
// every span of the trace, 503 when the server runs without a tracer.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, ok := s.sched.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	tr := s.o.Trace()
	if tr == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("tracing disabled"))
		return
	}
	spans, dropped := tr.TraceSpans(st.TraceID)
	if len(spans) == 0 && dropped > 0 {
		writeError(w, http.StatusGone, fmt.Errorf("job %d's trace is gone: span retention discarded all %d of its spans", id, dropped))
		return
	}
	writeJSON(w, http.StatusOK, traceResponseWire(id, st.TraceID, spans, dropped))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	snap := s.sched.Snapshot()
	out := make([]JobStatus, 0, len(snap))
	for _, st := range snap {
		out = append(out, jobStatusWire(st))
	}
	writeJSON(w, http.StatusOK, out)
}

func jobID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		return 0, fmt.Errorf("job ID must be a non-negative integer, got %q", r.PathValue("id"))
	}
	return id, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st, ok := s.sched.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, jobStatusWire(st))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := statsWire(s.sched.Stats(), time.Since(s.started))
	if ws, ok := s.sched.WALStats(); ok {
		out.WAL = &ws
	}
	writeJSON(w, http.StatusOK, out)
}

// sseWriter frames SSE messages over a flushing response writer. The
// frame buffer and its encoder live for the connection, so a stream
// writes thousands of frames on one allocation of scratch.
type sseWriter struct {
	w   http.ResponseWriter
	f   http.Flusher
	buf bytes.Buffer
	enc *json.Encoder
}

func newSSE(w http.ResponseWriter) (*sseWriter, bool) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, false
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// Flush the header now: a client attaching before anything happens
	// (a job not yet submitted) must learn it is attached without waiting
	// for the first frame or heartbeat.
	f.Flush()
	s := &sseWriter{w: w, f: f}
	s.enc = json.NewEncoder(&s.buf)
	return s, true
}

// event encodes v into a complete SSE frame in the connection's scratch
// buffer and writes it in one call. Hub-driven frames skip this and go
// through writeFrame with bytes encoded once for all connections.
func (s *sseWriter) event(name string, v any) error {
	s.buf.Reset()
	s.buf.WriteString("event: ")
	s.buf.WriteString(name)
	s.buf.WriteString("\ndata: ")
	if err := s.enc.Encode(v); err != nil {
		return err
	}
	// Encode appended the JSON's newline; one more closes the frame.
	s.buf.WriteByte('\n')
	return s.writeFrame(s.buf.Bytes())
}

// writeFrame writes pre-framed SSE bytes and flushes.
func (s *sseWriter) writeFrame(frame []byte) error {
	if _, err := s.w.Write(frame); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

func (s *sseWriter) comment(text string) error {
	s.buf.Reset()
	s.buf.WriteString(": ")
	s.buf.WriteString(text)
	s.buf.WriteString("\n\n")
	return s.writeFrame(s.buf.Bytes())
}

// heartbeatEvery keeps idle SSE connections from being reaped by
// intermediaries; comments are invisible to event consumers.
const heartbeatEvery = 15 * time.Second

// handleJobEvents streams one job's lifecycle over SSE: an initial
// "status" snapshot if the job exists, then live transitions (queued,
// admitted, running, done, expired). The stream ends after a terminal
// event. Subscribing to a job ID that has not been submitted yet is
// allowed — the stream waits, so a client can attach before POSTing and
// never miss a transition.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Attach to the hub before snapshotting so no transition falls in
	// between; frames arrive pre-encoded, filtered to this job.
	conn := s.hub.Job(id, s.evBuf)
	if conn == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("event stream shut down"))
		return
	}
	defer s.hub.Detach(conn)
	// Snapshot before the headers go out: a client that attaches first and
	// submits when they arrive can see its job finish before this handler
	// runs again, and a snapshot taken then would say "done" and end the
	// stream with the whole lifecycle still queued on conn.
	st, exists := s.sched.Status(id)
	sse, ok := newSSE(w)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	if exists {
		if sse.event("status", jobStatusWire(st)) != nil {
			return
		}
		if st.State == sched.Done || st.State == sched.Expired {
			return
		}
	}
	heartbeat := time.NewTicker(heartbeatEvery)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case fr, open := <-conn.C:
			if !open {
				return
			}
			if sse.writeFrame(fr.Data) != nil {
				return
			}
			if fr.Terminal {
				return
			}
		case <-heartbeat.C:
			if sse.comment("ping") != nil {
				return
			}
		}
	}
}

// handleTimeline streams cluster utilization samples over SSE. By
// default the recorded timeline replays first so a late viewer gets
// history; ?replay=0 starts from live only. The scheduler coalesces
// same-instant samples before they reach either path, so the replayed
// history serves the same points, in the same order, that live viewers
// received.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	replay := r.URL.Query().Get("replay") != "0"
	// Attach before replaying so no live sample falls in the gap.
	conn := s.hub.Timeline(s.evBuf)
	if conn == nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("event stream shut down"))
		return
	}
	defer s.hub.Detach(conn)
	sse, ok := newSSE(w)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	// Replayed points and the live frames can overlap: the connection
	// attached first (no gap), so live frames at or before the last
	// replayed sample are duplicates and get skipped. Two samples at the
	// same virtual instant are indistinguishable, so one of an
	// exact-tie pair may be dropped — harmless for a utilization feed.
	var lastReplayed time.Duration = -1
	if replay {
		for _, p := range s.sched.Timeline() {
			if sse.event(sched.EventTimeline, utilWire(p)) != nil {
				return
			}
			lastReplayed = p.At
		}
	}
	heartbeat := time.NewTicker(heartbeatEvery)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case fr, open := <-conn.C:
			if !open {
				return
			}
			if fr.At <= lastReplayed {
				continue
			}
			if sse.writeFrame(fr.Data) != nil {
				return
			}
		case <-heartbeat.C:
			if sse.comment("ping") != nil {
				return
			}
		}
	}
}

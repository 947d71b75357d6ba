// Package client is the typed Go client for the proteus control-plane
// API: job submission in the jobspec shape, status and stats reads, and
// SSE event streams decoded into the server's wire types.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"proteus/internal/jobspec"
	"proteus/internal/server"
)

// RetryPolicy bounds the client's automatic retry of backpressure
// refusals — 429 (queue full) and 503 (draining) replies. Waits grow
// exponentially from BaseDelay, capped at MaxDelay, with a random
// jitter fraction so a fleet of refused submitters does not retry in
// lockstep; a server Retry-After hint raises the wait when it asks for
// more than the backoff would give.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Zero or one disables retry.
	MaxAttempts int
	// BaseDelay is the wait before the first retry; each further retry
	// doubles it. Zero picks 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero picks 2s.
	MaxDelay time.Duration
	// Jitter is the fraction of each wait that is randomized (0..1): a
	// wait d becomes d * (1 - Jitter/2 + Jitter*U[0,1)). Negative or
	// zero means no jitter.
	Jitter float64
	// OnRetry, when set, observes every retry before its wait: the
	// refusal's HTTP status and the chosen delay. Must be safe for
	// concurrent use — one policy may serve many goroutines.
	OnRetry func(status int, wait time.Duration)
}

// delay computes the wait before retry attempt i (1-based).
func (p RetryPolicy) delay(attempt int, hint time.Duration) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << (attempt - 1)
	if d > max || d <= 0 { // <=0: shift overflow
		d = max
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		d = time.Duration(float64(d) * (1 - j/2 + j*rand.Float64()))
	}
	if hint > d {
		d = hint
	}
	return d
}

// Client talks to one control-plane server.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:9090").
// A nil hc uses a fresh http.Client with no timeout — SSE streams are
// long-lived, so callers bound requests with contexts instead. The
// client does not retry; see WithRetry.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// WithRetry returns a copy of the client that retries backpressure
// refusals (429/503) on Submit and the JSON reads under the policy.
// SSE streams never retry — reconnecting silently would replay or lose
// frames, which the caller must decide about.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cc := *c
	cc.retry = p
	return &cc
}

// APIError is a non-2xx reply, carrying the server's message and any
// field-level validation errors.
type APIError struct {
	Status int
	Msg    string
	Fields []jobspec.FieldError
	// RetryAfter is the server's Retry-After hint (zero when absent).
	RetryAfter time.Duration
}

// Temporary reports whether the reply invites a retry: 429 (queue
// full) or 503 (draining/overloaded).
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("api: HTTP %d", e.Status)
	}
	return fmt.Sprintf("api: HTTP %d: %s", e.Status, e.Msg)
}

// IsNotFound reports whether err is an APIError with status 404.
func IsNotFound(err error) bool {
	e, ok := err.(*APIError)
	return ok && e.Status == http.StatusNotFound
}

func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var er server.ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		e.Msg, e.Fields = er.Error, er.Fields
	} else {
		var sr server.SubmitResponse
		if json.Unmarshal(body, &sr) == nil && sr.Error != "" {
			e.Msg, e.Fields = sr.Error, sr.Fields
		} else {
			e.Msg = strings.TrimSpace(string(body))
		}
	}
	return e
}

// do issues the request built by mk, retrying temporary refusals
// (429/503) under the client's policy. mk runs once per attempt —
// request bodies cannot be replayed. The returned response has status
// wantCode; any other reply comes back as an error with the body
// drained and closed.
func (c *Client) do(ctx context.Context, mk func() (*http.Request, error), wantCode int) (*http.Response, error) {
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == wantCode {
			return resp, nil
		}
		err = apiError(resp)
		ae, ok := err.(*APIError)
		if attempt >= attempts || !ok || !ae.Temporary() {
			return nil, err
		}
		wait := c.retry.delay(attempt, ae.RetryAfter)
		if c.retry.OnRetry != nil {
			c.retry.OnRetry(ae.Status, wait)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	}, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts the entries (bulk shape) and returns the accepted job
// IDs, in submission order. With a retry policy, backpressure refusals
// are retried under jittered backoff: a 429 is refused before any entry
// is admitted (so the replay cannot double-submit) and a 503 means the
// service is draining and will keep refusing.
func (c *Client) Submit(ctx context.Context, entries ...jobspec.Entry) ([]int, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("api: no entries to submit")
	}
	body, err := json.Marshal(entries)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sr server.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return sr.Accepted, nil
}

// Jobs lists every submitted job's live status, ordered by ID.
func (c *Client) Jobs(ctx context.Context) ([]server.JobStatus, error) {
	var out []server.JobStatus
	err := c.getJSON(ctx, "/v1/jobs", &out)
	return out, err
}

// Job reads one job's live status. A missing job returns an APIError
// satisfying IsNotFound.
func (c *Client) Job(ctx context.Context, id int) (server.JobStatus, error) {
	var out server.JobStatus
	err := c.getJSON(ctx, fmt.Sprintf("/v1/jobs/%d", id), &out)
	return out, err
}

// JobTrace fetches one job's assembled causal span tree. A missing job
// returns an APIError satisfying IsNotFound; a server without tracing
// returns a 503 APIError.
func (c *Client) JobTrace(ctx context.Context, id int) (server.TraceResponse, error) {
	var out server.TraceResponse
	err := c.getJSON(ctx, fmt.Sprintf("/v1/jobs/%d/trace", id), &out)
	return out, err
}

// Stats reads the scheduler/queue summary.
func (c *Client) Stats(ctx context.Context) (server.Stats, error) {
	var out server.Stats
	err := c.getJSON(ctx, "/v1/stats", &out)
	return out, err
}

// WaitJob polls until the job reaches a terminal state (done or
// expired), the poll interval elapsing between reads. It tolerates the
// job not existing yet — a stream attached before the POST.
func (c *Client) WaitJob(ctx context.Context, id int, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err == nil && (st.State == "done" || st.State == "expired") {
			return st, nil
		}
		if err != nil && !IsNotFound(err) {
			return server.JobStatus{}, err
		}
		select {
		case <-ctx.Done():
			return server.JobStatus{}, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Message is one decoded SSE frame.
type Message struct {
	// Event is the SSE event name (the scheduler event kind, or "status"
	// for the initial job snapshot).
	Event string
	// Data is the raw JSON payload.
	Data []byte
}

// AsEvent decodes the payload as a server.Event (lifecycle and timeline
// frames).
func (m Message) AsEvent() (server.Event, error) {
	var ev server.Event
	err := json.Unmarshal(m.Data, &ev)
	return ev, err
}

// AsUtil decodes the payload as a server.UtilPoint ("timeline" frames).
func (m Message) AsUtil() (server.UtilPoint, error) {
	var p server.UtilPoint
	err := json.Unmarshal(m.Data, &p)
	return p, err
}

// Stream is one live SSE connection. Next blocks for the next frame;
// Close tears the connection down (a blocked Next returns an error once
// the response body closes, so cancel the request context or Close from
// another goroutine to unblock).
type Stream struct {
	resp *http.Response
	br   *bufio.Reader
}

func (c *Client) stream(ctx context.Context, path string) (*Stream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return &Stream{resp: resp, br: bufio.NewReader(resp.Body)}, nil
}

// JobEvents opens the SSE stream of one job's lifecycle. Attaching
// before the job is submitted is supported; the stream waits for it.
func (c *Client) JobEvents(ctx context.Context, id int) (*Stream, error) {
	return c.stream(ctx, fmt.Sprintf("/v1/jobs/%d/events", id))
}

// Timeline opens the SSE stream of cluster utilization samples. With
// replay, recorded history is delivered before live samples.
func (c *Client) Timeline(ctx context.Context, replay bool) (*Stream, error) {
	path := "/v1/timeline"
	if !replay {
		path += "?replay=0"
	}
	return c.stream(ctx, path)
}

// Next reads frames until a complete event arrives, skipping heartbeat
// comments. It returns io.EOF when the server ends the stream.
func (s *Stream) Next() (Message, error) {
	var msg Message
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return Message{}, err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if msg.Event != "" || len(msg.Data) > 0 {
				return msg, nil
			}
			// Blank after a comment: keep reading.
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment.
		case strings.HasPrefix(line, "event:"):
			msg.Event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if len(msg.Data) > 0 {
				msg.Data = append(msg.Data, '\n')
			}
			msg.Data = append(msg.Data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		}
	}
}

// Close tears down the stream.
func (s *Stream) Close() error {
	return s.resp.Body.Close()
}

package server

import (
	"time"

	"proteus/internal/jobspec"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/wal"
)

// Wire types for the v1 control-plane API. Durations cross the wire in
// the units operators think in — minutes of virtual time for offsets,
// hours for deadlines — matching the jobspec submission shape.

// JobStatus is the wire form of one job's live status
// (GET /v1/jobs, GET /v1/jobs/{id}, and the SSE "status" snapshot).
type JobStatus struct {
	ID             int     `json:"id"`
	Name           string  `json:"name"`
	State          string  `json:"state"`
	Priority       int     `json:"priority"`
	ArrivalMinutes float64 `json:"arrival_minutes"`
	DeadlineHours  float64 `json:"deadline_hours,omitempty"`
	// TargetWork and Work are core-hours; Work accrues live.
	Work        float64 `json:"work"`
	TargetWork  float64 `json:"target_work"`
	LeasedCores int     `json:"leased_cores"`
	Evictions   int     `json:"evictions"`
	// Lifecycle timestamps as virtual minutes from scheduler start;
	// present once the job reached the state.
	QueuedAtMinutes   *float64 `json:"queued_at_minutes,omitempty"`
	StartedAtMinutes  *float64 `json:"started_at_minutes,omitempty"`
	FinishedAtMinutes *float64 `json:"finished_at_minutes,omitempty"`
	// TraceID names the job's causal trace (GET /v1/jobs/{id}/trace), as
	// 16 hex digits; empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
}

func minutes(d time.Duration) float64 { return d.Minutes() }

func minutesp(d time.Duration) *float64 {
	m := d.Minutes()
	return &m
}

func jobStatusWire(st sched.JobStatus) JobStatus {
	out := JobStatus{
		ID:             st.Job.ID,
		Name:           st.Job.Name,
		State:          st.State.String(),
		Priority:       st.Job.Priority,
		ArrivalMinutes: minutes(st.Job.Arrival),
		DeadlineHours:  st.Job.Deadline.Hours(),
		Work:           st.Work,
		TargetWork:     st.Job.Spec.TargetWork,
		LeasedCores:    st.LeasedCores,
		Evictions:      st.Evictions,
		TraceID:        obs.IDString(st.TraceID),
	}
	if st.State != sched.Pending {
		out.QueuedAtMinutes = minutesp(st.QueuedAt)
	}
	if st.State == sched.Running || st.State == sched.Done {
		out.StartedAtMinutes = minutesp(st.StartedAt)
	}
	if st.State == sched.Done {
		out.FinishedAtMinutes = minutesp(st.FinishedAt)
	}
	return out
}

// Stats is the wire form of GET /v1/stats.
type Stats struct {
	VirtualMinutes float64 `json:"virtual_minutes"`
	HorizonMinutes float64 `json:"horizon_minutes"`

	Jobs    int `json:"jobs"`
	Pending int `json:"pending"`
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Expired int `json:"expired"`

	LeasedCores int `json:"leased_cores"`
	IdleCores   int `json:"idle_cores"`
	Rebalances  int `json:"rebalances"`

	CostSoFar float64 `json:"cost_so_far"`

	Draining    bool `json:"draining"`
	Subscribers int  `json:"subscribers"`

	// Telemetry loss counters. events_dropped stays zero unless an SSE
	// viewer falls behind; spans_dropped counts spans span retention
	// discarded, which grows steadily under -serve's default
	// -trace-limit (per trace: GET /v1/jobs/{id}/trace).
	EventsDropped int    `json:"events_dropped"`
	SpansDropped  uint64 `json:"spans_dropped"`

	// Recovery provenance: set when the scheduler was rebuilt from a
	// write-ahead log. CatchingUp is true from recovery until the serve
	// loop has fast-forwarded through the recovered history or every
	// job is terminal (submissions are accepted throughout).
	Recovered     bool `json:"recovered,omitempty"`
	RecoveredJobs int  `json:"recovered_jobs,omitempty"`
	CatchingUp    bool `json:"catching_up,omitempty"`

	// WAL reports the attached write-ahead log's counters; absent when
	// the service runs without durability.
	WAL *wal.Stats `json:"wal,omitempty"`

	// Forecast reports the online eviction forecaster's accuracy and
	// proactive-action counters; absent on reactive schedulers.
	Forecast *sched.ForecastStats `json:"forecast,omitempty"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}

func statsWire(st sched.Stats, uptime time.Duration) Stats {
	var fc *sched.ForecastStats
	if st.Forecast.Enabled {
		f := st.Forecast
		fc = &f
	}
	return Stats{
		Forecast:       fc,
		VirtualMinutes: minutes(st.Now),
		HorizonMinutes: minutes(st.Horizon),
		Jobs:           st.Jobs,
		Pending:        st.Pending,
		Queued:         st.Queued,
		Running:        st.Running,
		Done:           st.Done,
		Expired:        st.Expired,
		LeasedCores:    st.LeasedCores,
		IdleCores:      st.IdleCores,
		Rebalances:     st.Rebalances,
		CostSoFar:      st.CostSoFar,
		Draining:       st.Draining,
		Subscribers:    st.Subscribers,
		EventsDropped:  st.EventsDropped,
		SpansDropped:   st.SpansDropped,
		Recovered:      st.Recovered,
		RecoveredJobs:  st.RecoveredJobs,
		CatchingUp:     st.CatchingUp,
		UptimeSeconds:  uptime.Seconds(),
	}
}

// UtilPoint is the wire form of one utilization timeline sample.
type UtilPoint struct {
	AtMinutes   float64 `json:"at_minutes"`
	LeasedCores int     `json:"leased_cores"`
	IdleCores   int     `json:"idle_cores"`
	Running     int     `json:"running"`
	Queued      int     `json:"queued"`
}

func utilWire(p sched.UtilPoint) UtilPoint {
	return UtilPoint{
		AtMinutes:   minutes(p.At),
		LeasedCores: p.LeasedCores,
		IdleCores:   p.IdleCores,
		Running:     p.Running,
		Queued:      p.Queued,
	}
}

// Event is the wire form of one SSE payload on the /v1/jobs/{id}/events
// and /v1/timeline streams. The SSE "event:" field carries Kind as well.
type Event struct {
	Kind      string     `json:"kind"`
	AtMinutes float64    `json:"at_minutes"`
	JobID     *int       `json:"job_id,omitempty"`
	JobName   string     `json:"job_name,omitempty"`
	State     string     `json:"state,omitempty"`
	Detail    string     `json:"detail,omitempty"`
	Util      *UtilPoint `json:"util,omitempty"`
	// TraceID/SpanID (16 hex digits) locate this very transition inside
	// the job's causal tree; absent for timeline events and untraced runs.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// SubmitResponse reports which jobs a POST /v1/jobs accepted. On error
// Accepted lists the prefix admitted before the failure.
type SubmitResponse struct {
	Accepted []int                `json:"accepted"`
	Error    string               `json:"error,omitempty"`
	Fields   []jobspec.FieldError `json:"fields,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON reply.
type ErrorResponse struct {
	Error  string               `json:"error"`
	Fields []jobspec.FieldError `json:"fields,omitempty"`
}

// TraceSpan is one node of a job's causal tree
// (GET /v1/jobs/{id}/trace). IDs are 16 hex digits. Times are virtual
// seconds from simulation start; wall-clock cost is deliberately
// excluded so the same seeded run serializes byte-identically at any
// worker count or pacing.
type TraceSpan struct {
	SpanID       string      `json:"span_id"`
	ParentID     string      `json:"parent_id,omitempty"`
	Component    string      `json:"component"`
	Name         string      `json:"name"`
	Detail       string      `json:"detail,omitempty"`
	StartSeconds float64     `json:"start_seconds"`
	EndSeconds   float64     `json:"end_seconds"`
	Open         bool        `json:"open,omitempty"`
	Attrs        any         `json:"attrs,omitempty"`
	Children     []TraceSpan `json:"children,omitempty"`
}

// TraceResponse is the body of GET /v1/jobs/{id}/trace. Spans counts
// the spans in Roots; SpansDropped counts the trace's spans that tracer
// retention (-trace-limit) discarded, so the tree is whole only when it
// is 0. Roots normally holds exactly the job's root span; orphaned
// subtrees (parents lost to retention) surface as extra roots rather
// than disappearing.
type TraceResponse struct {
	JobID        int         `json:"job_id"`
	TraceID      string      `json:"trace_id"`
	Spans        int         `json:"spans"`
	SpansDropped uint64      `json:"spans_dropped"`
	Roots        []TraceSpan `json:"roots"`
}

func traceSpanWire(n *obs.TraceNode) TraceSpan {
	out := TraceSpan{
		SpanID:       obs.IDString(n.SpanID),
		ParentID:     obs.IDString(n.ParentID),
		Component:    n.Component,
		Name:         n.Name,
		Detail:       n.Detail,
		StartSeconds: n.Start.Seconds(),
		EndSeconds:   n.End.Seconds(),
		Open:         n.Open,
		Attrs:        n.Attrs,
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, traceSpanWire(c))
	}
	return out
}

func traceResponseWire(jobID int, traceID uint64, spans []obs.SpanData, dropped uint64) TraceResponse {
	resp := TraceResponse{
		JobID:        jobID,
		TraceID:      obs.IDString(traceID),
		Spans:        len(spans),
		SpansDropped: dropped,
		Roots:        []TraceSpan{},
	}
	for _, root := range obs.BuildTree(spans) {
		resp.Roots = append(resp.Roots, traceSpanWire(root))
	}
	return resp
}

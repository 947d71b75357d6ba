// Package jobspec is the one definition of the tenant-job JSON shape
// shared by the CLI (-jobs-file) and the HTTP control plane
// (POST /v1/jobs). Both consume the same entries, validated with
// field-level messages — a submitter is told which job and which field
// is wrong (bad priority, zero work, duplicate IDs), not handed a
// single opaque decode error.
package jobspec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/core"
	"proteus/internal/sched"
)

// BaseCores is the transient-core scale the "hours" field refers to:
// one hour of work is one hour on BaseCores transient cores.
const BaseCores = 256

// MaxPriority bounds the priority field; placement weight grows with
// priority, so an unbounded value would let one tenant starve the pool.
const MaxPriority = 100

// MaxNameBytes bounds the name field: a name is copied into every
// status reply, span and WAL submit record, so it is a label, not a
// payload.
const MaxNameBytes = 256

// Entry is one job in the shared JSON shape. A -jobs-file is a JSON
// array of entries; POST /v1/jobs accepts a single entry or an array.
type Entry struct {
	// ID, when set, names the job; it must be unique. Absent IDs are
	// assigned by the consumer (file order for the CLI, next free ID for
	// the API).
	ID *int `json:"id,omitempty"`
	// Name defaults to "job-<id>"; at most MaxNameBytes bytes.
	Name string `json:"name,omitempty"`
	// Hours sizes the job: hours of work for BaseCores transient cores.
	Hours float64 `json:"hours"`
	// ArrivalMinutes is when the job enters the queue, as minutes from
	// scheduler start. The API clamps past offsets forward to "now".
	ArrivalMinutes float64 `json:"arrival_minutes,omitempty"`
	// Priority weights placement; higher is more important (0..MaxPriority).
	Priority int `json:"priority,omitempty"`
	// DeadlineHours is the completion target as hours from scheduler
	// start; zero means no deadline.
	DeadlineHours float64 `json:"deadline_hours,omitempty"`
	// Proactive opts the job into forecast-driven handling: on a
	// scheduler running with a forecaster, its state is pre-drained off
	// machines whose predicted eviction probability crosses the drain
	// threshold. Ignored (harmless) on reactive schedulers.
	Proactive bool `json:"proactive,omitempty"`
}

// FieldError pins one validation failure to a job index and JSON field.
type FieldError struct {
	Index int    `json:"index"`
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

// Error implements error.
func (e FieldError) Error() string {
	return fmt.Sprintf("job %d: %s: %s", e.Index, e.Field, e.Msg)
}

// ValidationError collects every field failure in a submission, so one
// round trip reports all problems.
type ValidationError []FieldError

// Error implements error.
func (v ValidationError) Error() string {
	msgs := make([]string, len(v))
	for i, e := range v {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "; ")
}

// Decode reads either a JSON array of entries or a single entry object.
// An empty submission is an error: every consumer needs at least one
// job.
func Decode(r io.Reader) ([]Entry, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimLeftFunc(string(raw), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	var entries []Entry
	if strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(raw, &entries); err != nil {
			return nil, fmt.Errorf("jobspec: %w", err)
		}
	} else {
		var one Entry
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, fmt.Errorf("jobspec: %w", err)
		}
		entries = []Entry{one}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("jobspec: no jobs")
	}
	return entries, nil
}

// Validate checks every entry and reports all field-level failures at
// once, or nil when the submission is clean.
func Validate(entries []Entry) error {
	var errs ValidationError
	add := func(i int, field, format string, args ...any) {
		errs = append(errs, FieldError{Index: i, Field: field, Msg: fmt.Sprintf(format, args...)})
	}
	explicit := make(map[int]int)
	for i, e := range entries {
		if len(e.Name) > MaxNameBytes {
			add(i, "name", "must be at most %d bytes, got %d", MaxNameBytes, len(e.Name))
		}
		switch {
		case math.IsNaN(e.Hours) || math.IsInf(e.Hours, 0):
			add(i, "hours", "must be finite")
		case e.Hours <= 0:
			add(i, "hours", "must be positive (a job needs nonzero work), got %v", e.Hours)
		}
		if e.Priority < 0 || e.Priority > MaxPriority {
			add(i, "priority", "must be between 0 and %d, got %d", MaxPriority, e.Priority)
		}
		if math.IsNaN(e.ArrivalMinutes) || math.IsInf(e.ArrivalMinutes, 0) || e.ArrivalMinutes < 0 {
			add(i, "arrival_minutes", "must be non-negative and finite, got %v", e.ArrivalMinutes)
		}
		switch {
		case math.IsNaN(e.DeadlineHours) || math.IsInf(e.DeadlineHours, 0) || e.DeadlineHours < 0:
			add(i, "deadline_hours", "must be non-negative and finite, got %v", e.DeadlineHours)
		case e.DeadlineHours > 0 && e.DeadlineHours*60 <= e.ArrivalMinutes:
			add(i, "deadline_hours", "deadline %vh is at or before arrival minute %v; the job would expire on arrival",
				e.DeadlineHours, e.ArrivalMinutes)
		}
		if e.ID != nil {
			if *e.ID < 0 {
				add(i, "id", "must be non-negative, got %d", *e.ID)
			} else if prev, dup := explicit[*e.ID]; dup {
				add(i, "id", "duplicate of job %d (IDs must be unique)", prev)
			} else {
				explicit[*e.ID] = i
			}
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return errs
}

// spec sizes the scheduler job for one entry: the standard tenant shape
// (hours of work at BaseCores scale over the shared anchor).
func (e Entry) spec() core.JobSpec {
	params := bidbrain.DefaultParams()
	return core.JobSpec{
		TargetWork:    params.Phi * BaseCores * e.Hours,
		Params:        params,
		ReliableType:  "c4.xlarge",
		ReliableCount: 3,
		MaxSpotCores:  BaseCores,
		ChunkCores:    128,
	}
}

// Job converts one validated entry into a scheduler job under the given
// ID.
func (e Entry) Job(id int) sched.Job {
	name := e.Name
	if name == "" {
		name = fmt.Sprintf("job-%d", id)
	}
	return sched.Job{
		ID:        id,
		Name:      name,
		Arrival:   time.Duration(e.ArrivalMinutes * float64(time.Minute)),
		Priority:  e.Priority,
		Deadline:  time.Duration(e.DeadlineHours * float64(time.Hour)),
		Proactive: e.Proactive,
		Spec:      e.spec(),
	}
}

// Jobs validates the entries and converts them to scheduler jobs.
// Entries with an explicit ID keep it; the rest receive sequential IDs
// starting at nextID, skipping any explicitly taken (the CLI passes 0,
// the API passes its registry's next free ID).
func Jobs(entries []Entry, nextID int) ([]sched.Job, error) {
	if err := Validate(entries); err != nil {
		return nil, err
	}
	taken := make(map[int]bool, len(entries))
	for _, e := range entries {
		if e.ID != nil {
			taken[*e.ID] = true
		}
	}
	jobs := make([]sched.Job, 0, len(entries))
	for _, e := range entries {
		id := nextID
		if e.ID != nil {
			id = *e.ID
		} else {
			for taken[id] {
				id++
			}
			taken[id] = true
			nextID = id + 1
		}
		jobs = append(jobs, e.Job(id))
	}
	return jobs, nil
}

// Load reads, decodes, validates, and converts a -jobs-file.
func Load(path string) ([]sched.Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	jobs, err := Jobs(entries, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return jobs, nil
}

package jobspec

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func intp(v int) *int { return &v }

func TestDecodeSingleAndBulk(t *testing.T) {
	one, err := Decode(strings.NewReader(`{"name":"solo","hours":1.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Name != "solo" || one[0].Hours != 1.5 {
		t.Fatalf("single decode: %+v", one)
	}
	many, err := Decode(strings.NewReader(` [{"hours":1},{"hours":2,"priority":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 2 || many[1].Priority != 2 {
		t.Fatalf("bulk decode: %+v", many)
	}
	if _, err := Decode(strings.NewReader(`[]`)); err == nil {
		t.Fatal("empty array accepted")
	}
	if _, err := Decode(strings.NewReader(`{"hours": "two"}`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestValidateFieldErrors: every bad field is reported with its index
// and JSON name, and all failures surface in one pass.
func TestValidateFieldErrors(t *testing.T) {
	entries := []Entry{
		{Hours: 0},                                       // zero work
		{Hours: 1, Priority: -1},                         // bad priority
		{Hours: 1, Priority: MaxPriority + 1},            // bad priority, high side
		{Hours: 1, ID: intp(7)},                          // ok
		{Hours: 1, ID: intp(7)},                          // duplicate ID
		{Hours: 1, ArrivalMinutes: -5},                   // negative arrival
		{Hours: 1, DeadlineHours: 1, ArrivalMinutes: 90}, // deadline before arrival
		{Hours: 1, ID: intp(-3)},                         // negative ID
		{Hours: 1, Name: strings.Repeat("n", MaxNameBytes)},
		{Hours: 0, Name: strings.Repeat("n", MaxNameBytes+1)}, // long name, reported before hours
	}
	err := Validate(entries)
	if err == nil {
		t.Fatal("invalid entries accepted")
	}
	var verr ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("error type %T, want ValidationError", err)
	}
	want := []struct {
		index int
		field string
	}{
		{0, "hours"},
		{1, "priority"},
		{2, "priority"},
		{4, "id"},
		{5, "arrival_minutes"},
		{6, "deadline_hours"},
		{7, "id"},
		{9, "name"},
		{9, "hours"},
	}
	if len(verr) != len(want) {
		t.Fatalf("got %d field errors, want %d: %v", len(verr), len(want), verr)
	}
	for i, w := range want {
		if verr[i].Index != w.index || verr[i].Field != w.field {
			t.Fatalf("error %d = {%d %s}, want {%d %s} (%s)",
				i, verr[i].Index, verr[i].Field, w.index, w.field, verr[i].Msg)
		}
	}
	if !strings.Contains(err.Error(), "job 0: hours") {
		t.Fatalf("message lacks job/field pin: %q", err.Error())
	}
}

func TestJobsAssignsIDsAroundExplicit(t *testing.T) {
	entries := []Entry{
		{Hours: 1},              // auto → 0
		{Hours: 1, ID: intp(1)}, // explicit 1
		{Hours: 1},              // auto skips 1 → 2
		{Hours: 1, ID: intp(5)}, // explicit 5
		{Hours: 1},              // auto → 3
	}
	jobs, err := Jobs(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := []int{}
	for _, j := range jobs {
		got = append(got, j.ID)
	}
	want := []int{0, 1, 2, 5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestJobsConversion(t *testing.T) {
	entries := []Entry{{
		Name:           "tenant-a",
		Hours:          2,
		ArrivalMinutes: 30,
		Priority:       2,
		DeadlineHours:  48,
	}}
	jobs, err := Jobs(entries, 10)
	if err != nil {
		t.Fatal(err)
	}
	j := jobs[0]
	if j.ID != 10 || j.Name != "tenant-a" || j.Priority != 2 {
		t.Fatalf("job %+v", j)
	}
	if j.Arrival != 30*time.Minute || j.Deadline != 48*time.Hour {
		t.Fatalf("times %v / %v", j.Arrival, j.Deadline)
	}
	if err := j.Spec.Validate(); err != nil {
		t.Fatalf("converted spec invalid: %v", err)
	}
	if j.Spec.MaxSpotCores != BaseCores {
		t.Fatalf("spot cores %d, want %d", j.Spec.MaxSpotCores, BaseCores)
	}
	// Default name follows the assigned ID.
	jobs, err = Jobs([]Entry{{Hours: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Name != "job-4" {
		t.Fatalf("default name %q", jobs[0].Name)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/jobs.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

package obs

import (
	"testing"
	"time"
)

func TestBuildTreeAssemblesAndOrders(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })
	root := tr.StartTrace(NewTraceID(7, 1), "sched", "job")
	root.Eventf("sched", "submit", "in")
	now = time.Second
	lease := root.Child("sched", "lease")
	lease.Eventf("ps", "install", "p0")
	now = 2 * time.Second
	lease.End()
	root.Eventf("sched", "done", "out")
	now = 3 * time.Second
	root.End()

	spans := tr.Spans()
	roots := BuildTree(spans)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	r := roots[0]
	if r.Component != "sched" || r.Name != "job" || r.ParentID != 0 {
		t.Fatalf("root = %+v", r.SpanData)
	}
	if len(r.Children) != 3 {
		t.Fatalf("root children = %d, want 3 (submit, lease, done)", len(r.Children))
	}
	// Children sort by Start first: submit (t=0), lease (t=1), done (t=2).
	if r.Children[0].Name != "submit" || r.Children[1].Name != "lease" || r.Children[2].Name != "done" {
		t.Fatalf("child order = %s, %s, %s", r.Children[0].Name, r.Children[1].Name, r.Children[2].Name)
	}
	if len(r.Children[1].Children) != 1 || r.Children[1].Children[0].Name != "install" {
		t.Fatalf("lease subtree = %+v", r.Children[1].Children)
	}

	total, maxDepth := 0, 0
	WalkTree(roots, func(n *TraceNode, depth int) {
		total++
		if depth > maxDepth {
			maxDepth = depth
		}
	})
	if total != len(spans) {
		t.Fatalf("walk visited %d nodes, tree built from %d spans", total, len(spans))
	}
	if maxDepth != 2 {
		t.Fatalf("max depth = %d, want 2", maxDepth)
	}
}

func TestBuildTreeSurfacesOrphans(t *testing.T) {
	spans := []SpanData{
		{TraceID: 1, SpanID: 10, Component: "a", Name: "root"},
		{TraceID: 1, SpanID: 11, ParentID: 10, Component: "a", Name: "kid"},
		// Parent 99 was lost to retention: the subtree must surface as a
		// root, not vanish.
		{TraceID: 1, SpanID: 12, ParentID: 99, Component: "a", Name: "orphan"},
	}
	roots := BuildTree(spans)
	if len(roots) != 2 {
		t.Fatalf("roots = %d, want 2 (true root + orphan)", len(roots))
	}
	names := map[string]bool{}
	for _, r := range roots {
		names[r.Name] = true
	}
	if !names["root"] || !names["orphan"] {
		t.Fatalf("root names = %v", names)
	}
}

// Span IDs must be a function of (trace, path) only — never of what
// other traces do around them — and must not collide across the
// related trace IDs a seeded run produces.
func TestSpanIDsDeterministicAndCollisionFree(t *testing.T) {
	build := func(interleave bool) map[string]uint64 {
		tr := NewTracer(nil)
		root := tr.StartTrace(NewTraceID(0, 0), "sched", "job")
		var other *Span
		if interleave {
			other = tr.StartTrace(NewTraceID(0, 1), "sched", "job")
			other.Eventf("sched", "noise", "x")
		}
		ids := map[string]uint64{"root": root.Ref().SpanID}
		ids["submit"] = root.Eventf("sched", "submit", "a").SpanID
		lease := root.Child("sched", "lease")
		ids["lease"] = lease.Ref().SpanID
		if interleave {
			other.Eventf("sched", "noise", "y")
		}
		ids["done"] = root.Eventf("sched", "done", "b").SpanID
		return ids
	}
	clean, noisy := build(false), build(true)
	for name, id := range clean {
		if noisy[name] != id {
			t.Fatalf("span %q: id %x alone but %x with another trace interleaved", name, id, noisy[name])
		}
	}

	// Regression: trace IDs are splitmix outputs over multiples of the
	// golden constant, so a symmetric traceID⊕parent mix made job k's
	// first event collide with job k+1's root. Chained derivation must
	// keep IDs unique across many sibling traces.
	seen := map[uint64]string{}
	tr := NewTracer(nil)
	for job := uint64(0); job < 200; job++ {
		root := tr.StartTrace(NewTraceID(0, job), "sched", "job")
		for name, id := range map[string]uint64{
			"root":   root.Ref().SpanID,
			"submit": root.Eventf("sched", "submit", "x").SpanID,
			"lease":  root.Child("sched", "lease").Ref().SpanID,
		} {
			if prev, dup := seen[id]; dup {
				t.Fatalf("job %d span %q collides with %s (id %x)", job, name, prev, id)
			}
			seen[id] = name
		}
	}
}

func TestStartSpanHelper(t *testing.T) {
	tr := NewTracer(nil)
	flat := StartSpan(tr, nil, "c", "flat")
	if flat.Ref().TraceID != 0 {
		t.Fatalf("flat span got trace %x", flat.Ref().TraceID)
	}
	parent := tr.StartTrace(NewTraceID(3, 3), "c", "job")
	child := StartSpan(tr, parent, "c", "kid")
	if child.Ref().TraceID != parent.Ref().TraceID {
		t.Fatalf("child trace %x != parent trace %x", child.Ref().TraceID, parent.Ref().TraceID)
	}
	child.End()
	parent.End()
	flat.End()
	if nilSpan := StartSpan(nil, nil, "c", "x"); nilSpan != nil {
		t.Fatal("StartSpan(nil, nil) must return a nil (no-op) span")
	}
}

func TestTraceSpansIncludesOpenSnapshots(t *testing.T) {
	var now time.Duration
	tr := NewTracer(func() time.Duration { return now })
	id := NewTraceID(1, 1)
	root := tr.StartTrace(id, "sched", "job")
	root.Eventf("sched", "submit", "x")
	now = 5 * time.Second

	spans, _ := tr.TraceSpans(id)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want finished event + open root", len(spans))
	}
	var openSeen bool
	for _, sp := range spans {
		if sp.SpanID != root.Ref().SpanID {
			continue
		}
		openSeen = true
		if !sp.Open {
			t.Fatal("in-flight root not marked Open")
		}
		if sp.End != sp.Start || sp.Wall != 0 {
			t.Fatalf("open snapshot must not read clocks: %+v", sp)
		}
	}
	if !openSeen {
		t.Fatal("open root missing from TraceSpans")
	}
	root.End()
	spans, _ = tr.TraceSpans(id)
	for _, sp := range spans {
		if sp.Open {
			t.Fatalf("span still Open after End: %+v", sp)
		}
	}
}

// TestSpanTreeAllocs holds the tracing every scheduled job pays, read
// or not, to 468 allocations: emit one job-shaped trace (lifecycle
// events, eight lease subtrees of 20 events each) and assemble the
// rooted tree GET /v1/jobs/{id}/trace serves. Under the race detector
// the count moves (sync.Pool), so the budget runs without it only.
func TestSpanTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("span rendering's allocation count moves under the race detector")
	}
	const budget = 468
	job := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		tr := NewTracer(nil)
		traceID := NewTraceID(1, job)
		job++
		root := tr.StartTrace(traceID, "sched", "job")
		root.Eventf("server", "submit", "accepted")
		root.Eventf("sched", "queued", "position 0")
		root.Eventf("sched", "admitted", "admitted")
		root.Eventf("sched", "running", "running")
		for l := 0; l < 8; l++ {
			lease := root.Child("sched", "lease")
			lease.Eventf("bidbrain", "bid", "decision: acquire")
			lease.Eventf("core", "acquire", "alloc %d", l)
			for e := 0; e < 16; e++ {
				lease.Eventf("agileml", "incorporate", "event %d", e)
			}
			lease.Eventf("core", "eviction-warning", "draining")
			lease.Eventf("core", "refund", "refunded")
			lease.End()
		}
		root.Eventf("sched", "done", "complete")
		root.End()
		spans, _ := tr.TraceSpans(traceID)
		if roots := BuildTree(spans); len(roots) != 1 || len(roots[0].Children) == 0 {
			t.Fatal("the trace did not assemble into one rooted tree")
		}
	})
	t.Logf("%v allocs per traced job", allocs)
	if allocs > budget {
		t.Fatalf("tracing one job and building its tree allocates %v times, over the budget of %d", allocs, budget)
	}
}

package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"proteus/internal/sched"
	"proteus/internal/wal"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers (nothing inside the program is instrumented).
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int32         // index of the enclosing span, -1 for a root
	req        int32         // request the span belongs to
}

// tracer keeps spans in memory until the pass is over. The traced pass
// drives one operation at a time, so "the enclosing span" is simply the
// top of one stack; the mutex only makes stray concurrent use safe.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int32
	req   int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<20)} }

// request starts a new request: root spans opened from now on carry a
// fresh identifier, and their children inherit it.
func (t *tracer) request() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// begin opens a span under the innermost open one. A nil tracer (the
// untraced pass) records nothing.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent, req := int32(-1), t.req
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		req = t.spans[parent].req
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, req: req})
	t.stack = append(t.stack, id)
	t.spans[id].start = time.Since(t.t0)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// tracedWAL times the scheduler's calls into the log.
type tracedWAL struct {
	wal.Writer
	t *tracer
}

func (w tracedWAL) Append(r wal.Record) (uint64, error) {
	id := w.t.begin("wal.append")
	seq, err := w.Writer.Append(r)
	w.t.end(id)
	return seq, err
}

func (w tracedWAL) Sync() error {
	id := w.t.begin("wal.sync")
	err := w.Writer.Sync()
	w.t.end(id)
	return err
}

// tracedPolicy times the scheduler's calls into the placement policy.
type tracedPolicy struct {
	sched.Policy
	t *tracer
}

func (p tracedPolicy) Shares(now time.Duration, reqs []sched.ShareRequest, total int) []int {
	id := p.t.begin("sched.policy_shares")
	out := p.Policy.Shares(now, reqs, total)
	p.t.end(id)
	return out
}

// tracedHandler times whole requests into the control plane; each is
// its own request identifier.
type tracedHandler struct {
	http.Handler
	t *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.t.request()
	id := h.t.begin("server.handler")
	h.Handler.ServeHTTP(w, r)
	h.t.end(id)
}

// selfTime is one layer's share of a group of requests.
type selfTime struct {
	name  string
	count int
	self  time.Duration // span time not covered by child spans
	total time.Duration
}

// selfTimes groups the spans of every request whose root span is named
// root, and returns per span name the time spent in that layer itself:
// a span's duration minus the part its children cover.
func (t *tracer) selfTimes(root string) (layers []selfTime, requests int) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	inGroup := map[int32]bool{}
	for _, s := range t.spans {
		if s.parent < 0 && s.name == root {
			inGroup[s.req] = true
			requests++
		}
	}
	byName := map[string]*selfTime{}
	for i, s := range t.spans {
		if !inGroup[s.req] {
			continue
		}
		st := byName[s.name]
		if st == nil {
			st = &selfTime{name: s.name}
			byName[s.name] = st
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
	}
	for _, st := range byName {
		layers = append(layers, *st)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i].self > layers[j].self })
	return layers, requests
}

// printSelfTimes prints one group's table. perRequest divides by the
// number of requests (a submit); otherwise totals are shown (the drain).
func (t *tracer) printSelfTimes(title, root string, perRequest bool) {
	layers, n := t.selfTimes(root)
	if n == 0 {
		return
	}
	var sum time.Duration
	for _, l := range layers {
		sum += l.self
	}
	if perRequest {
		fmt.Printf("self time, %s (mean of %d requests)\n", title, n)
	} else {
		fmt.Printf("self time, %s\n", title)
	}
	fmt.Printf("  %-22s %10s %12s %7s\n", "layer", "calls", "self", "share")
	for _, l := range layers {
		self, calls := l.self, float64(l.count)
		if perRequest {
			self /= time.Duration(n)
			calls /= float64(n)
		}
		fmt.Printf("  %-22s %10.6g %12s %6.1f%%\n", l.name, calls, self.Round(10*time.Nanosecond),
			100*float64(l.self)/float64(sum))
	}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 160)
	for i, s := range t.spans {
		buf = append(buf[:0], `{"id":`...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"req":`...)
		buf = strconv.AppendInt(buf, int64(s.req), 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, s.name...)
		buf = append(buf, `","start_ns":`...)
		buf = strconv.AppendInt(buf, int64(s.start), 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, int64(s.end), 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

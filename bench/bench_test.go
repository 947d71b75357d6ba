package main

import (
	"bytes"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	cases := []struct {
		vals []float64
		q    float64
		want float64
	}{
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.95, 4.8}, // pos 3.8: 4 + 0.8·(5-4)
		{[]float64{10, 20}, 0.25, 12.5},
		{[]float64{5, 1, 9}, 0, 1},
		{[]float64{5, 1, 9}, 1, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 9.91},
	}
	for _, c := range cases {
		if got := quantile(c.vals, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.vals, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("quantile reordered its input: %v", in)
	}
}

// Expected values are what Python prints for
// statistics.quantiles(vals, n=4) — the rule the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vals   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates, as Python does
		{[]float64{2.29, 2.53, 2.31, 2.40, 2.35, 2.33, 2.60, 2.30, 2.41, 2.38}, 2.3075, 2.44},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.vals)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vals, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1.0) {
		t.Errorf("spread = %v, want 1 (5.5 / 5.5)", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, err := postBodies(w.generate(7))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := postBodies(w.generate(7))
		c, _ := postBodies(w.generate(8))
		if len(a) != (w.jobs+postBatch-1)/postBatch {
			t.Errorf("%s: %d bodies for %d jobs", w.name, len(a), w.jobs)
		}
		same, differ := true, false
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
			differ = differ || !bytes.Equal(a[i], c[i])
		}
		if !same {
			t.Errorf("%s: one seed gave two different job sets", w.name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave the same job set", w.name)
		}
	}
}

// Every seed must ask for the same amount of work, priority mix and
// deadline count, or run-to-run spread would measure the seed.
func TestGeneratorInvariants(t *testing.T) {
	for _, w := range workloads {
		type shape struct {
			prio      [3]int
			deadlines int
			proactive int
		}
		var ref shape
		var refHours float64
		for seed := int64(1); seed <= 3; seed++ {
			var s shape
			entries := w.generate(seed)
			if len(entries) != w.jobs {
				t.Fatalf("%s: %d entries, want %d", w.name, len(entries), w.jobs)
			}
			for i, e := range entries {
				if e.ID == nil || *e.ID != i {
					t.Fatalf("%s seed %d: entry %d has ID %v", w.name, seed, i, e.ID)
				}
				if e.ArrivalMinutes < firstArrivalMin {
					t.Fatalf("%s: entry %d arrives at minute %v, before the lead", w.name, i, e.ArrivalMinutes)
				}
				if e.DeadlineHours > 0 {
					s.deadlines++
					if e.DeadlineHours*60 <= e.ArrivalMinutes {
						t.Fatalf("%s: entry %d is due before it arrives", w.name, i)
					}
				}
				if e.Proactive {
					s.proactive++
				}
				s.prio[e.Priority]++
			}
			h := coreHours(entries)
			if seed == 1 {
				ref, refHours = s, h
				continue
			}
			if s != ref {
				t.Errorf("%s: seed %d shape %+v, seed 1 shape %+v", w.name, seed, s, ref)
			}
			if math.Abs(h-refHours) > 1e-6*refHours {
				t.Errorf("%s: seed %d asks for %v core-hours, seed 1 for %v", w.name, seed, h, refHours)
			}
		}
		if w.name == "proactive-deadline" && (ref.deadlines != w.jobs/2 || ref.proactive != w.jobs) {
			t.Errorf("proactive-deadline: %d deadlines, %d proactive of %d", ref.deadlines, ref.proactive, w.jobs)
		}
	}
}

func TestRepeatMix(t *testing.T) {
	w := workloads[2]
	base := w.generate(1)
	twice := repeatMix(base, 2)
	if len(twice) != 2*len(base) {
		t.Fatalf("%d entries, want %d", len(twice), 2*len(base))
	}
	seen := map[int]bool{}
	for _, e := range twice {
		if seen[*e.ID] {
			t.Fatalf("duplicate ID %d", *e.ID)
		}
		seen[*e.ID] = true
	}
	n := len(base)
	if *base[0].ID != 0 || *twice[n].ID != n {
		t.Errorf("copy 1 starts at ID %d, want %d (and the input must keep its IDs)", *twice[n].ID, n)
	}
	if twice[n].ArrivalMinutes <= twice[n-1].ArrivalMinutes {
		t.Errorf("copy 1 arrives at %v, not after copy 0's last arrival %v", twice[n].ArrivalMinutes, twice[n-1].ArrivalMinutes)
	}
	for i := 0; i < n; i++ {
		a, b := twice[i], twice[n+i]
		if (a.DeadlineHours > 0) != (b.DeadlineHours > 0) {
			t.Fatalf("entry %d: deadline presence differs between copies", i)
		}
		if a.DeadlineHours > 0 && !near(b.DeadlineHours-b.ArrivalMinutes/60, a.DeadlineHours-a.ArrivalMinutes/60) {
			t.Fatalf("entry %d: slack differs between copies", i)
		}
	}
}

const sampleOutput = `some earlier line

Final accounting: 3 jobs, policy fair

id   name         state       wait(m)     run(h)    cost($)   work(ch)  deadline
0    job-0        done            0.0       1.25       3.10      320.0         -
1    job-1        done           12.5       0.75       1.05      192.0       met
2    job-2        expired         0.0       0.00       0.00        0.0    MISSED

total: $4.15 net (makespan 2.0h, 17 rebalances, 0.5 free hrs)
`

func TestParseAccounting(t *testing.T) {
	acc, err := parseAccounting([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.rows) != 3 || acc.rows[1].id != 1 || acc.rows[2].state != "expired" {
		t.Errorf("rows = %+v", acc.rows)
	}
	if acc.totalUSD != 4.15 || acc.makespanH != 2.0 || acc.rebalances != 17 || acc.policy != "fair" {
		t.Errorf("total %v makespan %v rebalances %v policy %q", acc.totalUSD, acc.makespanH, acc.rebalances, acc.policy)
	}
	if acc.nonTerminal() != 0 {
		t.Errorf("nonTerminal = %d, want 0", acc.nonTerminal())
	}
	if !bytes.HasPrefix(acc.raw, []byte("Final accounting: 3 jobs")) || !bytes.HasSuffix(acc.raw, []byte("free hrs)\n")) {
		t.Errorf("raw block is %q", acc.raw)
	}

	running := strings.Replace(sampleOutput, "1    job-1        done   ", "1    job-1        running", 1)
	acc2, err := parseAccounting([]byte(running))
	if err != nil {
		t.Fatal(err)
	}
	if acc2.nonTerminal() != 1 {
		t.Errorf("nonTerminal = %d, want 1", acc2.nonTerminal())
	}
	if d := diffAccounting(acc, acc); d != "" {
		t.Errorf("a bill differs from itself: %s", d)
	}
	d := diffAccounting(acc, acc2)
	if !strings.Contains(d, "job-1") || !strings.Contains(d, "running") || strings.Contains(d, "job-0") {
		t.Errorf("diff should show only job-1's row:\n%s", d)
	}

	for name, bad := range map[string]string{
		"no block":  "nothing here\n",
		"no total":  strings.Split(sampleOutput, "total:")[0],
		"row count": strings.Replace(sampleOutput, "3 jobs", "4 jobs", 1),
		"bad total": strings.Replace(sampleOutput, "$4.15 net", "four dollars", 1),
	} {
		if _, err := parseAccounting([]byte(bad)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestFreePort(t *testing.T) {
	port, err := freePort()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		t.Fatalf("port %d was reported free but cannot be bound: %v", port, err)
	}
	ln.Close()
}

func TestFindRootAndFS(t *testing.T) {
	root, err := findRoot() // tests run in bench/
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "bench", "main.go")); err != nil {
		t.Errorf("findRoot() = %s, which has no bench/main.go", root)
	}
	if fs := fsName(root); fs == "" || fs == "unknown" {
		t.Errorf("fsName(%s) = %q", root, fs)
	}
	if fs := fsName(filepath.Join(root, "no", "such", "dir")); fs != "unknown" {
		t.Errorf("fsName of a missing path = %q, want unknown", fs)
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		hasSetup = hasSetup || m.Name == "setup_s"
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s")
	}
	for _, name := range exact {
		found := false
		for _, m := range sp.EndToEnd {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("exact metric %s is not in end_to_end", name)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.request()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	time.Sleep(time.Millisecond)
	tr.end(outer)
	tr.request()
	other := tr.begin("other")
	tr.end(other)

	if tr.spans[1].parent != 0 || tr.spans[1].req != tr.spans[0].req || tr.spans[2].req == tr.spans[0].req {
		t.Fatalf("span links wrong: %+v", tr.spans)
	}
	layers, n := tr.selfTimes("outer")
	if n != 1 || len(layers) != 2 {
		t.Fatalf("selfTimes = %+v over %d requests", layers, n)
	}
	var sum, total time.Duration
	for _, l := range layers {
		sum += l.self
		if l.name == "outer" {
			total = l.total
			if l.self >= l.total {
				t.Errorf("outer's self time %v should exclude inner's %v", l.self, l.total)
			}
		}
	}
	if sum != total {
		t.Errorf("self times sum to %v, the root span took %v", sum, total)
	}

	var nilTracer *tracer
	nilTracer.request()
	nilTracer.end(nilTracer.begin("x")) // the untraced pass: must be a no-op

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 3 || !strings.Contains(string(raw), `"name":"inner"`) {
		t.Errorf("JSONL has %d lines:\n%s", lines, raw)
	}
}

func TestAtReference(t *testing.T) {
	// A machine twice as slow as the reference halves what it measured.
	slow := 2 * canaryNominal.Seconds()
	p := bracket(3*time.Second, []float64{slow}, []float64{slow, slow})
	if got := p.atReference(); !near(got, 1.5) {
		t.Errorf("atReference on a half-speed machine = %v, want 1.5", got)
	}
	if got := (timedPhase{wall: 3}).atReference(); got != 3 {
		t.Errorf("atReference without a reading = %v, want the wall time", got)
	}
}

// Command benchgate enforces the benchmark regression gate in CI: it
// reads a `go test -json -bench` stream, extracts each benchmark's best
// ns/op and allocs/op, and fails when a benchmark listed in the stored
// baseline file allocates more per op than the baseline allows.
//
// Usage:
//
//	go test -json -run '^$' -bench 'BenchmarkRunSchemesSerial$' -benchmem -count 3 . > bench.json
//	benchgate -bench-json bench.json -baseline .github/bench_baseline.json
//	benchgate -bench-json bench.json -baseline .github/bench_baseline.json -update
//
// The baseline file maps benchmark name (module-relative, no -N CPU
// suffix) to {"ns_op": N, "allocs_op": M}. Only allocs/op is gated: it
// is exact on any machine, while ns/op measures the box as much as the
// code (the same commit reads 1.3x to 4.6x the baseline's ns/op on a
// slower runner), so ns/op is printed next to its baseline as
// information and never fails the gate. Only benchmarks present in the
// baseline are gated; -update rewrites the baseline from the measured
// values (both columns) instead of gating, for refreshing after an
// intentional change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches a benchmark result line as emitted by `go test
// -bench` (possibly wrapped in a -json Output event): name, iteration
// count, ns/op, and — when the benchmark reports allocations — a
// trailing allocs/op. Custom ReportMetric columns may sit between the
// two, so the allocs field is matched anywhere after ns/op. The -N
// GOMAXPROCS suffix is stripped so baselines are stable across machines
// with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9.]+) allocs/op)?`)

type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// measurement is one benchmark's best observed cost on each axis.
// AllocsOp is negative until an allocs/op figure has been seen (a
// benchmark without ReportAllocs or -benchmem never reports one).
type measurement struct {
	NsOp     float64
	AllocsOp float64
}

// entry is one baseline record. AllocsOp is a pointer so that an entry
// without one is refused rather than read as a zero-alloc requirement.
type entry struct {
	NsOp     float64  `json:"ns_op"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
}

// parseBench extracts the minimum ns/op and allocs/op per benchmark
// name from a `go test -json` stream (or plain -bench text; both are
// accepted). The -json encoder fragments one benchmark result line
// across several Output events, so events are concatenated back into a
// text stream before line matching. Min-of-count is the standard noise
// filter: a benchmark cannot run faster than the hardware allows, so
// the minimum is the least noisy estimate of its true cost (allocs/op
// is deterministic per run; min keeps the two axes consistent).
func parseBench(path string) (map[string]measurement, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 0 && line[0] == '{' {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action == "output" {
					text.WriteString(ev.Output)
				}
				continue
			}
		}
		text.WriteString(line)
		text.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	best := make(map[string]measurement)
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		allocs := -1.0
		if m[3] != "" {
			if a, err := strconv.ParseFloat(m[3], 64); err == nil {
				allocs = a
			}
		}
		cur, ok := best[m[1]]
		if !ok {
			best[m[1]] = measurement{NsOp: ns, AllocsOp: allocs}
			continue
		}
		if ns < cur.NsOp {
			cur.NsOp = ns
		}
		if allocs >= 0 && (cur.AllocsOp < 0 || allocs < cur.AllocsOp) {
			cur.AllocsOp = allocs
		}
		best[m[1]] = cur
	}
	return best, nil
}

// readBaseline parses the baseline file. Every entry must carry the
// gated column.
func readBaseline(path string) (map[string]entry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var baseline map[string]entry
	if err := json.Unmarshal(raw, &baseline); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for name, e := range baseline {
		if e.AllocsOp == nil {
			return nil, fmt.Errorf("parse %s: entry %q has no allocs_op, so nothing to gate", path, name)
		}
	}
	return baseline, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	benchJSON := flag.String("bench-json", "", "go test -json -bench output to check")
	baselinePath := flag.String("baseline", "", "stored baseline JSON (benchmark name -> {ns_op, allocs_op})")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional allocs/op regression over the baseline")
	update := flag.Bool("update", false, "rewrite the baseline from the measured values instead of gating")
	flag.Parse()
	if *benchJSON == "" || *baselinePath == "" {
		log.Fatal("both -bench-json and -baseline are required")
	}

	measured, err := parseBench(*benchJSON)
	if err != nil {
		log.Fatal(err)
	}
	if len(measured) == 0 {
		log.Fatalf("no benchmark results found in %s", *benchJSON)
	}

	if *update {
		out := make(map[string]entry, len(measured))
		for name, m := range measured {
			if m.AllocsOp < 0 {
				log.Fatalf("%s reported no allocs/op (missing -benchmem/ReportAllocs?)", name)
			}
			out[name] = entry{NsOp: m.NsOp, AllocsOp: &m.AllocsOp}
		}
		enc, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(enc, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("baseline %s updated with %d benchmarks", *baselinePath, len(out))
		return
	}

	baseline, err := readBaseline(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		base := baseline[name]
		got, ok := measured[name]
		if !ok {
			log.Printf("FAIL %s: in baseline but not measured", name)
			failed = true
			continue
		}
		fmt.Printf("info %s: %.0f ns/op vs baseline %.0f (%+.1f%%, not gated)\n",
			name, got.NsOp, base.NsOp, (got.NsOp/base.NsOp-1)*100)
		if got.AllocsOp < 0 {
			log.Printf("FAIL %s: the run reported no allocs/op (missing -benchmem/ReportAllocs?)", name)
			failed = true
			continue
		}
		// No ratio exists over a zero baseline: any allocation at all is
		// the regression.
		over, limit := got.AllocsOp > 0, "must stay 0"
		if *base.AllocsOp > 0 {
			ratio := got.AllocsOp / *base.AllocsOp - 1
			over, limit = ratio > *threshold, fmt.Sprintf("%+.1f%%, limit +%.0f%%", ratio*100, *threshold*100)
		}
		status := "ok"
		if over {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-4s %s: %.0f allocs/op vs baseline %.0f (%s)\n",
			status, name, got.AllocsOp, *base.AllocsOp, limit)
	}
	if failed {
		log.Fatalf("benchmark regression gate failed (allocs/op threshold %.0f%%)", *threshold*100)
	}
}

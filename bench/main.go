// Command bench is the repository's benchmark: it builds cmd/proteus,
// drives the real binary as a child process over loopback TCP, and
// reports end-to-end metrics (tracing off) or per-layer metrics (an
// in-process, optionally traced, pass over the same generated inputs).
// See README.md in this directory for what each number means.
//
//	bash bench/run.sh --workload dense-short --seed 1 --seconds 30 --trace 0
//	go -C bench run . -workload sparse-long -layers
//	go -C bench run . -selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// spec mirrors BENCHMARK.json, the single list of what is reported.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	layers    bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: dense-short, sparse-long, proactive-deadline")
	flag.Int64Var(&o.seed, "seed", 1, "job-generator seed; the same seed posts byte-identical job sets")
	flag.IntVar(&o.seconds, "seconds", 0, "measuring budget in seconds (0 = BENCHMARK.json's run_seconds); the per-layer run's busy window is a fifth of it, the rest of either run is fixed work")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from the real binary, tracing off; 1: per-layer metrics — the busy life of the real binary, then an in-process pass and a traced one")
	flag.BoolVar(&o.layers, "layers", false, "per-layer metrics without the traced pass")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two interleaved sets of end-to-end runs on every workload and compare them with the bounds")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(ctx context.Context, o options) (int, error) {
	h, err := newHarness(ctx)
	if err != nil {
		return 2, err
	}
	defer h.close()
	go func() { // ctrl-c: leave no server behind
		<-ctx.Done()
		h.abort()
		os.Exit(130)
	}()
	sp, err := loadSpec(h.root)
	if err != nil {
		return 2, err
	}
	if o.seconds <= 0 {
		o.seconds = sp.RunSeconds
	}
	if o.selfcheck {
		return runSelfcheck(h, sp)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return 2, err
	}
	fmt.Printf("workload %s seed %d jobs %d\n", w.name, o.seed, w.jobs)
	fmt.Printf("wal_fs %s\n", fsName(h.runDir))

	rep := &report{}
	want := sp.EndToEnd
	switch {
	case o.trace == 1 || o.layers:
		want = nil
		for _, m := range sp.PerLayer {
			if o.trace == 1 || !strings.HasPrefix(m.Name, "trace.") {
				want = append(want, m)
			}
		}
		// The process-level diagnostics (CPU, RSS) and the latencies under
		// load need the real binary; one deterministic life and the busy
		// life are enough for them.
		if err := runE2E(h, w, o.seed, 1, busyWindow(o.seconds), rep); err != nil {
			return 2, err
		}
		if err := runLayers(h, w, o.seed, o.trace == 1, rep); err != nil {
			return 2, err
		}
	case o.trace == 0:
		if err := runE2E(h, w, o.seed, lifeAReps, 0, rep); err != nil {
			return 2, err
		}
	default:
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	return printReport(rep, want)
}

// busyWindow is the share of a per-layer run's measuring budget that
// Life B's closed-loop window takes; the rest is fixed work.
func busyWindow(secs int) time.Duration {
	return time.Duration(secs) * time.Second / 5
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric as "name value unit", the attempts
// and failures per phase, any failed check, and last the one-line JSON
// result holding exactly the metrics BENCHMARK.json lists for this mode.
func printReport(rep *report, want []specMetric) (int, error) {
	for _, m := range rep.metrics {
		fmt.Printf("%s %.6g %s\n", m.name, m.value, m.unit)
	}
	res := result{Metrics: map[string]resultValue{}}
	for _, t := range rep.tallies {
		fmt.Printf("attempts.%s %d count\nfailures.%s %d count\n", t.name, t.attempted, t.name, t.failed)
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	for _, p := range rep.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	for _, sm := range want {
		v, ok := rep.get(sm.Name)
		if !ok {
			rep.problem("metric %s is listed in BENCHMARK.json but was not measured", sm.Name)
			fmt.Printf("FAILED CHECK: %s\n", rep.problems[len(rep.problems)-1])
			continue
		}
		res.Metrics[sm.Name] = resultValue{Value: v, Unit: sm.Unit}
	}
	res.Correct = len(rep.problems) == 0 && res.Failed == 0
	if res.Attempted == 0 {
		res.Attempted = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

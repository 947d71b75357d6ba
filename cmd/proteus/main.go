// Command proteus runs one end-to-end simulated Proteus job: BidBrain
// acquiring and releasing spot allocations on the synthetic market while
// the job accrues work, with the full cost/runtime/usage accounting the
// paper reports.
//
// With -live, the full Fig. 7 architecture runs instead: granted market
// instances become AgileML machines, a real MF model trains against the
// real parameter-server stack, and market evictions flow through the
// elasticity controller.
//
// With -jobs or -jobs-file, the multi-tenant control plane
// (internal/sched) runs the job mix concurrently over one shared
// footprint and compares the bill against serial back-to-back execution.
//
// With -serve, the scheduler becomes a long-running HTTP service: jobs
// arrive over POST /v1/jobs, status and SSE event streams are served
// from the same listener as /metrics and pprof, and ctrl-c drains the
// in-flight jobs before printing the final bill.
//
// Usage:
//
//	proteus -hours 2 -scheme proteus
//	proteus -hours 4 -scheme all -samples 10
//	proteus -live -iterations 40
//	proteus -jobs 8 -policy fair -metrics-out metrics.prom
//	proteus -jobs-file mix.json -policy deadline
//	proteus -proactive
//	proteus -serve -addr :8080 -speedup 60
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"proteus/cmd/internal/prof"
	"proteus/internal/experiments"
	"proteus/internal/jobspec"
	"proteus/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("proteus: ")
	hours := flag.Float64("hours", 2, "job size: hours on the 64-machine on-demand baseline")
	scheme := flag.String("scheme", "all", "scheme to run: on-demand, checkpoint, agileml, proteus, all")
	samples := flag.Int("samples", 10, "job start points to average")
	seed := flag.Int64("seed", 1, "market seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for beta training and the two-arm studies (-jobs, -proactive); output is identical at any setting")
	live := flag.Bool("live", false, "run the full functional stack (market -> cluster -> AgileML -> real MF training)")
	iterations := flag.Int("iterations", 40, "training iterations for -live")
	jobs := flag.Int("jobs", 0, "run N synthetic tenant jobs through the multi-tenant scheduler instead of one job")
	proactive := flag.Bool("proactive", false, "run the reactive-vs-proactive eviction study: the tenant mix (-jobs, default 8) once reacting to market warnings only, once with the online forecaster pre-draining ahead of predicted evictions")
	jobsFile := flag.String("jobs-file", "", "run the JSON job mix at this path through the multi-tenant scheduler")
	policy := flag.String("policy", "fair", "multi-tenant placement policy: fair, cost-greedy, deadline")
	serveDefaults := defaultServeOptions()
	serve := flag.Bool("serve", false, "run the multi-tenant scheduler as a long-running HTTP control plane")
	serveForecast := flag.Bool("forecast", false, "with -serve, enable the online eviction forecaster: jobs submitted with \"proactive\": true are pre-drained ahead of predicted evictions, and /v1/stats gains the forecast block")
	addr := flag.String("addr", serveDefaults.addr, "with -serve, the listen address for the control-plane API")
	speedup := flag.Float64("speedup", serveDefaults.speedup, "with -serve, virtual seconds per wall second while jobs run (0 = as fast as possible)")
	walDir := flag.String("wal-dir", "", "with -serve, append every submission and state transition to a write-ahead log in this directory; a directory already holding a log is recovered (crash restart) instead of started fresh")
	walSegMB := flag.Int("wal-segment-mb", serveDefaults.walSegmentMB, "with -wal-dir, segment size in MiB before snapshot+compaction")
	maxQueue := flag.Int("max-queue", 0, "with -serve, cap on jobs waiting for admission; submissions beyond it get 429 + Retry-After (0 = unbounded)")
	maxConcurrent := flag.Int("max-concurrent", 0, "with -serve, cap on simultaneously running jobs (0 = unbounded)")
	traceLimit := flag.Int("trace-limit", serveDefaults.traceLimit, "with -serve, cap on retained trace spans; oldest finished spans are evicted past it, and -trace-out writes the retained spans only (0 = keep all)")
	days := flag.Int("days", 0, "market evaluation window in days (0 keeps the default)")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text metrics to this file at exit")
	traceOut := flag.String("trace-out", "", "write the JSONL span trace to this file at exit")
	metricsAddr := flag.String("metrics-addr", "", "with -live, serve /metrics and /debug/pprof on this address")
	profiles := prof.Register()
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	cfg := experiments.DefaultMarketConfig()
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	if *days > 0 {
		cfg.EvalDays = *days
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	oo := obsOutputs{metricsOut: *metricsOut, traceOut: *traceOut, metricsAddr: *metricsAddr}
	var o *obs.Observer
	if oo.enabled() || *serve || *live {
		o = obs.NewObserver(nil)
	}
	cfg.Observer = o

	if *serve {
		so := serveOptions{
			addr:          *addr,
			speedup:       *speedup,
			walDir:        *walDir,
			walSegmentMB:  *walSegMB,
			maxQueue:      *maxQueue,
			maxConcurrent: *maxConcurrent,
			traceLimit:    *traceLimit,
			forecast:      *serveForecast,
		}
		if err := runServe(ctx, cfg, o, *policy, so); err != nil {
			log.Fatal(err)
		}
		if err := oo.write(o); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *live {
		if err := runLive(ctx, cfg, *iterations, o, oo); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *proactive {
		n := *jobs
		if n <= 0 {
			n = 8
		}
		mix := experiments.SyntheticJobs(n, *seed)
		if *jobsFile != "" {
			var err error
			if mix, err = jobspec.Load(*jobsFile); err != nil {
				log.Fatal(err)
			}
		}
		if err := runProactive(cfg, mix); err != nil {
			log.Fatal(err)
		}
		if err := oo.write(o); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *jobs > 0 || *jobsFile != "" {
		mix := experiments.SyntheticJobs(*jobs, *seed)
		if *jobsFile != "" {
			var err error
			if mix, err = jobspec.Load(*jobsFile); err != nil {
				log.Fatal(err)
			}
		}
		if err := runMultiTenant(cfg, mix, *policy); err != nil {
			log.Fatal(err)
		}
		if err := oo.write(o); err != nil {
			log.Fatal(err)
		}
		return
	}

	avgs, err := experiments.RunSchemes(cfg, *hours, *samples)
	if err != nil {
		log.Fatal(err)
	}

	want := strings.ToLower(*scheme)
	fmt.Printf("Proteus job simulation: %.1fh baseline job, %d start points, seed %d\n\n",
		*hours, *samples, *seed)
	fmt.Printf("%-22s %12s %12s %12s %10s %10s\n",
		"scheme", "cost ($)", "% of OD", "runtime(h)", "evict/job", "free hrs")
	for _, a := range avgs {
		if want != "all" && !matches(want, a.Scheme) {
			continue
		}
		fmt.Printf("%-22s %12.2f %11.1f%% %12.2f %10.1f %10.1f\n",
			a.Scheme, a.Cost, a.CostPercentOD, a.Runtime.Hours(), a.Evictions, a.Usage.FreeHours)
	}

	if o != nil {
		// The cost simulation exercises only the market and BidBrain; one
		// quiet full-stack pass fills in the agileml, ps, core, and sim
		// metric families and the elasticity span trace.
		if _, err := liveRun(cfg, *iterations, o); err != nil {
			log.Fatal(err)
		}
		if err := oo.write(o); err != nil {
			log.Fatal(err)
		}
	}
}

func matches(want string, kind experiments.SchemeKind) bool {
	switch want {
	case "on-demand", "ondemand":
		return kind == experiments.SchemeOnDemand
	case "checkpoint", "ckpt":
		return kind == experiments.SchemeStandardCheckpoint
	case "agileml":
		return kind == experiments.SchemeStandardAgileML
	case "proteus":
		return kind == experiments.SchemeProteus
	}
	return false
}

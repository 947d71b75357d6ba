package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"proteus/internal/bidbrain"
	"proteus/internal/experiments"
	"proteus/internal/forecast"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/server"
	"proteus/internal/wal"
)

// serveOptions are the service-only knobs from the command line.
type serveOptions struct {
	addr    string
	speedup float64
	// walDir enables the durable control plane: every submission and an
	// hourly virtual-time watermark append to a write-ahead log there,
	// and a directory already holding a log is recovered instead of
	// started fresh (the logged environment wins over the flags).
	walDir string
	// walSegmentMB sizes log segments before snapshot+compaction.
	walSegmentMB int
	// maxQueue caps the admission backlog (429 beyond it); 0 unbounded.
	maxQueue int
	// maxConcurrent caps simultaneously running jobs; 0 unbounded.
	maxConcurrent int
	// traceLimit bounds retained spans: past it the oldest finished
	// spans are evicted, and a job whose trace lost spans says so in GET
	// /v1/jobs/{id}/trace. Defaults to defaultTraceLimit; 0 keeps all.
	// -trace-out writes the retained spans only.
	traceLimit int
	// forecast enables the online eviction forecaster (default options):
	// jobs submitted with "proactive": true are pre-drained ahead of
	// predicted evictions, and /v1/stats gains the "forecast" block.
	forecast bool
}

// defaultTraceLimit is how many finished spans -serve keeps by default,
// so its memory does not grow with uptime: about 4 MiB of records, the
// spans of the last 40-odd jobs to finish on the benchmark's long-job
// mix and of over a thousand on its short-job one (sized in DESIGN.md,
// "Default span retention").
const defaultTraceLimit = 65536

// defaultServeOptions are -serve's defaults: the command line's flags
// start from them.
func defaultServeOptions() serveOptions {
	return serveOptions{addr: ":8080", speedup: 60, walSegmentMB: 4, traceLimit: defaultTraceLimit}
}

// openWAL creates or recovers the service's write-ahead log. On
// recovery the returned replay carries the crashed run's inputs and the
// logged Meta, which the caller must use in place of its own flags —
// bit-identical replay needs the original environment.
func openWAL(o serveOptions, meta wal.Meta) (wal.Writer, *wal.Replay, error) {
	opts := wal.Options{SegmentBytes: o.walSegmentMB << 20}
	if wal.Exists(o.walDir) {
		return wal.Open(o.walDir, opts)
	}
	l, err := wal.Create(o.walDir, meta, opts)
	return l, nil, err
}

// newServeScheduler assembles -serve's scheduler over env: the
// observer's span retention and clock, the policy, the concurrency cap,
// the forecaster and the write-ahead log, recovering the logged run when
// replay is non-nil.
func newServeScheduler(env *experiments.Env, o *obs.Observer, policy sched.Policy,
	so serveOptions, wlog wal.Writer, replay *wal.Replay) (*sched.Scheduler, error) {
	o.Trace().SetLimit(so.traceLimit)
	o.SetClock(env.Engine.Now)
	scfg := experiments.SchedConfig(env.Brain, policy)
	scfg.Observer = o
	scfg.MaxConcurrent = so.maxConcurrent
	if so.forecast {
		scfg.Forecast = forecast.DefaultOptions()
	}
	if replay != nil {
		return sched.Recover(env.Engine, env.Market, scfg, replay, wlog)
	}
	scfg.WAL = wlog
	return sched.New(env.Engine, env.Market, scfg)
}

// runServe runs the multi-tenant scheduler as a long-running HTTP
// service: the control-plane API (job submission, status, SSE streams,
// stats), /metrics, and pprof all share one listener. Jobs submitted
// over POST /v1/jobs run over the shared footprint as they arrive,
// paced against the wall clock by -speedup. Canceling ctx (ctrl-c)
// drains: submissions are refused, in-flight jobs fast-forward to
// completion, the WAL tail is flushed and fsynced, and the consolidated
// bill prints before exit.
//
// With -wal-dir, the scheduler's full input stream is durable: killing
// the process (even SIGKILL) and restarting with the same -wal-dir
// replays the log into a scheduler whose bills, traces, and stats match
// the uninterrupted run.
func runServe(ctx context.Context, cfg experiments.MarketConfig, o *obs.Observer,
	policyName string, so serveOptions) error {
	policy, err := sched.PolicyByName(policyName)
	if err != nil {
		return err
	}
	if o == nil {
		o = obs.NewObserver(nil)
	}

	var wlog wal.Writer
	var replay *wal.Replay
	if so.walDir != "" {
		wlog, replay, err = openWAL(so, wal.Meta{
			Seed:          cfg.Seed,
			EvalDays:      cfg.EvalDays,
			TrainDays:     cfg.TrainDays,
			BetaSamples:   cfg.BetaSamples,
			Zones:         cfg.Zones,
			Policy:        policy.Name(),
			MaxConcurrent: so.maxConcurrent,
			Forecast:      so.forecast,
		})
		if err != nil {
			return err
		}
		defer wlog.Close()
		if replay != nil {
			// The log's environment overrides the flags: replay is only
			// bit-identical against the original market and policy.
			cfg.Seed = replay.Meta.Seed
			cfg.EvalDays = replay.Meta.EvalDays
			cfg.TrainDays = replay.Meta.TrainDays
			cfg.BetaSamples = replay.Meta.BetaSamples
			cfg.Zones = replay.Meta.Zones
			so.maxConcurrent = replay.Meta.MaxConcurrent
			so.forecast = replay.Meta.Forecast
			if policy, err = sched.PolicyByName(replay.Meta.Policy); err != nil {
				return fmt.Errorf("recovering %s: %w", so.walDir, err)
			}
			log.Printf("recovering %s: %d records (%d submissions) across %d segment(s), virtual clock at %s",
				so.walDir, replay.Records, len(replay.Jobs), replay.Segments, replay.LastVirtual)
			if replay.TornDropped {
				log.Printf("recovery: dropped one torn record at the log tail (mid-crash write)")
			}
		}
	}

	cfg.Observer = o
	env, err := experiments.NewEnv(cfg, bidbrain.DefaultParams())
	if err != nil {
		return err
	}
	sc, err := newServeScheduler(env, o, policy, so, wlog, replay)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Scheduler: sc, Observer: o, MaxQueue: so.maxQueue})
	if err != nil {
		return err
	}

	// The API stays up through the drain so clients can watch it finish;
	// its context closes only after the scheduler has settled.
	httpCtx, stopHTTP := context.WithCancel(context.Background())
	defer stopHTTP()
	httpDone, lnAddr, err := serveHTTP(httpCtx, so.addr, srv)
	if err != nil {
		return err
	}
	log.Printf("control plane on http://%s — POST /v1/jobs, GET /v1/jobs, /v1/stats, /v1/timeline, /metrics (ctrl-c drains and exits)", lnAddr)
	log.Printf("market: %d-day horizon, seed %d, policy %s, speedup %.0fx", cfg.EvalDays, cfg.Seed, policy.Name(), so.speedup)
	if wlog != nil {
		log.Printf("write-ahead log: %s (fsync on submit; crash recovery replays to an identical run)", so.walDir)
	}

	// SIGQUIT dumps the flight recorder — the last spans across every
	// component plus whatever is still open — without stopping the
	// service, for "what is it doing right now" triage.
	quitC := make(chan os.Signal, 1)
	signal.Notify(quitC, syscall.SIGQUIT)
	defer signal.Stop(quitC)
	go func() {
		for range quitC {
			log.Printf("SIGQUIT: dumping flight recorder to stderr")
			if err := o.FlightRecorder().WriteJSON(os.Stderr); err != nil {
				log.Printf("flight dump: %v", err)
			}
		}
	}()

	res, err := sc.Serve(ctx, sched.ServeConfig{Speedup: so.speedup})
	// End the SSE streams before asking the HTTP server to drain, so open
	// event connections close instead of spending the grace period idle.
	srv.Close()
	stopHTTP()
	if herr := <-httpDone; herr != nil {
		log.Printf("http server: %v", herr)
	}
	if wlog != nil {
		// Drain barrier: the settle's watermark, the drain's resume
		// point, reaches disk before the bill prints. The deferred Close
		// then finds a clean log.
		if werr := wlog.Sync(); werr != nil {
			log.Printf("wal: %v", werr)
		} else {
			st := wlog.Stats()
			log.Printf("wal: %d records durable (%d submissions, %d syncs, %d snapshots)",
				st.LastSeq, st.Submits, st.Syncs, st.Snapshots)
		}
	}
	if err != nil {
		return err
	}

	if len(res.Jobs) == 0 {
		fmt.Println("no jobs were submitted")
		return nil
	}
	fmt.Printf("\nFinal accounting: %d jobs, policy %s\n\n", len(res.Jobs), policy.Name())
	printJobTable(res.Jobs)
	fmt.Printf("\ntotal: $%.2f net (makespan %.1fh, %d rebalances, %.1f free hrs)\n",
		res.TotalCost, res.Makespan.Hours(), res.Rebalances, res.Usage.FreeHours)
	return nil
}

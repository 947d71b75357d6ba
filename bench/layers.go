package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/experiments"
	"proteus/internal/forecast"
	"proteus/internal/jobspec"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/server"
	"proteus/internal/sim"
	"proteus/internal/trace"
	"proteus/internal/wal"
)

// layerBench is the in-process pass: the same generated inputs the real
// binary was sent, pushed through each package's public functions, one
// layer at a time, the way cmd/proteus -serve composes them.
type layerBench struct {
	w       workload
	entries []jobspec.Entry
	bodies  [][]byte
	// jobs is the mix decoded from bodies, once, for the batch runs.
	jobs []sched.Job
	dir  string
	rep  *report
	seq  int
}

func usPer(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}
func nsPer(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// marketConfig is cmd/proteus' -serve configuration for the flags the
// benchmark passes.
func marketConfig() experiments.MarketConfig {
	cfg := experiments.DefaultMarketConfig()
	cfg.Seed = marketSeed
	cfg.EvalDays = marketDays
	cfg.Parallel = runtime.GOMAXPROCS(0)
	return cfg
}

// stack is one scheduler assembled as runServe assembles it.
type stack struct {
	env *experiments.Env
	obs *obs.Observer
	cfg sched.Config
	log wal.Writer
}

// newStack builds engine, market, brain and scheduler config. withObs
// attaches an observer as -serve always does; walDir, when set, creates
// a log there with the server's default options (fsync on).
func (lb *layerBench) newStack(withObs bool, walDir string, tr *tracer) (*stack, error) {
	cfg := marketConfig()
	st := &stack{}
	if withObs {
		st.obs = obs.NewObserver(nil)
		cfg.Observer = st.obs
	}
	env, err := experiments.NewEnv(cfg, bidbrain.DefaultParams())
	if err != nil {
		return nil, err
	}
	st.env = env
	if st.obs != nil {
		st.obs.SetClock(env.Engine.Now)
	}
	policy, err := sched.PolicyByName(lb.w.policy)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		policy = tracedPolicy{policy, tr}
	}
	st.cfg = experiments.SchedConfig(env.Brain, policy)
	st.cfg.Observer = st.obs
	st.cfg.MaxConcurrent = lb.w.maxConcurrent
	if lb.w.forecast {
		st.cfg.Forecast = forecast.DefaultOptions()
	}
	if walDir != "" {
		l, err := wal.Create(walDir, wal.Meta{
			Seed: cfg.Seed, EvalDays: cfg.EvalDays, TrainDays: cfg.TrainDays,
			BetaSamples: cfg.BetaSamples, Zones: cfg.Zones, Policy: policy.Name(),
			MaxConcurrent: lb.w.maxConcurrent, Forecast: lb.w.forecast,
		}, wal.Options{})
		if err != nil {
			return nil, err
		}
		st.log = l
		if tr != nil {
			st.log = tracedWAL{l, tr}
		}
		st.cfg.WAL = st.log
	}
	return st, nil
}

func (lb *layerBench) freshDir(tag string) string {
	lb.seq++
	return filepath.Join(lb.dir, fmt.Sprintf("%s%d", tag, lb.seq))
}

// decodeAll turns the POST bodies into scheduler jobs the way the
// handler does: Decode, then Jobs.
func (lb *layerBench) decodeAll() ([]sched.Job, error) {
	jobs := make([]sched.Job, 0, len(lb.entries))
	for _, b := range lb.bodies {
		entries, err := jobspec.Decode(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		js, err := jobspec.Jobs(entries, 0)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, js...)
	}
	return jobs, nil
}

// runResult is what one batch run is remembered by.
type runResult struct {
	wall time.Duration
	res  *sched.Result
	fc   sched.ForecastStats
	wal  wal.Stats
	dir  string
}

// runOnce submits the whole mix and runs it to completion in batch
// mode: the engine work of a drain without HTTP, pacing or signals.
func (lb *layerBench) runOnce(withObs, withWAL bool, tr *tracer) (runResult, error) {
	var out runResult
	if withWAL {
		out.dir = lb.freshDir("run")
	}
	st, err := lb.newStack(withObs, out.dir, tr)
	if err != nil {
		return out, err
	}
	sc, err := sched.New(st.env.Engine, st.env.Market, st.cfg)
	if err != nil {
		return out, err
	}
	for _, j := range lb.jobs {
		if err := sc.Submit(j); err != nil {
			return out, err
		}
	}
	tr.request()
	id := tr.begin("sched.run")
	t0 := time.Now()
	out.res, err = sc.Run()
	if err == nil && st.log != nil {
		err = st.log.Sync()
	}
	out.wall = time.Since(t0)
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.fc = sc.ForecastStats()
	if st.log != nil {
		out.wal = st.log.Stats()
		if err := st.log.Close(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// pass is the timed pipeline both the untraced and the traced pass run;
// its stage times are what trace.overhead_frac compares.
type passTimes struct {
	decode, submitWAL, syncWAL, handler, run, open, resim time.Duration
	walRun                                                runResult
}

func (p passTimes) total() time.Duration {
	return p.decode + p.submitWAL + p.syncWAL + p.handler + p.run + p.open + p.resim
}

const handlerPosts = 500

func (lb *layerBench) pass(tr *tracer) (passTimes, error) {
	var p passTimes
	n := len(lb.entries)

	// Submit path, layer by layer, one request per POST body.
	st, err := lb.newStack(true, lb.freshDir("submit"), tr)
	if err != nil {
		return p, err
	}
	sc, err := sched.New(st.env.Engine, st.env.Market, st.cfg)
	if err != nil {
		return p, err
	}
	for _, b := range lb.bodies {
		tr.request()
		batch := tr.begin("bench.submit_batch")
		t0 := time.Now()
		id := tr.begin("jobspec.decode")
		entries, err := jobspec.Decode(bytes.NewReader(b))
		var jobs []sched.Job
		if err == nil {
			jobs, err = jobspec.Jobs(entries, 0)
		}
		tr.end(id)
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		for _, j := range jobs {
			id := tr.begin("sched.submit")
			err := sc.Submit(j)
			tr.end(id)
			if err != nil {
				return p, err
			}
		}
		t2 := time.Now()
		id = tr.begin("sched.syncwal")
		err = sc.SyncWAL()
		tr.end(id)
		if err != nil {
			return p, err
		}
		t3 := time.Now()
		tr.end(batch)
		p.decode += t1.Sub(t0)
		p.submitWAL += t2.Sub(t1)
		p.syncWAL += t3.Sub(t2)
	}

	// The same scheduler, now loaded, behind the HTTP handler (a recorder
	// in place of TCP): single-entry POSTs as Life B's writer sends them.
	srv, err := server.New(server.Config{Scheduler: sc, Observer: st.obs})
	if err != nil {
		return p, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{srv, tr}
	}
	t0 := time.Now()
	for i := 0; i < handlerPosts; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte(`{"hours":0.1,"arrival_minutes":600}`)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			return p, fmt.Errorf("handler POST: %d %s", rec.Code, rec.Body.String())
		}
	}
	p.handler = time.Since(t0)
	srv.Close()
	if err := st.log.Close(); err != nil {
		return p, err
	}

	// The drain's engine work with everything -serve attaches.
	p.walRun, err = lb.runOnce(true, true, tr)
	if err != nil {
		return p, err
	}
	p.run = p.walRun.wall

	// Recovery: decode the log that run left, then re-simulate it.
	tr.request()
	rec := tr.begin("bench.recover")
	id := tr.begin("wal.open")
	t0 = time.Now()
	log, replay, err := wal.Open(p.walRun.dir, wal.Options{})
	p.open = time.Since(t0)
	tr.end(id)
	if err != nil {
		return p, err
	}
	st2, err := lb.newStack(true, "", tr)
	if err != nil {
		return p, err
	}
	var wlog wal.Writer = log
	if tr != nil {
		wlog = tracedWAL{log, tr}
	}
	id = tr.begin("sched.recover")
	t0 = time.Now()
	rsc, err := sched.Recover(st2.env.Engine, st2.env.Market, st2.cfg, replay, wlog)
	tr.end(id)
	if err != nil {
		return p, err
	}
	// A context that is already cancelled: Serve replays the recovered
	// history unpaced, finds every job terminal, and settles.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	id = tr.begin("sched.serve_catchup")
	res, err := rsc.Serve(ctx, sched.ServeConfig{Speedup: 60})
	tr.end(id)
	p.resim = time.Since(t0)
	tr.end(rec)
	if err != nil {
		return p, err
	}
	if err := log.Close(); err != nil {
		return p, err
	}
	if res.TotalCost != p.walRun.res.TotalCost || len(res.Jobs) != n {
		lb.rep.problem("layers: the re-simulated bill ($%.6f, %d jobs) differs from the run's ($%.6f, %d jobs)",
			res.TotalCost, len(res.Jobs), p.walRun.res.TotalCost, n)
	}
	return p, nil
}

// runLayers measures every per-layer metric. With traced set it then
// repeats the pipeline with the wrappers of trace.go installed, prints
// the self-time tables, and reports the tracing overhead.
func runLayers(h *harness, w workload, seed int64, traced bool, rep *report) error {
	entries := w.generate(seed)
	bodies, err := postBodies(entries)
	if err != nil {
		return err
	}
	lb := &layerBench{w: w, entries: entries, bodies: bodies, dir: filepath.Join(h.runDir, "layers"), rep: rep}
	n := len(entries)

	// Cold NewEnv first: trace synthesis and β training are cached per
	// process after this, as they are not across server starts.
	t0 := time.Now()
	if _, err := experiments.NewEnv(marketConfig(), bidbrain.DefaultParams()); err != nil {
		return err
	}
	rep.add("experiments.newenv_ms", millis(time.Since(t0)), "ms")

	var dec []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if lb.jobs, err = lb.decodeAll(); err != nil {
			return err
		}
		dec = append(dec, usPer(time.Since(t0), n))
	}
	rep.add("jobspec.decode_us_per_job", median(dec), "us")

	if err := lb.submitAndReads(); err != nil {
		return err
	}

	// Batch runs: bare, with the observer, with observer and WAL. The
	// differences are the observability and audit-trail shares of a drain.
	var bare, withObs []float64
	var last runResult
	for i := 0; i < 3; i++ {
		r, err := lb.runOnce(false, false, nil)
		if err != nil {
			return err
		}
		bare = append(bare, seconds(r.wall))
		last = r
	}
	for i := 0; i < 3; i++ {
		r, err := lb.runOnce(true, false, nil)
		if err != nil {
			return err
		}
		withObs = append(withObs, seconds(r.wall))
	}
	rep.add("sched.run_s", median(bare), "s")
	rep.add("sched.run_obs_s", median(withObs), "s")
	lb.resultCounts(last)

	var walRuns, opens, resims []float64
	var untraced passTimes
	for i := 0; i < 3; i++ {
		p, err := lb.pass(nil)
		if err != nil {
			return err
		}
		walRuns = append(walRuns, seconds(p.run))
		opens = append(opens, seconds(p.open))
		resims = append(resims, seconds(p.resim))
		if i == 0 || p.total() < untraced.total() {
			untraced = p
		}
		if err := os.RemoveAll(lb.dir); err != nil {
			return err
		}
	}
	rep.add("sched.run_wal_s", median(walRuns), "s")
	rep.add("sched.resim_s", median(resims), "s")
	rep.add("wal.open_decode_s", median(opens), "s")
	rep.add("sched.submit_wal_us_per_job", usPer(untraced.submitWAL, n), "us")
	rep.add("server.handler_submit_us", usPer(untraced.handler, handlerPosts), "us")
	// records_per_job, snapshots and syncs come from the real server's exit
	// line (runE2E); the batch run adds what that line does not carry.
	rep.add("wal.rotations", float64(untraced.walRun.wal.Rotations), "count")

	if err := lb.micro(); err != nil {
		return err
	}

	if traced {
		tr := newTracer()
		tp, err := lb.pass(tr)
		if err != nil {
			return err
		}
		rep.add("trace.overhead_frac", float64(tp.total()-untraced.total())/float64(untraced.total()), "ratio")
		rep.add("trace.spans", float64(len(tr.spans)), "count")
		tr.printSelfTimes("one bulk submit, layer by layer", "bench.submit_batch", true)
		tr.printSelfTimes("one single-entry POST through the handler", "server.handler", true)
		tr.printSelfTimes("the drain (batch Run, observer and WAL attached)", "sched.run", false)
		tr.printSelfTimes("recovery (wal.Open, Recover, catch-up Serve)", "bench.recover", false)
		out := filepath.Join(h.root, buildDirName, "trace-"+w.name+".jsonl")
		if err := tr.writeJSONL(out); err != nil {
			return err
		}
		fmt.Printf("trace_file %s\n", out)
	}
	return nil
}

// resultCounts reports the exact counts of one run's Result: they are a
// function of the seed, not of the machine.
func (lb *layerBench) resultCounts(r runResult) {
	rep := lb.rep
	var waits []float64
	evictions, deadlines, met := 0, 0, 0
	for _, jr := range r.res.Jobs {
		waits = append(waits, jr.Wait.Minutes())
		evictions += jr.Evictions
		if jr.Job.Deadline > 0 {
			deadlines++
			if jr.MetDeadline {
				met++
			}
		}
	}
	rep.add("sched.evictions", float64(evictions), "count")
	rep.add("sched.wait_p95_vmin", quantile(waits, 0.95), "min")
	frac := 1.0
	if deadlines > 0 {
		frac = float64(met) / float64(deadlines)
	}
	rep.add("sched.deadline_met_frac", frac, "ratio")
	rep.add("forecast.predrains", float64(r.fc.PreDrains), "count")
	rep.add("forecast.hits", float64(r.fc.PreDrainHits), "count")
	rep.add("forecast.false_positives", float64(r.fc.FalsePositiveDrains), "count")
}

// submitAndReads times Submit without a log, then the three read calls
// the HTTP handlers make, on the scheduler that now holds the whole mix.
func (lb *layerBench) submitAndReads() error {
	jobs := lb.jobs
	st, err := lb.newStack(true, "", nil)
	if err != nil {
		return err
	}
	sc, err := sched.New(st.env.Engine, st.env.Market, st.cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, j := range jobs {
		if err := sc.Submit(j); err != nil {
			return err
		}
	}
	lb.rep.add("sched.submit_us_per_job", usPer(time.Since(t0), len(jobs)), "us")

	const statusCalls, statsCalls, snapshotCalls = 20000, 2000, 20
	t0 = time.Now()
	for i := 0; i < statusCalls; i++ {
		if _, ok := sc.Status((i * 7919) % len(jobs)); !ok {
			return fmt.Errorf("Status: job %d unknown", (i*7919)%len(jobs))
		}
	}
	lb.rep.add("sched.status_us", usPer(time.Since(t0), statusCalls), "us")
	t0 = time.Now()
	for i := 0; i < statsCalls; i++ {
		sc.Stats()
	}
	lb.rep.add("sched.stats_us", usPer(time.Since(t0), statsCalls), "us")
	t0 = time.Now()
	for i := 0; i < snapshotCalls; i++ {
		if got := len(sc.Snapshot()); got != len(jobs) {
			return fmt.Errorf("Snapshot: %d jobs, want %d", got, len(jobs))
		}
	}
	lb.rep.add("sched.snapshot_us", usPer(time.Since(t0), snapshotCalls), "us")

	// Bulk POSTs through the handler, no TCP and no log.
	st2, err := lb.newStack(true, "", nil)
	if err != nil {
		return err
	}
	sc2, err := sched.New(st2.env.Engine, st2.env.Market, st2.cfg)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Scheduler: sc2, Observer: st2.obs})
	if err != nil {
		return err
	}
	defer srv.Close()
	t0 = time.Now()
	for _, b := range lb.bodies {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(b)))
		if rec.Code != http.StatusAccepted {
			return fmt.Errorf("bulk handler POST: %d %s", rec.Code, rec.Body.String())
		}
	}
	lb.rep.add("server.bulk_submit_us_per_job", usPer(time.Since(t0), len(jobs)), "us")
	return nil
}

// micro times the inner calls a drain makes millions of times, the ones
// bench_test.go isolates, on this run's market.
func (lb *layerBench) micro() error {
	rep := lb.rep

	// WAL append and fsync on the benchmark's own disk.
	l, err := wal.Create(lb.freshDir("micro"), wal.Meta{Seed: marketSeed, Policy: "fair"}, wal.Options{SegmentBytes: 1 << 30})
	if err != nil {
		return err
	}
	const appends, syncEvery = 40000, 2000
	var appendT time.Duration
	var syncs []float64
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		_, err := l.Append(wal.Record{Kind: wal.KindLease, AtNs: int64(i) * 1e6, JobID: i & 7, Alloc: i & 15, Cores: 128, Detail: "c4.xlarge spot"})
		appendT += time.Since(t0)
		if err != nil {
			return err
		}
		if (i+1)%syncEvery == 0 {
			t0 := time.Now()
			if err := l.Sync(); err != nil {
				return err
			}
			syncs = append(syncs, usPer(time.Since(t0), 1))
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	rep.add("wal.append_us", usPer(appendT, appends), "us")
	rep.add("wal.sync_us", median(syncs), "us")

	st, err := lb.newStack(false, "", nil)
	if err != nil {
		return err
	}

	// Price-change poll, one decision period per call.
	ps := st.env.Market.SubscribePrices()
	ps.Poll(0)
	const polls = 200000
	t0 := time.Now()
	for i := 1; i <= polls; i++ {
		ps.Poll(time.Duration(i) * 2 * time.Minute)
	}
	rep.add("market.price_poll_ns", nsPer(time.Since(t0), polls), "ns")

	// BidBrain's candidate search against a four-allocation footprint.
	catalog := st.env.Market.Types()
	spot := make(map[string]float64, len(catalog))
	current := []bidbrain.AllocState{{
		Type: catalog[0], Count: 4, Price: catalog[0].OnDemand, Remaining: trace.BillingHour, OnDemand: true,
	}}
	for _, t := range catalog {
		p, err := st.env.Market.SpotPrice(t.Name)
		if err != nil {
			return err
		}
		spot[t.Name] = p
		current = append(current, bidbrain.AllocState{Type: t, Count: 16, Price: p, Beta: 0.1, Remaining: 40 * time.Minute})
	}
	const searches = 2000
	t0 = time.Now()
	for i := 0; i < searches; i++ {
		if _, err := st.env.Brain.BestAcquisition(current, spot, catalog, 16); err != nil {
			return err
		}
	}
	rep.add("bidbrain.best_acq_us", usPer(time.Since(t0), searches), "us")

	// Forecaster update per observed price.
	tr := trace.Generate("c4.xlarge", "us-east-1a", 30*24*time.Hour, trace.DefaultGenConfig(0.209), rand.New(rand.NewSource(marketSeed)))
	updates := 0
	t0 = time.Now()
	for round := 0; round < 20; round++ {
		f, err := forecast.New(forecast.DefaultConfig())
		if err != nil {
			return err
		}
		for _, pt := range tr.Points {
			f.Update(pt.At, pt.Price)
		}
		updates += len(tr.Points)
	}
	rep.add("forecast.update_ns", nsPer(time.Since(t0), updates), "ns")

	// One engine step: pop, fire, re-arm a ticker.
	eng := sim.NewEngine()
	fired := 0
	eng.Every(time.Minute, "bench.tick", func() { fired++ })
	const steps = 1000000
	t0 = time.Now()
	for i := 0; i < steps; i++ {
		eng.Step()
	}
	rep.add("sim.step_ns", nsPer(time.Since(t0), steps), "ns")
	if fired == 0 {
		return fmt.Errorf("sim: the ticker never fired")
	}

	// SSE hub: one timeline event encoded once and fanned out to four
	// viewers.
	hub := server.NewHub(nil, nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		conn := hub.Timeline(4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range conn.C {
			}
		}()
	}
	u := sched.UtilPoint{LeasedCores: 512, IdleCores: 32, Running: 8, Queued: 3}
	const events = 100000
	t0 = time.Now()
	for i := 0; i < events; i++ {
		u.At = time.Duration(i) * time.Second
		hub.Dispatch(sched.Event{Kind: sched.EventTimeline, At: u.At, JobID: -1, Util: &u})
	}
	d := time.Since(t0)
	hub.Close()
	wg.Wait()
	rep.add("server.hub_dispatch_us", usPer(d, events), "us")
	return nil
}

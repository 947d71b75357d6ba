package proteus_test

// One benchmark per table/figure of the paper's evaluation (§6), plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// figure bench regenerates the figure's data and attaches its headline
// numbers as benchmark metrics, so `go test -bench=. -benchmem` both
// times the harness and reports the reproduced results.

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"proteus/internal/agileml"
	"proteus/internal/bidbrain"
	"proteus/internal/checkpoint"
	"proteus/internal/cluster"
	"proteus/internal/core"
	"proteus/internal/dataset"
	"proteus/internal/experiments"
	"proteus/internal/forecast"
	"proteus/internal/market"
	"proteus/internal/ml/mf"
	"proteus/internal/obs"
	"proteus/internal/perfmodel"
	"proteus/internal/sched"
	"proteus/internal/server"
	"proteus/internal/sim"
	"proteus/internal/trace"
	"proteus/internal/wal"
)

// benchCfg keeps market experiments fast under the benchmark harness;
// cmd/bidsim raises the sample counts for final numbers. Parallel is
// left at zero, so every figure bench fans its (scheme, zone, sample)
// grid out over all cores — output is bit-identical to a serial run.
func benchCfg() experiments.MarketConfig {
	return experiments.MarketConfig{Seed: 1, EvalDays: 14, TrainDays: 20, BetaSamples: 200}
}

func BenchmarkFig01_MLRCostTime(b *testing.B) {
	var rows []experiments.Fig01Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig01(benchCfg(), 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CostUSD, "onDemand-$")
	b.ReportMetric(rows[1].CostUSD, "ckpt-$")
	b.ReportMetric(rows[2].CostUSD, "proteus-$")
	b.ReportMetric(rows[2].Runtime.Hours(), "proteus-hrs")
}

func BenchmarkFig03_TraceGen(b *testing.B) {
	var series []experiments.Fig03Series
	for i := 0; i < b.N; i++ {
		series, _ = experiments.Fig03(int64(i + 1))
	}
	b.ReportMetric(float64(len(series[0].Points)), "points")
}

func BenchmarkFig08_TwoHourJobs(b *testing.B) {
	var avgs []experiments.SchemeAverage
	for i := 0; i < b.N; i++ {
		var err error
		avgs, err = experiments.Fig08(benchCfg(), 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSchemes(b, avgs)
}

func BenchmarkFig09_TwentyHourJobs(b *testing.B) {
	var avgs []experiments.SchemeAverage
	for i := 0; i < b.N; i++ {
		var err error
		avgs, err = experiments.Fig09(benchCfg(), 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSchemes(b, avgs)
}

func reportSchemes(b *testing.B, avgs []experiments.SchemeAverage) {
	b.Helper()
	for _, a := range avgs {
		switch a.Scheme {
		case experiments.SchemeStandardCheckpoint:
			b.ReportMetric(a.CostPercentOD, "ckpt-%OD")
		case experiments.SchemeStandardAgileML:
			b.ReportMetric(a.CostPercentOD, "agileml-%OD")
		case experiments.SchemeProteus:
			b.ReportMetric(a.CostPercentOD, "proteus-%OD")
			b.ReportMetric(a.Runtime.Hours(), "proteus-hrs")
		}
	}
}

func BenchmarkFig10_MachineHours(b *testing.B) {
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig10(benchCfg(), 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scheme == experiments.SchemeProteus {
			total := r.OnDemand + r.Spot + r.Free
			b.ReportMetric(r.Free/total*100, "proteus-free-%")
		}
	}
}

// BenchmarkRunSchemesSerial times the Fig. 8 (scheme, zone, sample)
// grid on one worker: the single-run kernels (price lookups, eviction
// scans, β training, event scheduling) that bound every cell.
func BenchmarkRunSchemesSerial(b *testing.B) {
	cfg := benchCfg()
	cfg.Parallel = 1
	b.ReportAllocs()
	b.ResetTimer()
	var avgs []experiments.SchemeAverage
	for i := 0; i < b.N; i++ {
		var err error
		avgs, err = experiments.RunSchemes(cfg, 2, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSchemes(b, avgs)
}

func BenchmarkFig11_Stage1(b *testing.B) {
	var bars []experiments.Bar
	for i := 0; i < b.N; i++ {
		bars = experiments.Fig11()
	}
	b.ReportMetric(bars[0].Value, "4PS-sec")
	b.ReportMetric(bars[len(bars)-1].Value, "traditional-sec")
}

func BenchmarkFig12_Stage2(b *testing.B) {
	var bars []experiments.Bar
	for i := 0; i < b.N; i++ {
		bars = experiments.Fig12()
	}
	b.ReportMetric(bars[2].Value, "32ActivePS-sec")
	b.ReportMetric(bars[len(bars)-1].Value, "traditional-sec")
}

func BenchmarkFig13_Stage3(b *testing.B) {
	var bars []experiments.Bar
	for i := 0; i < b.N; i++ {
		bars = experiments.Fig13()
	}
	b.ReportMetric(bars[0].Value, "workersOnReliable-sec")
	b.ReportMetric(bars[1].Value, "stage3-sec")
}

func BenchmarkFig14_Stage2v3(b *testing.B) {
	var bars []experiments.Bar
	for i := 0; i < b.N; i++ {
		bars = experiments.Fig14()
	}
	b.ReportMetric(bars[0].Value, "stage2-sec")
	b.ReportMetric(bars[1].Value, "stage3-sec")
}

func BenchmarkFig15_Scalability(b *testing.B) {
	var rows []experiments.Fig15Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig15()
	}
	b.ReportMetric(rows[0].AgileML, "4mach-sec")
	b.ReportMetric(rows[len(rows)-1].AgileML, "64mach-sec")
}

func BenchmarkFig16_Elasticity(b *testing.B) {
	var points []experiments.Fig16Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig16(45, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(points[4].Seconds, "4mach-sec")
	b.ReportMetric(points[19].Seconds, "64mach-sec")
	b.ReportMetric(points[34].Seconds/points[40].Seconds-1, "blip-frac")
}

// BenchmarkLiveFullStack times the complete Fig. 7 architecture: BidBrain
// acquiring simulated market instances that join the functional AgileML
// stack, with real MF training and eviction handling.
func BenchmarkLiveFullStack(b *testing.B) {
	var res core.LiveResult
	for i := 0; i < b.N; i++ {
		env, err := experiments.NewEnv(benchCfg(), bidbrain.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		data := dataset.GenerateMF(dataset.MFConfig{
			Users: 60, Items: 40, Rank: 4, Observed: 600, Noise: 0.01,
		}, 5)
		res, err = core.RunLive(env.Engine, env.Market, env.Brain, core.LiveConfig{
			App:              mf.New(mf.DefaultConfig(4), data),
			Iterations:       25,
			ReliableType:     "c4.xlarge",
			ReliableCount:    2,
			MaxSpotInstances: 24,
			ChunkInstances:   8,
			Params:           bidbrain.DefaultParams(),
			Workload:         perfmodel.MFNetflix(),
			Cluster:          perfmodel.ClusterA(),
			Staleness:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Objective, "final-rmse")
	b.ReportMetric(res.Cost, "$")
	b.ReportMetric(res.Runtime.Hours(), "virtual-hrs")
}

// BenchmarkSpanTree times the causal-tracing hot path the control plane
// adds to every job: emitting one job-shaped trace (lifecycle events,
// lease subtrees carrying bid/acquire/eviction events) and assembling
// it into the rooted tree GET /v1/jobs/{id}/trace serves. Every
// scheduled job pays this cost whether or not anyone reads the trace;
// obs.TestSpanTreeAllocs holds it to an allocation budget.
func BenchmarkSpanTree(b *testing.B) {
	b.ReportAllocs()
	var roots []*obs.TraceNode
	for i := 0; i < b.N; i++ {
		tr := obs.NewTracer(nil)
		traceID := obs.NewTraceID(1, uint64(i))
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
		roots = obs.BuildTree(spans)
		if len(roots) != 1 {
			b.Fatal("tree not rooted")
		}
	}
	if n := len(roots[0].Children); n == 0 {
		b.Fatal("empty tree")
	}
}

// BenchmarkWALAppend times the write-ahead log's append hot path — JSONL
// encode, checksum frame, buffered write — that every scheduler state
// transition pays once a -wal-dir is configured. NoSync isolates the
// encode path (the submit handler amortizes fsync via group commit, and
// the segment is oversized so rotation/compaction never fires).
// wal.TestAppendAllocs holds the per-record allocations to a budget.
func BenchmarkWALAppend(b *testing.B) {
	l, err := wal.Create(b.TempDir(), wal.Meta{Seed: 1, Policy: "fair"},
		wal.Options{NoSync: true, SegmentBytes: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := l.Append(wal.Record{
			Kind:   wal.KindLease,
			AtNs:   int64(i) * 1e6,
			JobID:  i & 7,
			Alloc:  i & 15,
			Cores:  128,
			Detail: "c4.xlarge spot",
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery times wal.Recover over a log shaped like a real
// run: one meta record, 256 submissions, and ~4k transition records in
// a single segment. This is the restart-latency budget — how long a
// crashed control plane spends reading its history before it can serve.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	l, err := wal.Create(dir, wal.Meta{Seed: 1, Policy: "fair"}, wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	params := bidbrain.DefaultParams()
	spec := core.JobSpec{
		TargetWork:    params.Phi * 256,
		Params:        params,
		ReliableType:  "c4.xlarge",
		ReliableCount: 3,
		MaxSpotCores:  512,
		ChunkCores:    128,
	}
	for i := 0; i < 256; i++ {
		_, err := l.Append(wal.Record{
			Kind:  wal.KindSubmit,
			JobID: i,
			Job:   &wal.JobRecord{ID: i, Name: "tenant", ArrivalNs: int64(i) * 1e9, Spec: spec},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		if _, err := l.Append(wal.Record{Kind: wal.KindTick, AtNs: int64(i) * 1e8, JobID: -1}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var replay *wal.Replay
	for i := 0; i < b.N; i++ {
		replay, err = wal.Recover(dir)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(replay.Records), "records")
	b.ReportMetric(float64(len(replay.Jobs)), "jobs")
}

// BenchmarkMarketPricePoll times one decision tick's price work under
// the per-type event sharding: a PriceSub sweep that reports only the
// types whose price moved since the last tick, cached prices serving
// the rest. This is what replaced the per-type SpotPrice scan in the
// scheduler's decide loop and forecast tick.
// market.TestPricePollAllocatesNothing holds the poll at zero
// allocations.
func BenchmarkMarketPricePoll(b *testing.B) {
	const horizon = 14 * 24 * time.Hour
	const step = time.Minute
	catalog := market.DefaultCatalog()
	set := trace.GenerateSet("bench", horizon, market.CatalogPrices(catalog), 1)
	newSub := func() *market.PriceSub {
		eng := sim.NewEngine()
		mkt, err := market.New(eng, market.Config{Catalog: catalog, Traces: set, Warning: 2 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		return mkt.SubscribePrices()
	}
	ps := newSub()
	ps.Poll(0)
	now := time.Duration(0)
	moved := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += step
		if now >= horizon {
			b.StopTimer()
			ps = newSub()
			ps.Poll(0)
			now = step
			b.StartTimer()
		}
		moved += len(ps.Poll(now))
	}
	b.StopTimer()
	b.ReportMetric(float64(moved)/float64(b.N), "moved/op")
}

// BenchmarkSchedulerSubmit times Scheduler.Submit with and without a
// WAL attached. Plain admission is a sub-µs queue insert; the wal
// variant adds one reflection-encoded JSONL frame (a few µs — the full
// JobSpec is marshaled so replay is exact). The durability budget is
// against the end-to-end submit path: that frame must stay under 10% of
// the HTTP admission pipeline bench/'s Life B measures p50/p95 for (ms
// scale), with fsync amortized across concurrent submitters by the
// server's group-commit barrier rather than paid per record.
func BenchmarkSchedulerSubmit(b *testing.B) {
	for _, v := range []struct {
		name    string
		withWAL bool
	}{{"plain", false}, {"wal", true}} {
		b.Run(v.name, func(b *testing.B) {
			env, err := experiments.NewEnv(benchCfg(), bidbrain.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			policy, err := sched.PolicyByName("fair")
			if err != nil {
				b.Fatal(err)
			}
			scfg := experiments.SchedConfig(env.Brain, policy)
			if v.withWAL {
				l, err := wal.Create(b.TempDir(), wal.Meta{Seed: 1, Policy: "fair"},
					wal.Options{NoSync: true, SegmentBytes: 1 << 30})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				scfg.WAL = l
			}
			sc, err := sched.New(env.Engine, env.Market, scfg)
			if err != nil {
				b.Fatal(err)
			}
			params := bidbrain.DefaultParams()
			spec := core.JobSpec{
				TargetWork:    params.Phi * 256,
				Params:        params,
				ReliableType:  "c4.xlarge",
				ReliableCount: 3,
				MaxSpotCores:  512,
				ChunkCores:    128,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sc.Submit(sched.Job{ID: i, Name: "bench", Spec: spec}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForecastUpdate times the online forecaster's per-tick hot
// path — pending-window maintenance, β-sample closes, spike-detector
// advance — that a proactive scheduler pays for every observed price on
// every decision tick. It must stay cheap enough to run inside the
// scheduler's lock; forecast.TestUpdateAllocs holds its allocations to
// a budget.
func BenchmarkForecastUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := trace.Generate("c4.xlarge", "us-east-1a", 30*24*time.Hour,
		trace.DefaultGenConfig(0.209), rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := forecast.New(forecast.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range tr.Points {
			f.Update(pt.At, pt.Price)
		}
		if f.ClosedSamples() == 0 {
			b.Fatal("no samples closed")
		}
	}
	b.ReportMetric(float64(len(tr.Points)), "ticks")
}

// BenchmarkProactiveRun times the reactive-vs-proactive study end to
// end — two full scheduler runs plus the forecaster — and reports the
// accuracy and saving headline numbers the experiment prints.
func BenchmarkProactiveRun(b *testing.B) {
	b.ReportAllocs()
	var study *experiments.ProactiveStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = experiments.RunProactive(benchCfg(), experiments.SyntheticJobs(8, 1), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.ReactiveNet, "reactive-$")
	b.ReportMetric(study.ProactiveNet, "proactive-$")
	b.ReportMetric(study.Forecast.HitRate()*100, "hit-%")
	b.ReportMetric(study.Forecast.BrierScore, "brier")
}

// BenchmarkSchedulerMultiTenant times the multi-tenant control plane:
// eight synthetic tenant jobs run concurrently over one shared footprint
// versus serially back-to-back, reporting both net bills and the saving
// sharing buys.
func BenchmarkSchedulerMultiTenant(b *testing.B) {
	b.ReportAllocs()
	var study *experiments.MultiTenantStudy
	for i := 0; i < b.N; i++ {
		var err error
		study, err = experiments.RunMultiTenant(benchCfg(), experiments.SyntheticJobs(8, 1), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.ConcurrentNet, "concurrent-$")
	b.ReportMetric(study.SerialNet, "serial-$")
	b.ReportMetric(study.Saving*100, "saving-%")
	b.ReportMetric(study.Concurrent.Makespan.Hours(), "makespan-hrs")
}

// BenchmarkEngineCancelReschedule times one engine step under the
// scheduler's scheduleCompletion pattern: a two-minute decision tick
// that moves each of three running jobs' completion events, due days
// ahead, with Reschedule. 6,000 re-arms have happened before the timer
// starts, so an engine that kept moved events queued until they surface
// is measured pushing and popping through thousands of dead
// completions, as a sparse-long run does.
func BenchmarkEngineCancelReschedule(b *testing.B) {
	eng := sim.NewEngine()
	completions := make([]*sim.Event, 3)
	done := func() {}
	for j := range completions {
		completions[j] = eng.At(time.Duration(60+j)*time.Hour, "complete", done)
	}
	eng.Every(2*time.Minute, "tick", func() {
		for j, ev := range completions {
			eng.Reschedule(ev, eng.Now()+time.Duration(60+j)*time.Hour)
		}
	})
	for i := 0; i < 2000; i++ {
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	b.ReportMetric(float64(eng.Pending()), "pending")
}

// BenchmarkFairShareShares times the placement policy the scheduler
// calls at every rebalance, at the two sizes the repo benchmark's
// workloads run it: 3 running jobs (sparse-long) and 64 (dense-short).
// Priorities repeat, so the leftover order is decided by the ID
// tie-break as often as by weight.
func BenchmarkFairShareShares(b *testing.B) {
	for _, n := range []int{3, 64} {
		b.Run(benchName("jobs", n), func(b *testing.B) {
			reqs := make([]sched.ShareRequest, n)
			for i := range reqs {
				reqs[i] = sched.ShareRequest{ID: (i * 37) % n, Priority: i % 3, MaxCores: 64 + 8*(i%5), RemainingWork: float64(1 + i%7)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var shares []int
			for i := 0; i < b.N; i++ {
				shares = (sched.FairShare{}).Shares(0, reqs, 96*n/3+1)
			}
			b.ReportMetric(float64(len(shares)), "jobs")
		})
	}
}

// BenchmarkSSEFanout times the serve-path hot loop: one scheduler event
// dispatched through the SSE hub to 16 live timeline viewers. The hub
// encodes the frame once and fans pre-framed bytes out non-blocking, so
// per-event cost is one encode plus 16 channel sends — not 16 JSON
// marshals. server.TestHubFanoutAllocs holds it to one allocation per
// event.
func BenchmarkSSEFanout(b *testing.B) {
	const viewers = 16
	hub := server.NewHub(nil, nil) // detached: the bench drives Dispatch
	var wg sync.WaitGroup
	for i := 0; i < viewers; i++ {
		conn := hub.Timeline(4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range conn.C {
			}
		}()
	}
	u := sched.UtilPoint{LeasedCores: 512, IdleCores: 32, Running: 8, Queued: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.At = time.Duration(i) * time.Second
		hub.Dispatch(sched.Event{Kind: sched.EventTimeline, At: u.At, JobID: -1, Util: &u})
	}
	b.StopTimer()
	hub.Close()
	wg.Wait()
	b.ReportMetric(viewers, "viewers")
}

// --- Ablations for the design choices DESIGN.md calls out ---

// BenchmarkAblation_PartitionCount varies N, the fixed partition count
// (§3.3 sets N to half the maximum machine count). Too few partitions
// limit placement balance; too many add per-partition overhead. The bench
// times 5 functional training clocks on 2+6 machines.
func BenchmarkAblation_PartitionCount(b *testing.B) {
	for _, parts := range []int{2, 8, 32, 128} {
		b.Run(benchName("N", parts), func(b *testing.B) {
			data := dataset.GenerateMF(dataset.MFConfig{
				Users: 60, Items: 40, Rank: 4, Observed: 600, Noise: 0.01,
			}, 5)
			app := mf.New(mf.DefaultConfig(4), data)
			for i := 0; i < b.N; i++ {
				seed := benchMachines()
				ctrl, err := agileml.New(agileml.Config{
					App: app, MaxMachines: 16, Partitions: parts, Staleness: 1,
				}, seed)
				if err != nil {
					b.Fatal(err)
				}
				if err := agileml.NewRunner(ctrl, app).RunClocks(5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchMachines() []*cluster.Machine {
	var seed []*cluster.Machine
	for i := 0; i < 2; i++ {
		seed = append(seed, &cluster.Machine{ID: cluster.MachineID(i), Tier: cluster.Reliable, Cores: 8})
	}
	for i := 2; i < 8; i++ {
		seed = append(seed, &cluster.Machine{ID: cluster.MachineID(i), Tier: cluster.Transient, Cores: 8})
	}
	return seed
}

// BenchmarkAblation_ActivePSFraction varies the fraction of transient
// machines hosting ActivePSs (§3.3/§6.4: half is best). Reported metric:
// modeled time-per-iteration at the paper's 4+60 configuration.
func BenchmarkAblation_ActivePSFraction(b *testing.B) {
	for _, frac := range []struct {
		name    string
		actives int
	}{{"eighth", 8}, {"quarter", 15}, {"half", 30}, {"all", 60}} {
		b.Run(frac.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				bd, err := perfmodel.IterationTime(
					perfmodel.ClusterA(), perfmodel.MFNetflix(),
					perfmodel.Stage2(4, 60, frac.actives))
				if err != nil {
					b.Fatal(err)
				}
				total = bd.Total
			}
			b.ReportMetric(total, "sec/iter")
		})
	}
}

// BenchmarkAblation_StageThresholds compares the paper's 1:1 and 15:1
// stage-switch thresholds against always-stage-1 and always-stage-3
// policies across a sweep of transient:reliable ratios, reporting the
// mean modeled iteration time each policy achieves.
func BenchmarkAblation_StageThresholds(b *testing.B) {
	ratios := []struct{ rel, trans int }{
		{32, 32}, {8, 56}, {4, 60}, {2, 62}, {1, 63},
	}
	policies := []struct {
		name string
		pick func(rel, trans int) perfmodel.Layout
	}{
		{"paper-1:1-15:1", func(rel, trans int) perfmodel.Layout {
			th := agileml.DefaultThresholds()
			switch th.StageFor(rel, trans) {
			case agileml.Stage1:
				return perfmodel.Stage1(rel, trans)
			case agileml.Stage2:
				return perfmodel.Stage2(rel, trans, (trans+1)/2)
			default:
				return perfmodel.Stage3(rel, trans, (trans+1)/2)
			}
		}},
		{"always-stage1", func(rel, trans int) perfmodel.Layout {
			return perfmodel.Stage1(rel, trans)
		}},
		{"always-stage3", func(rel, trans int) perfmodel.Layout {
			return perfmodel.Stage3(rel, trans, (trans+1)/2)
		}},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				sum := 0.0
				for _, r := range ratios {
					bd, err := perfmodel.IterationTime(
						perfmodel.ClusterA(), perfmodel.MFNetflix(), pol.pick(r.rel, r.trans))
					if err != nil {
						b.Fatal(err)
					}
					sum += bd.Total
				}
				mean = sum / float64(len(ratios))
			}
			b.ReportMetric(mean, "mean-sec/iter")
		})
	}
}

// BenchmarkAblation_BidDelta compares Proteus with the paper's full
// bid-delta grid against a grid restricted to bidding just above market —
// the free-compute-chasing strategy §6.3 reports as 3-4x slower — and one
// restricted to far-above-market bids (few evictions, no free compute).
func BenchmarkAblation_BidDelta(b *testing.B) {
	grids := []struct {
		name   string
		deltas []float64
	}{
		{"paper-grid", nil}, // nil selects trace.DefaultDeltas()
		{"just-above-market", []float64{0.0001}},
		{"far-above-market", []float64{0.4}},
	}
	for _, g := range grids {
		b.Run(g.name, func(b *testing.B) {
			var cost, hours float64
			for i := 0; i < b.N; i++ {
				res, err := runProteusWithDeltas(g.deltas, 1)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
				hours = res.Runtime.Hours()
			}
			b.ReportMetric(cost, "$/job")
			b.ReportMetric(hours, "hrs/job")
		})
	}
}

func runProteusWithDeltas(deltas []float64, seed int64) (core.Result, error) {
	catalog := market.DefaultCatalog()
	prices := market.CatalogPrices(catalog)
	hist := trace.GenerateSet("train", 20*24*time.Hour, prices, seed+100000)
	betas := make(map[string]*trace.BetaTable)
	for name := range prices {
		tr, _ := hist.Get(name)
		betas[name] = trace.BuildBetaTable(tr, trace.DefaultDeltas(), 200, seed)
	}
	params := bidbrain.DefaultParams()
	brain, err := bidbrain.New(params, betas, deltas)
	if err != nil {
		return core.Result{}, err
	}
	eval := trace.GenerateSet("eval", 14*24*time.Hour, prices, seed)
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{Catalog: catalog, Traces: eval, Warning: 2 * time.Minute})
	if err != nil {
		return core.Result{}, err
	}
	spec := core.JobSpec{
		TargetWork:    params.Phi * 64 * 8 * 2,
		Params:        params,
		ReliableType:  "c4.xlarge",
		ReliableCount: 3,
		MaxSpotCores:  768,
		ChunkCores:    128,
	}
	return core.ProteusScheme{Brain: brain}.Run(eng, mkt, spec)
}

// BenchmarkAblation_FreeCompute quantifies how much of Proteus' win is
// AWS-specific (§7): the same AgileML job on the EC2-style spot market
// (variable prices + eviction refunds) versus a GCE-style preemptible
// market (fixed 70% discount, no refunds).
func BenchmarkAblation_FreeCompute(b *testing.B) {
	b.Run("ec2-spot-proteus", func(b *testing.B) {
		var pct float64
		for i := 0; i < b.N; i++ {
			avgs, err := experiments.RunSchemes(benchCfg(), 2, 3)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range avgs {
				if a.Scheme == experiments.SchemeProteus {
					pct = a.CostPercentOD
				}
			}
		}
		b.ReportMetric(pct, "%OD")
	})
	b.Run("gce-preemptible-agileml", func(b *testing.B) {
		var pct float64
		for i := 0; i < b.N; i++ {
			res, err := experiments.RunPreemptible(benchCfg(), 2, 6*time.Hour, 3)
			if err != nil {
				b.Fatal(err)
			}
			pct = res.CostPercentOD
		}
		b.ReportMetric(pct, "%OD")
	})
}

// BenchmarkAblation_ZoneDiversification compares Proteus restricted to
// one availability zone against Proteus bidding across four independent
// zones — the diversification related work (Flint, §8) argues cuts
// correlated-revocation exposure.
func BenchmarkAblation_ZoneDiversification(b *testing.B) {
	var res experiments.ZoneStudyResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunZoneDiversified(benchCfg(), 4, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SingleZoneCost, "1zone-$")
	b.ReportMetric(res.MultiZoneCost, "4zone-$")
}

// BenchmarkAblation_CheckpointInterval sweeps the checkpoint scheme's
// interval policy: the MTTF-derived interval (Young's formula) against
// fixed aggressive and lazy overheads.
func BenchmarkAblation_CheckpointInterval(b *testing.B) {
	pol := checkpoint.DefaultPolicy()
	variants := []struct {
		name     string
		overhead float64
	}{
		{"mttf-derived-17pct", 0.17},
		{"aggressive-40pct", 0.40},
		{"lazy-5pct", 0.05},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var cost, hours float64
			for i := 0; i < b.N; i++ {
				env, err := experiments.NewEnv(benchCfg(), bidbrain.DefaultParams())
				if err != nil {
					b.Fatal(err)
				}
				spec := core.JobSpec{
					TargetWork:    bidbrain.DefaultParams().Phi * 64 * 8 * 2,
					Params:        bidbrain.DefaultParams(),
					ReliableType:  "c4.xlarge",
					ReliableCount: 3,
					MaxSpotCores:  768,
					ChunkCores:    128,
				}
				res, err := core.StandardCheckpointScheme{
					Policy: pol, MTTF: 4 * time.Hour, Overhead: v.overhead,
				}.Run(env.Engine, env.Market, spec)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
				hours = res.Runtime.Hours()
			}
			b.ReportMetric(cost, "$/job")
			b.ReportMetric(hours, "hrs/job")
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

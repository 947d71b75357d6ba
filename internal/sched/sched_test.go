package sched

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/core"
	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/sim"
	"proteus/internal/trace"
)

// testBrain trains a brain on a synthetic history window, mirroring the
// paper's train/evaluate split.
func testBrain(t testing.TB, seed int64) *bidbrain.Brain {
	t.Helper()
	prices := market.CatalogPrices(market.DefaultCatalog())
	hist := trace.GenerateSet("train", 30*24*time.Hour, prices, seed+1000)
	betas := make(map[string]*trace.BetaTable)
	for name := range prices {
		tr, _ := hist.Get(name)
		betas[name] = trace.BuildBetaTable(tr, trace.DefaultDeltas(), 300, seed)
	}
	brain, err := bidbrain.New(bidbrain.DefaultParams(), betas, nil)
	if err != nil {
		t.Fatal(err)
	}
	return brain
}

// testHarness builds an evaluation market disjoint from the brain's
// training window.
func testHarness(t testing.TB, seed int64) (*sim.Engine, *market.Market, *bidbrain.Brain) {
	t.Helper()
	brain := testBrain(t, seed)
	eval := trace.GenerateSet("eval", 14*24*time.Hour, market.CatalogPrices(market.DefaultCatalog()), seed)
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{
		Catalog: market.DefaultCatalog(),
		Traces:  eval,
		Warning: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mkt, brain
}

// smallSpec sizes a job worth one hour on 256 transient cores.
func smallSpec() core.JobSpec {
	p := bidbrain.DefaultParams()
	return core.JobSpec{
		TargetWork:    p.Phi * 256,
		Params:        p,
		ReliableType:  "c4.xlarge",
		ReliableCount: 3,
		MaxSpotCores:  256,
		ChunkCores:    128,
	}
}

func testConfig(brain *bidbrain.Brain) Config {
	return Config{
		Brain:         brain,
		ReliableType:  "c4.xlarge",
		ReliableCount: 4,
		MaxSpotCores:  512,
		ChunkCores:    128,
	}
}

// eightJobs is the acceptance workload: staggered arrivals, mixed
// priorities, one generous deadline.
func eightJobs() []Job {
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{
			ID:       i,
			Name:     "job",
			Spec:     smallSpec(),
			Arrival:  time.Duration(i) * 10 * time.Minute,
			Priority: i % 3,
		}
	}
	jobs[7].Deadline = 48 * time.Hour
	return jobs
}

func runJobs(t testing.TB, seed int64, jobs []Job, mutate func(*Config)) *Result {
	t.Helper()
	eng, mkt, brain := testHarness(t, seed)
	cfg := testConfig(brain)
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSchedulerSingleJobCompletes(t *testing.T) {
	res := runJobs(t, 1, []Job{{ID: 0, Name: "solo", Spec: smallSpec()}}, nil)
	jr := res.Jobs[0]
	if !jr.Completed || jr.State != Done {
		t.Fatalf("job did not complete: %+v", jr)
	}
	if res.TotalCost <= 0 {
		t.Fatalf("total cost %.4f, want positive", res.TotalCost)
	}
	if jr.Cost <= 0 || jr.Cost > res.TotalCost {
		t.Fatalf("job cost %.4f outside (0, %.4f]", jr.Cost, res.TotalCost)
	}
	if jr.Work < smallSpec().TargetWork*(1-1e-9) {
		t.Fatalf("work %.2f under target %.2f", jr.Work, smallSpec().TargetWork)
	}
}

// TestSchedulerConcurrentCheaperThanSerial is the acceptance criterion:
// eight jobs on one shared footprint must bill strictly fewer dollars
// concurrently than serially back-to-back — the shared reliable anchor
// is paid for a shorter makespan and footprint handoff wastes fewer
// paid hours.
func TestSchedulerConcurrentCheaperThanSerial(t *testing.T) {
	conc := runJobs(t, 1, eightJobs(), nil)
	serial := runJobs(t, 1, eightJobs(), func(c *Config) { c.MaxConcurrent = 1 })
	for _, res := range []*Result{conc, serial} {
		if len(res.Jobs) != 8 {
			t.Fatalf("got %d job results", len(res.Jobs))
		}
		for _, jr := range res.Jobs {
			if !jr.Completed {
				t.Fatalf("job %d did not complete (state %v)", jr.Job.ID, jr.State)
			}
		}
	}
	t.Logf("concurrent $%.2f makespan %v | serial $%.2f makespan %v",
		conc.TotalCost, conc.Makespan, serial.TotalCost, serial.Makespan)
	if conc.TotalCost >= serial.TotalCost {
		t.Fatalf("concurrent $%.2f not under serial $%.2f", conc.TotalCost, serial.TotalCost)
	}
	if conc.Makespan >= serial.Makespan {
		t.Fatalf("concurrent makespan %v not under serial %v", conc.Makespan, serial.Makespan)
	}
	if len(conc.Timeline) == 0 {
		t.Fatal("empty utilization timeline")
	}
}

// TestSchedulerDeterminism: same seed ⇒ identical schedule and billed
// dollars, bit for bit.
func TestSchedulerDeterminism(t *testing.T) {
	a := runJobs(t, 3, eightJobs(), nil)
	b := runJobs(t, 3, eightJobs(), nil)
	if a.TotalCost != b.TotalCost {
		t.Fatalf("total cost diverged: %.10f vs %.10f", a.TotalCost, b.TotalCost)
	}
	if a.Makespan != b.Makespan || a.Rebalances != b.Rebalances {
		t.Fatalf("schedule diverged: makespan %v/%v rebalances %d/%d",
			a.Makespan, b.Makespan, a.Rebalances, b.Rebalances)
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Finished != jb.Finished || ja.Cost != jb.Cost || ja.Evictions != jb.Evictions {
			t.Fatalf("job %d diverged: %+v vs %+v", ja.Job.ID, ja, jb)
		}
	}
}

// flatMarket has one constant price and a short horizon.
func flatMarket(t *testing.T, horizon time.Duration) (*sim.Engine, *market.Market) {
	t.Helper()
	catalog := market.DefaultCatalog()
	set := trace.NewSet("flat")
	for _, tp := range catalog {
		set.Add(&trace.Trace{InstanceType: tp.Name, Zone: "flat", Points: []trace.Point{
			{At: 0, Price: tp.OnDemand * 0.25},
			{At: horizon, Price: tp.OnDemand * 0.25},
		}})
	}
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{Catalog: catalog, Traces: set, Warning: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mkt
}

// TestSchedulerZeroCapacityMarket: when no grantable spot capacity
// exists at the job's granularity, the run must terminate at the market
// horizon with the jobs reported incomplete — not hang on the decision
// ticker.
func TestSchedulerZeroCapacityMarket(t *testing.T) {
	eng, mkt := flatMarket(t, 6*time.Hour)
	brain := testBrain(t, 1)
	spec := smallSpec()
	spec.MaxSpotCores = 2 // below the smallest instance's core count
	spec.ChunkCores = 2
	s, err := New(eng, mkt, Config{
		Brain:         brain,
		ReliableType:  "c4.xlarge",
		ReliableCount: 1,
		MaxSpotCores:  2,
		ChunkCores:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{ID: 0, Name: "starved", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	jr := res.Jobs[0]
	if jr.Completed || jr.State != Running {
		t.Fatalf("starved job should end incomplete and running, got %+v", jr)
	}
	if res.Usage.SpotHours != 0 {
		t.Fatalf("spot hours %.2f on a zero-capacity market", res.Usage.SpotHours)
	}
	if res.TotalCost <= 0 {
		t.Fatal("reliable anchor should still have been billed")
	}
}

// stormMarket spikes every type above on-demand simultaneously, so the
// whole shared footprint is evicted at once.
func stormMarket(t *testing.T, interval, spikeLen time.Duration) (*sim.Engine, *market.Market) {
	t.Helper()
	catalog := market.DefaultCatalog()
	set := trace.NewSet("storm")
	for _, tp := range catalog {
		base := tp.OnDemand * 0.25
		pts := []trace.Point{{At: 0, Price: base}}
		for at := interval / 2; at < 100*time.Hour; at += interval {
			pts = append(pts, trace.Point{At: at, Price: tp.OnDemand * 3})
			pts = append(pts, trace.Point{At: at + spikeLen, Price: base})
		}
		set.Add(&trace.Trace{InstanceType: tp.Name, Zone: "storm", Points: pts})
	}
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{Catalog: catalog, Traces: set, Warning: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mkt
}

// TestSchedulerSurvivesMassEviction: all jobs lose their whole footprint
// simultaneously and still complete, with the refunded hours showing up
// as free compute.
func TestSchedulerSurvivesMassEviction(t *testing.T) {
	eng, mkt := stormMarket(t, 100*time.Minute, 4*time.Minute)
	brain := testBrain(t, 1)
	cfg := testConfig(brain)
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.TargetWork *= 2 // span several storm cycles
	for i := 0; i < 3; i++ {
		if err := s.Submit(Job{ID: i, Name: "storm", Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	evictions := 0
	for _, jr := range res.Jobs {
		if !jr.Completed {
			t.Fatalf("job %d did not survive the storm (state %v)", jr.Job.ID, jr.State)
		}
		evictions += jr.Evictions
	}
	if evictions == 0 {
		t.Fatal("storm produced no evictions")
	}
	if res.Usage.FreeHours == 0 {
		t.Fatal("mass eviction should have refunded hours as free compute")
	}
}

// TestJobTraceTreeCoverage: a stormy run yields, for every job, exactly
// one rooted causal tree whose parent links all resolve and whose events
// cover the full lifecycle — submit through lease, eviction warning,
// refund, and completion.
func TestJobTraceTreeCoverage(t *testing.T) {
	eng, mkt := stormMarket(t, 100*time.Minute, 4*time.Minute)
	brain := testBrain(t, 1)
	o := obs.NewObserver(eng.Now)
	cfg := testConfig(brain)
	cfg.Observer = o
	cfg.TraceSeed = 42
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec()
	spec.TargetWork *= 2 // span several storm cycles
	for i := 0; i < 3; i++ {
		if err := s.Submit(Job{ID: i, Name: "storm", Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	evictions := 0
	for i := 0; i < 3; i++ {
		st, ok := s.Status(i)
		if !ok {
			t.Fatalf("job %d missing", i)
		}
		if st.TraceID != obs.NewTraceID(42, uint64(i)) {
			t.Fatalf("job %d trace ID %x not derived from the config seed", i, st.TraceID)
		}
		spans := o.Trace().TraceSpans(st.TraceID)
		roots := obs.BuildTree(spans)
		if len(roots) != 1 {
			t.Fatalf("job %d: %d roots, want 1 — a parent link is broken", i, len(roots))
		}
		root := roots[0]
		if root.Component != "sched" || root.Name != "job" {
			t.Fatalf("job %d root = %s/%s", i, root.Component, root.Name)
		}
		visited := 0
		names := map[string]int{}
		obs.WalkTree(roots, func(n *obs.TraceNode, depth int) {
			visited++
			names[n.Name]++
			if n.Open {
				t.Fatalf("job %d: span %s/%s still open after settle", i, n.Component, n.Name)
			}
		})
		if visited != len(spans) {
			t.Fatalf("job %d: tree covers %d of %d spans", i, visited, len(spans))
		}
		for _, want := range []string{"submit", "queued", "admitted", "running", "lease", "bid", "done"} {
			if names[want] == 0 {
				t.Fatalf("job %d: no %q span in tree (have %v)", i, want, names)
			}
		}
		if st.Evictions > 0 {
			for _, want := range []string{"eviction-warning", "refund"} {
				if names[want] == 0 {
					t.Fatalf("job %d evicted %d times but tree lacks %q spans (have %v)",
						i, st.Evictions, want, names)
				}
			}
		}
		evictions += st.Evictions
	}
	if evictions == 0 {
		t.Fatal("storm produced no evictions; the eviction branches went untested")
	}
	if o.Trace().Dropped() != 0 {
		t.Fatalf("%d spans dropped during the run", o.Trace().Dropped())
	}
}

// TestSchedulerLateArrivalExpires: a deadline job arriving after its
// deadline is rejected without running and costs nothing.
func TestSchedulerLateArrivalExpires(t *testing.T) {
	jobs := []Job{
		{ID: 0, Name: "ok", Spec: smallSpec()},
		{ID: 1, Name: "late", Spec: smallSpec(), Arrival: 3 * time.Hour, Deadline: 2 * time.Hour},
	}
	res := runJobs(t, 1, jobs, nil)
	if !res.Jobs[0].Completed {
		t.Fatal("job 0 should complete")
	}
	late := res.Jobs[1]
	if late.State != Expired || late.Completed {
		t.Fatalf("late job should expire, got %+v", late)
	}
	if late.Cost != 0 || late.Work != 0 {
		t.Fatalf("expired job billed cost %.4f work %.2f", late.Cost, late.Work)
	}
	if late.MetDeadline {
		t.Fatal("expired job cannot meet its deadline")
	}
}

// TestSchedulerExportsMetrics: a run with an observer populates every
// sched_* family the DESIGN.md table promises.
func TestSchedulerExportsMetrics(t *testing.T) {
	eng, mkt, brain := testHarness(t, 1)
	o := obs.NewObserver(eng.Now)
	cfg := testConfig(brain)
	cfg.Observer = o
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range eightJobs()[:3] {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Reg().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"proteus_sched_jobs_total",
		"proteus_sched_queue_depth",
		"proteus_sched_lease_seconds",
		"proteus_sched_rebalances_total",
	} {
		if !strings.Contains(out, family) {
			t.Fatalf("metric family %s missing from export:\n%s", family, out)
		}
	}
	spans := o.Trace().Filter("sched", "job")
	if len(spans) == 0 {
		t.Fatal("no per-job spans recorded")
	}
}

// recordingHooks counts lease churn delivered to a job.
type recordingHooks struct {
	grown, shrunk int
}

func (h *recordingHooks) Grow(cores int) error   { h.grown += cores; return nil }
func (h *recordingHooks) Shrink(cores int) error { h.shrunk += cores; return nil }

// TestSchedulerElasticityHooks: every core leased to a job is eventually
// reclaimed, and the hooks see both sides.
func TestSchedulerElasticityHooks(t *testing.T) {
	eng, mkt, brain := testHarness(t, 1)
	cfg := testConfig(brain)
	var hooks []*recordingHooks
	cfg.Hooks = func(Job) ElasticHooks {
		h := &recordingHooks{}
		hooks = append(hooks, h)
		return h
	}
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Submit(Job{ID: i, Name: "hooked", Spec: smallSpec()}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if !jr.Completed {
			t.Fatalf("job %d incomplete", jr.Job.ID)
		}
	}
	if len(hooks) != 2 {
		t.Fatalf("hooks built for %d jobs, want 2", len(hooks))
	}
	grown := 0
	for i, h := range hooks {
		if h.grown != h.shrunk {
			t.Fatalf("hook %d unbalanced: grew %d, shrank %d", i, h.grown, h.shrunk)
		}
		grown += h.grown
	}
	if grown == 0 {
		t.Fatal("no cores ever leased through the hooks")
	}
}

func TestSchedulerSchemeAdapter(t *testing.T) {
	eng, mkt, brain := testHarness(t, 1)
	res, err := SchedulerScheme{Brain: brain}.Run(eng, mkt, smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "sched-fair" {
		t.Fatalf("scheme name %q", res.Scheme)
	}
	if !res.Completed || res.Cost <= 0 || res.Runtime <= 0 {
		t.Fatalf("adapter result %+v", res)
	}
}

func TestSchedulerValidation(t *testing.T) {
	eng, mkt, brain := testHarness(t, 1)
	if _, err := New(eng, mkt, Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cfg := testConfig(brain)
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{ID: 0, Spec: core.JobSpec{}}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if err := s.Submit(Job{ID: 0, Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{ID: 0, Spec: smallSpec()}); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := s.Submit(Job{ID: 1, Spec: smallSpec(), Arrival: -time.Hour}); err == nil {
		t.Fatal("negative arrival accepted")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(Job{ID: 2, Spec: smallSpec()}); err == nil {
		t.Fatal("Submit after Run accepted")
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestRecomputeRateReArmsWithoutAllocating pins the in-place re-arm of
// a running job's completion: every rebalance recomputes each running
// job's rate and moves its completion, and a sparse-long run does that
// hundreds of thousands of times. Moving it must allocate nothing — no
// new event, no new closure — and leave exactly one event queued.
func TestRecomputeRateReArmsWithoutAllocating(t *testing.T) {
	eng, mkt, brain := testHarness(t, 1)
	s, err := New(eng, mkt, testConfig(brain))
	if err != nil {
		t.Fatal(err)
	}
	j := &jobRun{job: Job{ID: 0, Name: "running", Spec: smallSpec()}, state: Running, leasedCores: 128}
	s.recomputeRate(j)
	if allocs := testing.AllocsPerRun(100, func() { s.recomputeRate(j) }); allocs != 0 {
		t.Fatalf("re-arming a running job's completion allocates %v times per call, want 0", allocs)
	}
	if eng.Pending() != 1 {
		t.Fatalf("%d events queued after 101 re-arms of one completion, want 1", eng.Pending())
	}
	want := time.Duration(smallSpec().TargetWork / j.rate * float64(time.Hour))
	if at, ok := eng.Next(); !ok || at != want {
		t.Fatalf("completion queued at %v (%v), want %v", at, ok, want)
	}
}

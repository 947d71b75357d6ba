package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/dataset"
	"proteus/internal/market"
	"proteus/internal/ml/mf"
	"proteus/internal/obs"
	"proteus/internal/perfmodel"
	"proteus/internal/sim"
	"proteus/internal/trace"
)

func liveConfig(iters int) LiveConfig {
	data := dataset.GenerateMF(dataset.MFConfig{
		Users: 50, Items: 40, Rank: 3, Observed: 400, Noise: 0.01,
	}, 9)
	return LiveConfig{
		App:              mf.New(mf.DefaultConfig(3), data),
		Iterations:       iters,
		ReliableType:     "c4.xlarge",
		ReliableCount:    2,
		MaxSpotInstances: 24,
		ChunkInstances:   8,
		Params:           bidbrain.DefaultParams(),
		Workload:         perfmodel.MFNetflix(),
		Cluster:          perfmodel.ClusterA(),
		Staleness:        1,
	}
}

func TestLiveRunTrainsAndAccounts(t *testing.T) {
	eng, mkt, brain := testHarness(t, 21)
	cfg := liveConfig(30)

	res, err := RunLive(eng, mkt, brain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 30 {
		t.Fatalf("iterations = %d, want 30", res.Iterations)
	}
	if len(res.Timeline) != 30 {
		t.Fatalf("timeline = %d points", len(res.Timeline))
	}
	if res.Cost <= 0 {
		t.Fatalf("cost = %v", res.Cost)
	}
	if res.Runtime <= 0 {
		t.Fatalf("runtime = %v", res.Runtime)
	}
	// BidBrain must actually have grown the footprint beyond the
	// reliable anchor at some point.
	grew := false
	for _, p := range res.Timeline {
		if p.Machines > 2 {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatal("footprint never grew beyond the reliable machines")
	}
	// The trained model must be meaningfully better than the random
	// initialization (initial RMSE on this dataset is ~0.5).
	if res.Objective > 0.35 {
		t.Fatalf("objective = %.4f; training ineffective", res.Objective)
	}
	// No allocations leak: everything terminated or evicted.
	for _, a := range mkt.Allocations() {
		if s := a.State(); s != market.Terminated && s != market.Evicted {
			t.Fatalf("allocation %d leaked in state %v", a.ID, s)
		}
	}
}

// hostileMarket is a market whose every spot price spikes far above any
// bid shortly after the run starts, forcing a bulk eviction of whatever
// BidBrain acquired.
func hostileMarket(t *testing.T) (*sim.Engine, *market.Market) {
	t.Helper()
	catalog := market.DefaultCatalog()
	prices := market.CatalogPrices(catalog)
	set := trace.NewSet("hostile")
	for name, p := range prices {
		base := p * 0.25
		set.Add(&trace.Trace{InstanceType: name, Zone: "hostile", Points: []trace.Point{
			{At: 0, Price: base},
			{At: 90 * time.Second, Price: p * 50},
			{At: 500 * time.Hour, Price: p * 50},
		}})
	}
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{Catalog: catalog, Traces: set, Warning: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mkt
}

func TestLiveRunSurvivesEvictions(t *testing.T) {
	// The run must keep training on the reliable tier through the bulk
	// eviction.
	eng, mkt := hostileMarket(t)
	_, _, brain := testHarness(t, 22) // brain trained elsewhere; only β tables matter

	res, err := RunLive(eng, mkt, brain, liveConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("hostile market caused no evictions")
	}
	if res.Iterations != 20 {
		t.Fatalf("run did not finish: %d iterations", res.Iterations)
	}
	// After the eviction the timeline must show the footprint back at
	// the reliable tier only.
	last := res.Timeline[len(res.Timeline)-1]
	if last.Machines != 2 {
		t.Fatalf("final machines = %d, want 2 (reliable only)", last.Machines)
	}
	if res.Objective > 0.45 {
		t.Fatalf("objective = %.4f after evictions; progress lost?", res.Objective)
	}
}

func TestLiveConfigValidation(t *testing.T) {
	eng, mkt, brain := testHarness(t, 23)
	bad := liveConfig(10)
	bad.App = nil
	if _, err := RunLive(eng, mkt, brain, bad); err == nil {
		t.Fatal("nil app accepted")
	}
	bad = liveConfig(10)
	bad.Iterations = 0
	if _, err := RunLive(eng, mkt, brain, bad); err == nil {
		t.Fatal("zero iterations accepted")
	}
	bad = liveConfig(10)
	bad.ChunkInstances = 0
	if _, err := RunLive(eng, mkt, brain, bad); err == nil {
		t.Fatal("zero chunk accepted")
	}
	if _, err := RunLive(eng, mkt, nil, liveConfig(10)); err == nil {
		t.Fatal("nil brain accepted")
	}
}

// TestLiveRunNarratesThroughTheTracer: the tracer is the one record of a
// live run's decisions — a core/acquire span for the reliable tier and
// for every spot acquisition, a core/refund span for every eviction —
// and recording it changes nothing: the same run without an observer
// returns the identical result.
func TestLiveRunNarratesThroughTheTracer(t *testing.T) {
	run := func(o *obs.Observer) (LiveResult, *market.Market) {
		eng, mkt := hostileMarket(t)
		_, _, brain := testHarness(t, 22)
		o.SetClock(eng.Now)
		cfg := liveConfig(20)
		cfg.Observer = o
		res, err := RunLive(eng, mkt, brain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, mkt
	}
	o := obs.NewObserver(nil)
	traced, mkt := run(o)
	plain, _ := run(nil)
	if !reflect.DeepEqual(traced, plain) {
		t.Fatalf("the observer changed the run:\n traced %+v\n plain  %+v", traced, plain)
	}
	if traced.Evictions == 0 {
		t.Fatal("hostile market caused no evictions")
	}

	spot := 0
	for _, a := range mkt.Allocations() {
		if !a.OnDemand {
			spot++
		}
	}
	acquires := o.Trace().Filter("core", "acquire")
	if len(acquires) != 1+spot {
		t.Fatalf("%d core/acquire spans, want 1 reliable + %d spot", len(acquires), spot)
	}
	if !strings.HasPrefix(acquires[0].Detail, "reliable tier: 2x c4.xlarge") ||
		!strings.HasPrefix(acquires[1].Detail, "alloc 1: ") || !strings.Contains(acquires[1].Detail, "bid=$") {
		t.Fatalf("acquires = %q, %q", acquires[0].Detail, acquires[1].Detail)
	}
	if refunds := o.Trace().Filter("core", "refund"); len(refunds) != traced.Evictions {
		t.Fatalf("%d core/refund spans for %d evictions", len(refunds), traced.Evictions)
	}
}

package experiments

import (
	"reflect"
	"testing"
	"time"

	"proteus/internal/agileml"
	"proteus/internal/obs"
)

// fastCfg keeps the cost experiments quick in unit tests; cmd/bidsim uses
// larger samples.
func fastCfg() MarketConfig {
	return MarketConfig{Seed: 1, EvalDays: 14, TrainDays: 20, BetaSamples: 200}
}

func TestRunSchemesOrdering(t *testing.T) {
	avgs, err := RunSchemes(fastCfg(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(avgs) != 4 {
		t.Fatalf("got %d scheme rows, want 4", len(avgs))
	}
	byName := map[SchemeKind]SchemeAverage{}
	for _, a := range avgs {
		byName[a.Scheme] = a
		if a.Runtime <= 0 {
			t.Fatalf("%v: runtime %v", a.Scheme, a.Runtime)
		}
	}
	od := byName[SchemeOnDemand]
	pr := byName[SchemeProteus]
	ck := byName[SchemeStandardCheckpoint]
	if od.CostPercentOD != 100 {
		t.Fatalf("on-demand baseline percent = %v", od.CostPercentOD)
	}
	if pr.CostPercentOD >= 35 {
		t.Fatalf("proteus = %.1f%% of on-demand; expect deep savings", pr.CostPercentOD)
	}
	if pr.Cost >= ck.Cost {
		t.Fatalf("proteus ($%.2f) not cheaper than checkpoint ($%.2f)", pr.Cost, ck.Cost)
	}

	// Observing the grid must not move a number, and every cell's
	// private observer must reach the caller's.
	observed := fastCfg()
	observed.Observer = obs.NewObserver(nil)
	again, err := RunSchemes(observed, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(avgs, again) {
		t.Fatalf("an observed run differs:\nplain:    %+v\nobserved: %+v", avgs, again)
	}
	if got, cells := len(observed.Observer.Trace().Filter("market", "allocation")), len(avgs)*4; got < cells {
		t.Fatalf("%d market allocation spans merged from a grid of %d cells", got, cells)
	}
}

func TestRunSchemesValidation(t *testing.T) {
	if _, err := RunSchemes(fastCfg(), 2, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
	short := fastCfg()
	short.EvalDays = 1
	if _, err := RunSchemes(short, 20, 2); err == nil {
		t.Fatal("20h jobs in a 1-day window accepted")
	}
}

func TestFig01ThreeConfigs(t *testing.T) {
	rows, err := Fig01(fastCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Fig01 rows = %d, want 3", len(rows))
	}
	// Proteus is the last row; it must be far cheaper than the first
	// (all on-demand) and cheaper than checkpointing.
	if rows[2].Config != "Proteus" || rows[0].Config != "AllOnDemand" {
		t.Fatalf("row order: %v, %v, %v", rows[0].Config, rows[1].Config, rows[2].Config)
	}
	if rows[2].CostUSD >= rows[0].CostUSD*0.45 {
		t.Fatalf("proteus $%.2f vs on-demand $%.2f: savings too small", rows[2].CostUSD, rows[0].CostUSD)
	}
	if rows[2].CostUSD >= rows[1].CostUSD {
		t.Fatalf("proteus $%.2f not under checkpointing $%.2f", rows[2].CostUSD, rows[1].CostUSD)
	}
}

func TestFig03SeriesShape(t *testing.T) {
	series, onDemand := Fig03(7)
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	if onDemand <= 0 {
		t.Fatal("no on-demand reference price")
	}
	for _, s := range series {
		if len(s.Points) < 50 {
			t.Fatalf("%s: only %d points over 6 days", s.Label, len(s.Points))
		}
		// Spot mostly below on-demand, with at least one spike above.
		below, above := 0, 0
		for _, pt := range s.Points {
			if pt.Price*s.Scale < onDemand {
				below++
			} else {
				above++
			}
		}
		if below < above {
			t.Fatalf("%s: prices mostly above on-demand", s.Label)
		}
		if above == 0 {
			t.Fatalf("%s: no spike above on-demand in 6 days", s.Label)
		}
	}
}

func TestFig10FreeComputeShare(t *testing.T) {
	rows, err := Fig10(fastCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	var proteus, onDemand Fig10Row
	for _, r := range rows {
		switch r.Scheme {
		case SchemeProteus:
			proteus = r
		case SchemeOnDemand:
			onDemand = r
		}
	}
	if onDemand.Spot != 0 || onDemand.Free != 0 {
		t.Fatalf("on-demand row has spot usage: %+v", onDemand)
	}
	total := proteus.Spot + proteus.Free
	if total == 0 || proteus.Free/total < 0.05 {
		t.Fatalf("proteus free share = %.2f; the paper reports ~32%%", proteus.Free/total)
	}
}

func TestFig11Through14Shapes(t *testing.T) {
	f11 := Fig11()
	if len(f11) != 4 {
		t.Fatalf("Fig11 bars = %d", len(f11))
	}
	// Monotone decrease from 4 ParamServs to traditional.
	for i := 1; i < len(f11); i++ {
		if f11[i].Value >= f11[i-1].Value {
			t.Fatalf("Fig11 not decreasing: %v", f11)
		}
	}
	f12 := Fig12()
	if len(f12) != 5 {
		t.Fatalf("Fig12 bars = %d", len(f12))
	}
	if f12[2].Value >= f12[0].Value {
		t.Fatal("Fig12: 32 ActivePS not beating 4 ParamServs")
	}
	f13 := Fig13()
	if f13[1].Value >= f13[0].Value {
		t.Fatal("Fig13: stage 3 not beating stage 2 at 63:1")
	}
	trad := f13[2].Value
	if f13[1].Value > trad*1.15 {
		t.Fatalf("Fig13: stage 3 (%.2f) should match traditional (%.2f)", f13[1].Value, trad)
	}
	f14 := Fig14()
	if f14[0].Value >= f14[1].Value {
		t.Fatal("Fig14: stage 2 not beating stage 3 at 1:1")
	}
}

func TestFig15ScalingRows(t *testing.T) {
	rows := Fig15()
	if len(rows) != 5 || rows[0].Machines != 4 || rows[4].Machines != 64 {
		t.Fatalf("rows = %+v", rows)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].AgileML >= rows[i-1].AgileML {
			t.Fatalf("no speedup from %d to %d machines", rows[i-1].Machines, rows[i].Machines)
		}
		if rows[i].Ideal >= rows[i-1].Ideal {
			t.Fatal("ideal line not decreasing")
		}
	}
}

func TestFig16Timeline(t *testing.T) {
	points, err := Fig16(45, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 45 {
		t.Fatalf("points = %d, want 45", len(points))
	}
	// Iterations 1–10: 4 machines, slow. 11–34: 64 machines, fast.
	// 35: eviction blip. 36+: back to 4 machines.
	if points[4].Machines != 4 || points[4].Stage != agileml.Stage1 {
		t.Fatalf("early point: %+v", points[4])
	}
	if points[19].Machines != 64 {
		t.Fatalf("mid point machines = %d, want 64", points[19].Machines)
	}
	if points[19].Seconds >= points[4].Seconds/5 {
		t.Fatalf("speedup too small: %.1fs -> %.1fs", points[4].Seconds, points[19].Seconds)
	}
	if points[40].Machines != 4 {
		t.Fatalf("post-eviction machines = %d, want 4", points[40].Machines)
	}
	// The eviction iteration shows the blip relative to the next ones.
	evict := points[34]
	if evict.Iteration != 35 {
		t.Fatalf("expected iteration 35 at index 34, got %d", evict.Iteration)
	}
	if evict.Seconds <= points[40].Seconds {
		t.Fatal("no blip on the eviction iteration")
	}
	if evict.Seconds > points[40].Seconds*1.2 {
		t.Fatalf("blip too large: %.2f vs steady %.2f", evict.Seconds, points[40].Seconds)
	}
	// Objective decreases across the whole timeline, including across the
	// eviction (no lost state).
	if points[44].Objective >= points[0].Objective {
		t.Fatalf("objective did not improve: %.4f -> %.4f", points[0].Objective, points[44].Objective)
	}
	if points[35].Objective > points[33].Objective*1.05 {
		t.Fatalf("objective regressed across eviction: %.4f -> %.4f", points[33].Objective, points[35].Objective)
	}
}

func TestSchemeKindString(t *testing.T) {
	if SchemeProteus.String() != "Proteus" || SchemeOnDemand.String() != "AllOnDemand" {
		t.Fatal("scheme names wrong")
	}
	if len(AllSchemes()) != 4 {
		t.Fatal("AllSchemes should list 4 schemes")
	}
}

func TestNewEnvTrainsBetaTables(t *testing.T) {
	env, err := NewEnv(fastCfg(), baselineSpec(2).Params)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range env.Market.Types() {
		beta, err := env.Brain.Beta(tp.Name, 0.0001)
		if err != nil {
			t.Fatal(err)
		}
		if beta <= 0 {
			t.Fatalf("%s: at-market beta = %v, want positive", tp.Name, beta)
		}
	}
	_ = time.Second
}

func TestRunZoneDiversified(t *testing.T) {
	res, err := RunZoneDiversified(fastCfg(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleZoneCost <= 0 || res.MultiZoneCost <= 0 {
		t.Fatalf("degenerate costs: %+v", res)
	}
	// Diversification widens the candidate space: the multi-zone run must
	// not be meaningfully more expensive than the single-zone one.
	if res.MultiZoneCost > res.SingleZoneCost*1.15 {
		t.Fatalf("diversified cost %.2f >> single-zone %.2f", res.MultiZoneCost, res.SingleZoneCost)
	}
}

func TestRunZoneDiversifiedValidation(t *testing.T) {
	if _, err := RunZoneDiversified(fastCfg(), 1, 2); err == nil {
		t.Fatal("single zone accepted for a diversification study")
	}
	if _, err := RunZoneDiversified(fastCfg(), 2, 0); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestAsciiBar(t *testing.T) {
	if got := AsciiBar(5, 10, 10); got != "#####" {
		t.Fatalf("AsciiBar = %q, want #####", got)
	}
	if got := AsciiBar(20, 10, 10); len(got) != 10 {
		t.Fatalf("AsciiBar should clamp, got %q", got)
	}
	if got := AsciiBar(1, 0, 10); got != "" {
		t.Fatalf("AsciiBar with max=0 should be empty, got %q", got)
	}
}

// TestWholeRunAllocs holds three whole runs to allocation ceilings: the
// Fig. 8 (scheme, zone, sample) grid on one worker, the
// reactive-vs-proactive study and the multi-tenant study. Each budget
// is 1.15 × the count the run read when it was set (1,719, 2,823 and
// 3,070), rounded down; a run over it has started allocating per event
// or per tick where it did not.
func TestWholeRunAllocs(t *testing.T) {
	serial := fastCfg()
	serial.Parallel = 1
	for _, c := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"RunSchemes serial", 1976, func() error {
			_, err := RunSchemes(serial, 2, 3)
			return err
		}},
		{"RunProactive", 3246, func() error {
			_, err := RunProactive(fastCfg(), SyntheticJobs(8, 1), nil)
			return err
		}},
		{"RunMultiTenant", 3530, func() error {
			_, err := RunMultiTenant(fastCfg(), SyntheticJobs(8, 1), nil)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(5, func() {
				if err := c.run(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%v allocs per run", allocs)
			if allocs > c.budget {
				t.Fatalf("%s allocates %v times, over the budget of %v", c.name, allocs, c.budget)
			}
		})
	}
}

package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"proteus/internal/agileml"
	"proteus/internal/cluster"
	"proteus/internal/dataset"
	"proteus/internal/market"
	"proteus/internal/ml/mf"
	"proteus/internal/obs"
	"proteus/internal/perfmodel"
	"proteus/internal/trace"
)

// Bar is one labeled value of a bar-chart figure.
type Bar struct {
	Label string
	Value float64 // seconds per iteration unless noted
}

// AsciiBar renders value as a proportional bar against max, width cells
// wide, for quick terminal-readable figures.
func AsciiBar(value, max float64, width int) string {
	if max <= 0 || value < 0 {
		return ""
	}
	n := int(math.Round(value / max * float64(width)))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Fig01Row is one configuration of Fig. 1: cost and runtime of the MLR
// job under a scheme.
type Fig01Row struct {
	Config  string
	CostUSD float64
	Runtime time.Duration
}

// Fig01 reproduces Fig. 1: the MLR application on Cluster-B scale (the
// paper ran 128 on-demand machines vs Proteus with 3 on-demand and up to
// 189 spot instances). The job is sized so the on-demand baseline takes
// the paper's ~4 hours.
func Fig01(cfg MarketConfig, samples int) ([]Fig01Row, error) {
	avgs, err := RunSchemes(cfg, 4, samples)
	if err != nil {
		return nil, err
	}
	out := make([]Fig01Row, 0, 3)
	for _, avg := range avgs {
		if avg.Scheme == SchemeStandardAgileML {
			continue // Fig. 1 shows three configurations
		}
		out = append(out, Fig01Row{
			Config:  avg.Scheme.String(),
			CostUSD: avg.Cost,
			Runtime: avg.Runtime,
		})
	}
	return out, nil
}

// Fig03Series is one instance type's price line of Fig. 3.
type Fig03Series struct {
	Label string
	// Scale multiplies prices so lines compare equal core counts (the
	// paper doubles c4.xlarge to match c4.2xlarge's 8 cores).
	Scale  float64
	Points []trace.Point
}

// Fig03 reproduces Fig. 3: six days of spot prices for c4.xlarge
// (doubled) and c4.2xlarge, plus the constant on-demand line.
func Fig03(seed int64) ([]Fig03Series, float64) {
	prices := market.CatalogPrices(market.DefaultCatalog())
	set := trace.GenerateSet("us-east-1a", 6*24*time.Hour, map[string]float64{
		"c4.xlarge":  prices["c4.xlarge"],
		"c4.2xlarge": prices["c4.2xlarge"],
	}, seed)
	small, _ := set.Get("c4.xlarge")
	big, _ := set.Get("c4.2xlarge")
	return []Fig03Series{
		{Label: "c4.2xlarge", Scale: 1, Points: big.Points},
		{Label: "c4.xlarge (x2)", Scale: 2, Points: small.Points},
	}, prices["c4.2xlarge"]
}

// Fig08 reproduces Fig. 8: 2-hour jobs, cost (% of on-demand) and
// runtime for the three spot schemes.
func Fig08(cfg MarketConfig, samples int) ([]SchemeAverage, error) {
	return RunSchemes(cfg, 2, samples)
}

// Fig09 reproduces Fig. 9: the same study with 20-hour jobs.
func Fig09(cfg MarketConfig, samples int) ([]SchemeAverage, error) {
	return RunSchemes(cfg, 20, samples)
}

// Fig10Row is one scheme's machine-hour split of Fig. 10.
type Fig10Row struct {
	Scheme   SchemeKind
	OnDemand float64
	Spot     float64
	Free     float64
}

// Fig10 reproduces Fig. 10: the machine-hours of 2-hour jobs split into
// on-demand, paid spot, and free (evicted-hour) usage.
func Fig10(cfg MarketConfig, samples int) ([]Fig10Row, error) {
	avgs, err := RunSchemes(cfg, 2, samples)
	if err != nil {
		return nil, err
	}
	out := make([]Fig10Row, 0, 3)
	for _, avg := range avgs {
		if avg.Scheme == SchemeStandardAgileML {
			continue // Fig. 10 shows three configurations
		}
		out = append(out, Fig10Row{
			Scheme:   avg.Scheme,
			OnDemand: avg.Usage.OnDemandHours,
			Spot:     avg.Usage.SpotHours,
			Free:     avg.Usage.FreeHours,
		})
	}
	return out, nil
}

func mustIter(l perfmodel.Layout) float64 {
	b, err := perfmodel.IterationTime(perfmodel.ClusterA(), perfmodel.MFNetflix(), l)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return b.Total
}

// Fig11 reproduces Fig. 11: AgileML stage 1 time-per-iteration for MF
// with 4–32 ParamServ machines out of 64, against the traditional
// all-reliable layout.
func Fig11() []Bar {
	return []Bar{
		{Label: "4 ParamServs", Value: mustIter(perfmodel.Stage1(4, 60))},
		{Label: "16 ParamServs", Value: mustIter(perfmodel.Stage1(16, 48))},
		{Label: "32 ParamServs", Value: mustIter(perfmodel.Stage1(32, 32))},
		{Label: "Traditional (High Cost)", Value: mustIter(perfmodel.Traditional(64))},
	}
}

// Fig12 reproduces Fig. 12: stage 2 with 4 reliable + 60 transient
// machines, varying the ActivePS count, against stage 1 and traditional.
func Fig12() []Bar {
	return []Bar{
		{Label: "4 ParamServs", Value: mustIter(perfmodel.Stage1(4, 60))},
		{Label: "16 ActivePS", Value: mustIter(perfmodel.Stage2(4, 60, 16))},
		{Label: "32 ActivePS", Value: mustIter(perfmodel.Stage2(4, 60, 32))},
		{Label: "48 ActivePS", Value: mustIter(perfmodel.Stage2(4, 60, 48))},
		{Label: "Traditional (High Cost)", Value: mustIter(perfmodel.Traditional(64))},
	}
}

// Fig13 reproduces Fig. 13: 1 reliable + 63 transient machines with and
// without workers on the reliable machine, against traditional.
func Fig13() []Bar {
	return []Bar{
		{Label: "Workers on Reliable", Value: mustIter(perfmodel.Stage2(1, 63, 32))},
		{Label: "No workers on Reliable", Value: mustIter(perfmodel.Stage3(1, 63, 32))},
		{Label: "Traditional (High Cost)", Value: mustIter(perfmodel.Traditional(64))},
	}
}

// Fig14 reproduces Fig. 14: stage 2 vs stage 3 on 8 reliable + 8
// transient machines (1:1 ratio, where stage 2 wins).
func Fig14() []Bar {
	return []Bar{
		{Label: "Stage 2", Value: mustIter(perfmodel.Stage2(8, 8, 4))},
		{Label: "Stage 3", Value: mustIter(perfmodel.Stage3(8, 8, 4))},
	}
}

// Fig15Row is one machine count of the Fig. 15 scaling study.
type Fig15Row struct {
	Machines int
	AgileML  float64 // seconds per iteration
	Ideal    float64 // perfect scaling of the 4-machine case
}

// Fig15 reproduces Fig. 15: LDA strong scaling from 4 to 64 machines.
// The 4-machine case is the traditional layout; 8 machines runs stage 1
// with 4+4; larger counts run stage 3 with one reliable machine.
func Fig15() []Fig15Row {
	c, w := perfmodel.ClusterA(), perfmodel.LDANytimes()
	iter := func(l perfmodel.Layout) float64 {
		b, err := perfmodel.IterationTime(c, w, l)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return b.Total
	}
	base := iter(perfmodel.Traditional(4))
	rows := []Fig15Row{{Machines: 4, AgileML: base, Ideal: base}}
	configs := []struct {
		n   int
		lay perfmodel.Layout
	}{
		{8, perfmodel.Stage1(4, 4)},
		{16, perfmodel.Stage3(1, 15, 8)},
		{32, perfmodel.Stage3(1, 31, 16)},
		{64, perfmodel.Stage3(1, 63, 32)},
	}
	for _, cfg := range configs {
		rows = append(rows, Fig15Row{
			Machines: cfg.n,
			AgileML:  iter(cfg.lay),
			Ideal:    base * 4 / float64(cfg.n),
		})
	}
	return rows
}

// Fig16Point is one iteration of the Fig. 16 elasticity timeline.
type Fig16Point struct {
	Iteration int
	Seconds   float64 // modeled time for this iteration
	Objective float64 // measured MF training objective (RMSE)
	Machines  int
	Stage     agileml.Stage
}

// Fig16 reproduces Fig. 16 functionally: MF starts on 4 reliable
// machines, 60 transient machines join during iteration 11, and all 60
// are evicted (with warning) during iteration 35. The parameter-server
// stack, bulk addition, graceful eviction, and state preservation all run
// for real; per-iteration times come from the performance model, with the
// paper's measured 13% blip applied to the eviction iteration.
func Fig16(iterations int, seed int64) ([]Fig16Point, error) {
	return Fig16Observed(iterations, seed, nil)
}

// Fig16Observed is Fig16 with the AgileML stack instrumented through the
// given observer (nil disables instrumentation).
func Fig16Observed(iterations int, seed int64, o *obs.Observer) ([]Fig16Point, error) {
	if iterations < 40 {
		iterations = 45
	}
	data := dataset.GenerateMF(dataset.MFConfig{
		Users: 60, Items: 40, Rank: 4, Observed: 600, Noise: 0.01,
	}, seed)
	app := mf.New(mf.DefaultConfig(4), data)

	mkMachines := func(start int, tier cluster.Tier, count int) []*cluster.Machine {
		out := make([]*cluster.Machine, count)
		for i := range out {
			out[i] = &cluster.Machine{ID: cluster.MachineID(start + i), Tier: tier, Cores: 8}
		}
		return out
	}
	reliable := mkMachines(0, cluster.Reliable, 4)
	ctrl, err := agileml.New(agileml.Config{App: app, MaxMachines: 64, Staleness: 1, Observer: o}, reliable)
	if err != nil {
		return nil, err
	}
	runner := agileml.NewRunner(ctrl, app)

	timeFor := func(rel, trans int, blip bool) float64 {
		var lay perfmodel.Layout
		th := agileml.DefaultThresholds()
		switch th.StageFor(rel, trans) {
		case agileml.Stage1:
			lay = perfmodel.Stage1(rel, trans)
		case agileml.Stage2:
			lay = perfmodel.Stage2(rel, trans, (trans+1)/2)
		default:
			lay = perfmodel.Stage3(rel, trans, (trans+1)/2)
		}
		b, err := perfmodel.IterationTime(perfmodel.ClusterA(), perfmodel.MFNetflix(), lay)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		t := b.Total
		if blip {
			t *= 1 + perfmodel.TransitionBlip
		}
		return t
	}

	transient := mkMachines(100, cluster.Transient, 60)
	transIDs := make([]cluster.MachineID, len(transient))
	for i, m := range transient {
		transIDs[i] = m.ID
	}

	var points []Fig16Point
	for iter := 1; iter <= iterations; iter++ {
		blip := false
		switch iter {
		case 11:
			// Bulk addition: prepared in the background, no disruption.
			if err := ctrl.AddMachines(transient); err != nil {
				return nil, err
			}
		case 35:
			// Bulk eviction with warning: drain, migrate, fall back.
			if err := ctrl.HandleEvictionWarning(transIDs); err != nil {
				return nil, err
			}
			if err := ctrl.CompleteEviction(transIDs); err != nil {
				return nil, err
			}
			blip = true
		}
		if err := runner.RunClock(); err != nil {
			return nil, err
		}
		obj, err := runner.Objective()
		if err != nil {
			return nil, err
		}
		rel, trans := ctrl.NumMachines()
		points = append(points, Fig16Point{
			Iteration: iter,
			Seconds:   timeFor(rel, trans, blip),
			Objective: obj,
			Machines:  rel + trans,
			Stage:     ctrl.Stage(),
		})
	}
	return points, nil
}

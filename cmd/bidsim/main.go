// Command bidsim runs the paper's cost-savings studies (§6.3) over the
// simulated spot market and prints the rows of Figures 1, 8, 9, and 10.
//
// Usage:
//
//	bidsim -fig 1               # MLR cost/runtime: on-demand vs ckpt vs Proteus
//	bidsim -fig 8 -samples 50   # 2-hour jobs: cost % and runtime, 3 schemes
//	bidsim -fig 9               # 20-hour jobs
//	bidsim -fig 10              # machine-hour breakdown
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"proteus/cmd/internal/prof"
	"proteus/internal/experiments"
	"proteus/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bidsim: ")
	fig := flag.Int("fig", 8, "figure to reproduce (1, 8, 9, 10)")
	samples := flag.Int("samples", 20, "job start points to average (paper: 1000)")
	seed := flag.Int64("seed", 1, "market seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for beta training (the figures' grids run serially); output is identical at any setting")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of tables")
	metricsOut := flag.String("metrics-out", "", "write Prometheus text metrics aggregated over all sample runs to this file")
	traceOut := flag.String("trace-out", "", "write the JSONL span trace of all sample runs to this file")
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
	if *metricsOut != "" || *traceOut != "" {
		// One observer across every (scheme, zone, offset) run: counters
		// aggregate over the whole experiment, spans append in run order.
		cfg.Observer = obs.NewObserver(nil)
	}

	switch {
	case *csv && (*fig == 8 || *fig == 9):
		hours := 2.0
		if *fig == 9 {
			hours = 20
		}
		err = printCostCSV(cfg, hours, *samples)
	case *fig == 1:
		err = printFig1(cfg, *samples)
	case *fig == 8:
		err = printCostFig(cfg, 8, 2, *samples)
	case *fig == 9:
		err = printCostFig(cfg, 9, 20, *samples)
	case *fig == 10:
		err = printFig10(cfg, *samples)
	default:
		log.Fatalf("unknown figure %d (bidsim reproduces 1, 8, 9, 10)", *fig)
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteFiles(cfg.Observer, *metricsOut, *traceOut); err != nil {
		log.Fatal(err)
	}
}

// printCostCSV emits the Fig. 8/9 data as CSV for plotting tools.
func printCostCSV(cfg experiments.MarketConfig, hours float64, samples int) error {
	avgs, err := experiments.RunSchemes(cfg, hours, samples)
	if err != nil {
		return err
	}
	fmt.Println("scheme,cost_usd,cost_pct_of_ondemand,runtime_hours,evictions,ondemand_hours,spot_hours,free_hours")
	for _, a := range avgs {
		fmt.Printf("%s,%.4f,%.2f,%.4f,%.2f,%.2f,%.2f,%.2f\n",
			a.Scheme, a.Cost, a.CostPercentOD, a.Runtime.Hours(), a.Evictions,
			a.Usage.OnDemandHours, a.Usage.SpotHours, a.Usage.FreeHours)
	}
	return nil
}

func printFig1(cfg experiments.MarketConfig, samples int) error {
	rows, err := experiments.Fig01(cfg, samples)
	if err != nil {
		return err
	}
	fmt.Println("Figure 1: cost and time benefits of Proteus (MLR-scale job)")
	fmt.Printf("%-22s %12s %12s\n", "configuration", "cost ($)", "time (hrs)")
	for _, r := range rows {
		fmt.Printf("%-22s %12.2f %12.2f\n", r.Config, r.CostUSD, r.Runtime.Hours())
	}
	base := rows[0].CostUSD
	fmt.Printf("\nProteus saves %.0f%% vs all on-demand, %.0f%% vs standard+checkpointing\n",
		(1-rows[2].CostUSD/base)*100, (1-rows[2].CostUSD/rows[1].CostUSD)*100)
	return nil
}

func printCostFig(cfg experiments.MarketConfig, fig int, hours float64, samples int) error {
	avgs, err := experiments.RunSchemes(cfg, hours, samples)
	if err != nil {
		return err
	}
	fmt.Printf("Figure %d: %.0f-hour jobs, %d start points\n", fig, hours, samples)
	fmt.Printf("%-22s %16s %14s %12s\n", "scheme", "cost (% of OD)", "runtime (hrs)", "evictions")
	var od, ck, pr experiments.SchemeAverage
	for _, a := range avgs {
		fmt.Printf("%-22s %15.1f%% %14.2f %12.1f  %s\n",
			a.Scheme, a.CostPercentOD, a.Runtime.Hours(), a.Evictions,
			experiments.AsciiBar(a.CostPercentOD, 100, 30))
		switch a.Scheme {
		case experiments.SchemeOnDemand:
			od = a
		case experiments.SchemeStandardCheckpoint:
			ck = a
		case experiments.SchemeProteus:
			pr = a
		}
	}
	fmt.Printf("\nProteus: %.0f%% cheaper than on-demand, %.0f%% cheaper and %.0f%% faster than standard+checkpoint\n",
		(1-pr.Cost/od.Cost)*100, (1-pr.Cost/ck.Cost)*100,
		(1-pr.Runtime.Hours()/ck.Runtime.Hours())*100)
	return nil
}

func printFig10(cfg experiments.MarketConfig, samples int) error {
	rows, err := experiments.Fig10(cfg, samples)
	if err != nil {
		return err
	}
	fmt.Println("Figure 10: machine-hours by category (2-hour jobs)")
	fmt.Printf("%-22s %12s %12s %12s %10s\n", "scheme", "on-demand", "spot", "free", "free %")
	for _, r := range rows {
		total := r.OnDemand + r.Spot + r.Free
		freePct := 0.0
		if total > 0 {
			freePct = r.Free / total * 100
		}
		fmt.Printf("%-22s %12.1f %12.1f %12.1f %9.1f%%\n",
			r.Scheme, r.OnDemand, r.Spot, r.Free, freePct)
	}
	return nil
}

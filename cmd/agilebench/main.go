// Command agilebench reproduces the AgileML architecture studies of the
// paper's §6.4–§6.6: the three functionality-partitioning stages
// (Figs. 11–14), strong scaling (Fig. 15), and the elasticity timeline
// with a bulk addition and a bulk eviction (Fig. 16).
//
// Usage:
//
//	agilebench -fig 11    # stage 1: time/iter vs #ParamServs
//	agilebench -fig 12    # stage 2: time/iter vs #ActivePSs
//	agilebench -fig 13    # stage 3 at 63:1
//	agilebench -fig 14    # stage 2 vs 3 at 1:1
//	agilebench -fig 15    # LDA strong scaling, 4–64 machines
//	agilebench -fig 16    # functional elasticity timeline (45 iterations)
package main

import (
	"flag"
	"fmt"
	"log"

	"proteus/internal/agileml"
	"proteus/internal/experiments"
	"proteus/internal/obs"
	"proteus/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("agilebench: ")
	fig := flag.Int("fig", 11, "figure to reproduce (11-16)")
	seed := flag.Int64("seed", 3, "dataset seed for the functional run")
	sweep := flag.Bool("sweep", false, "sweep stages across ratios and auto-tune thresholds (§3.3 future work)")
	metricsOut := flag.String("metrics-out", "", "with -fig 16, write Prometheus text metrics to this file")
	traceOut := flag.String("trace-out", "", "with -fig 16, write the JSONL span trace to this file")
	flag.Parse()

	if *sweep {
		if err := printSweep(); err != nil {
			log.Fatal(err)
		}
		return
	}
	switch *fig {
	case 11:
		printBars("Figure 11: AgileML stage 1 (MF, 64 machines)", experiments.Fig11())
	case 12:
		printBars("Figure 12: AgileML stage 2 (MF, 4 reliable + 60 transient)", experiments.Fig12())
	case 13:
		printBars("Figure 13: AgileML stage 3 (MF, 1 reliable + 63 transient)", experiments.Fig13())
	case 14:
		printBars("Figure 14: stage 2 vs stage 3 (8 reliable + 8 transient)", experiments.Fig14())
	case 15:
		printFig15()
	case 16:
		if err := printFig16(*seed, *metricsOut, *traceOut); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown figure %d (agilebench reproduces 11-16)", *fig)
	}
}

func printSweep() error {
	th, points, err := agileml.TuneThresholds(perfmodel.ClusterA(), perfmodel.MFNetflix(), 64)
	if err != nil {
		return err
	}
	fmt.Println("stage sweep (MF on Cluster-A, 64 machines): seconds per iteration")
	fmt.Printf("%10s %10s %10s %10s %10s\n", "reliable", "ratio", "stage1", "stage2", "stage3")
	for _, p := range points {
		fmt.Printf("%10d %10.1f %10.2f %10.2f %10.2f\n", p.Reliable, p.Ratio, p.Stage1, p.Stage2, p.Stage3)
	}
	fmt.Printf("\nauto-tuned thresholds: stage2 above %.1f:1, stage3 above %.1f:1 (paper hand-tuned: 1:1, 15:1)\n",
		th.Stage2, th.Stage3)
	return nil
}

func printBars(title string, bars []experiments.Bar) {
	fmt.Println(title)
	max := 0.0
	for _, b := range bars {
		if b.Value > max {
			max = b.Value
		}
	}
	fmt.Printf("%-26s %18s\n", "configuration", "time/iter (sec)")
	for _, b := range bars {
		fmt.Printf("%-26s %18.2f  %s\n", b.Label, b.Value, experiments.AsciiBar(b.Value, max, 40))
	}
}

func printFig15() {
	rows := experiments.Fig15()
	fmt.Println("Figure 15: AgileML scalability for LDA (time per iteration)")
	fmt.Printf("%10s %14s %14s\n", "machines", "AgileML (s)", "ideal (s)")
	for _, r := range rows {
		fmt.Printf("%10d %14.2f %14.2f\n", r.Machines, r.AgileML, r.Ideal)
	}
}

func printFig16(seed int64, metricsOut, traceOut string) error {
	var o *obs.Observer
	if metricsOut != "" || traceOut != "" {
		o = obs.NewObserver(nil)
	}
	points, err := experiments.Fig16Observed(45, seed, o)
	if err != nil {
		return err
	}
	fmt.Println("Figure 16: elasticity timeline (MF; +60 transient @ iter 11, evict @ iter 35)")
	fmt.Printf("%6s %10s %10s %8s %10s\n", "iter", "time (s)", "machines", "stage", "objective")
	max := 0.0
	for _, p := range points {
		if p.Seconds > max {
			max = p.Seconds
		}
	}
	for _, p := range points {
		marker := ""
		switch p.Iteration {
		case 11:
			marker = "  <- 60 transient machines added"
		case 35:
			marker = "  <- 60 transient machines evicted (13% blip)"
		}
		fmt.Printf("%6d %10.2f %10d %8s %10.4f  %s%s\n",
			p.Iteration, p.Seconds, p.Machines, p.Stage, p.Objective,
			experiments.AsciiBar(p.Seconds, max, 30), marker)
	}
	return obs.WriteFiles(o, metricsOut, traceOut)
}

package main

import (
	"fmt"

	"proteus/internal/experiments"
	"proteus/internal/sched"
)

// runProactive runs the reactive-vs-proactive comparison: the same
// tenant mix once on a scheduler that only reacts to the market's
// 2-minute eviction warnings, and once with the online forecaster
// pre-draining state and pre-acquiring replacements ahead of predicted
// evictions.
func runProactive(cfg experiments.MarketConfig, jobs []sched.Job) error {
	study, err := experiments.RunProactive(cfg, jobs, nil)
	if err != nil {
		return err
	}

	fmt.Printf("Predictive eviction: %d jobs, reactive vs. proactive over the same price history\n\n", len(jobs))
	fmt.Println("proactive arm:")
	printJobTable(study.Proactive.Jobs)
	fst := study.Forecast
	fmt.Printf("\nforecaster: %d price ticks, %d spike onsets, %d predictions scored (Brier %.3f)\n",
		fst.Updates, fst.Onsets, fst.Predictions, fst.BrierScore)
	fmt.Printf("pre-drains: %d (%d hit, %d false positive — %.0f%% hit rate), pre-acquires: %d\n",
		fst.PreDrains, fst.PreDrainHits, fst.FalsePositiveDrains, 100*fst.HitRate(), fst.PreAcquires)
	fmt.Printf("\nreactive:  $%.2f net (makespan %.1fh, %.1f free hrs)\n",
		study.ReactiveNet, study.ReactiveMakespanH, study.Reactive.Usage.FreeHours)
	fmt.Printf("proactive: $%.2f net (makespan %.1fh, %.1f free hrs)\n",
		study.ProactiveNet, study.ProactiveMakespanH, study.Proactive.Usage.FreeHours)
	fmt.Printf("draining ahead of predicted evictions saves %.0f%% of the reactive bill\n", study.Saving*100)
	return nil
}

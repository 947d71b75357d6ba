package experiments

import (
	"encoding/json"
	"testing"

	"proteus/internal/sched"
)

func smokeProactiveCfg() MarketConfig {
	return MarketConfig{Seed: 1, EvalDays: 14, TrainDays: 20, BetaSamples: 200}
}

// TestRunProactiveSmoke runs the study on the smoke seed, on the tests'
// small market and on the one `proteus -proactive` runs by default.
func TestRunProactiveSmoke(t *testing.T) {
	for name, cfg := range map[string]MarketConfig{"small": smokeProactiveCfg(), "cli default": DefaultMarketConfig()} {
		t.Run(name, func(t *testing.T) { proactiveSmoke(t, cfg) })
	}
}

func proactiveSmoke(t *testing.T, cfg MarketConfig) {
	study, err := RunProactive(cfg, SyntheticJobs(8, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []sched.Result{study.Reactive, study.Proactive} {
		if len(arm.Jobs) != 8 {
			t.Fatalf("arm reported %d jobs", len(arm.Jobs))
		}
		for _, jr := range arm.Jobs {
			if jr.State != sched.Done {
				t.Fatalf("job %d finished in state %v", jr.Job.ID, jr.State)
			}
		}
	}
	fst := study.Forecast
	if !fst.Enabled {
		t.Fatal("proactive arm reported a disabled forecaster")
	}
	if fst.Updates == 0 {
		t.Fatal("forecaster saw no price updates")
	}
	t.Logf("reactive net $%.2f, proactive net $%.2f (saving %.1f%%)",
		study.ReactiveNet, study.ProactiveNet, 100*study.Saving)
	t.Logf("forecast: %d pre-drains, %d hits (%.0f%% hit rate), %d false positives, %d pre-acquires, brier %.3f",
		fst.PreDrains, fst.PreDrainHits, 100*fst.HitRate(), fst.FalsePositiveDrains, fst.PreAcquires, fst.BrierScore)

	// Acceptance: on the smoke seed the forecaster must actually act, and
	// at least 80% of the machines it drains must go on to be evicted.
	if fst.PreDrains == 0 {
		t.Fatal("proactive arm never pre-drained on the smoke seed")
	}
	if hr := fst.HitRate(); hr < 0.8 {
		t.Fatalf("pre-drain hit rate %.2f < 0.80 (%d/%d)", hr, fst.PreDrainHits, fst.PreDrains)
	}
	// And being early must not cost more than scrambling late.
	if study.ProactiveNet > study.ReactiveNet {
		t.Fatalf("proactive arm net $%.2f exceeds reactive $%.2f",
			study.ProactiveNet, study.ReactiveNet)
	}
}

// TestRunProactiveDeterministic asserts the study — bills, per-job
// results, and every forecaster counter — is bit-identical whether the
// arms run serially or fan out over 8 workers.
func TestRunProactiveDeterministic(t *testing.T) {
	got := make([]*ProactiveStudy, 2)
	for i, workers := range []int{1, 8} {
		cfg := smokeProactiveCfg()
		cfg.Parallel = workers
		study, err := RunProactive(cfg, SyntheticJobs(8, 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = study
	}
	a, err := json.Marshal(got[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got[1])
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("workers=1 and workers=8 diverge:\n%s\n---\n%s", a, b)
	}
}

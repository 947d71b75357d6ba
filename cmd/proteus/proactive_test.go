package main

import (
	"os"
	"strings"
	"testing"

	"proteus/internal/experiments"
)

// TestProactiveStudyPrints: `proteus -proactive` on its defaults — seed
// 1, eight synthetic tenants — runs both arms and prints the study: the
// proactive arm's job table, the forecaster's tally and the two bills.
func TestProactiveStudyPrints(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	cfg := experiments.DefaultMarketConfig()
	cfg.Seed = 1
	err = runProactive(cfg, experiments.SyntheticJobs(8, cfg.Seed))
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Predictive eviction: 8 jobs, reactive vs. proactive",
		"tenant-7",
		"\nforecaster: ",
		"\npre-drains: ",
		"\nreactive:  $",
		"\nproactive: $",
		"\ndraining ahead of predicted evictions saves ",
	} {
		if !strings.Contains(string(printed), want) {
			t.Errorf("the study printed no %q:\n%s", want, printed)
		}
	}
}

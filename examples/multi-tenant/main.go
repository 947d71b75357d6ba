// Multi-tenant: eight jobs with mixed priorities and deadlines share one
// BidBrain-managed footprint over a synthetic market day.
//
// The internal/sched control plane admits the jobs as they arrive,
// leases allocations from a shared broker, rebalances cores between
// tenants under the fair-share policy, and hands end-of-billing-hour
// capacity freed by finishing jobs to whoever can still use it. The
// program prints each tenant's wait, runtime, and pro-rata cost, the
// shared-footprint utilization timeline, and the bill the same mix would
// have paid running serially back-to-back.
//
//	go run ./examples/multi-tenant
package main

import (
	"fmt"
	"log"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/core"
	"proteus/internal/experiments"
	"proteus/internal/sched"
)

func main() {
	log.SetFlags(0)

	// Eight tenants submit during the morning of one market day:
	// arrivals within the first three hours, priorities 0-2, two jobs
	// with completion deadlines. Sizes range from half an hour to four
	// hours of work for 256 spot cores — about 20 footprint-hours of
	// demand, so the mix genuinely competes for the shared pool and a
	// serial schedule would run deep into the night.
	params := bidbrain.DefaultParams()
	spec := func(hours float64) core.JobSpec {
		return core.JobSpec{
			TargetWork:    params.Phi * 256 * hours,
			Params:        params,
			ReliableType:  "c4.xlarge",
			ReliableCount: 3,
			MaxSpotCores:  256,
			ChunkCores:    128,
		}
	}
	jobs := []sched.Job{
		{ID: 0, Name: "nightly-etl", Spec: spec(2.0), Arrival: 0, Priority: 2},
		{ID: 1, Name: "mf-train", Spec: spec(4.0), Arrival: 10 * time.Minute, Priority: 1},
		{ID: 2, Name: "lda-topics", Spec: spec(3.0), Arrival: 30 * time.Minute, Priority: 0},
		{ID: 3, Name: "report", Spec: spec(0.5), Arrival: 1 * time.Hour, Priority: 2, Deadline: 6 * time.Hour},
		{ID: 4, Name: "backfill", Spec: spec(4.0), Arrival: 90 * time.Minute, Priority: 0},
		{ID: 5, Name: "ab-test", Spec: spec(2.0), Arrival: 2 * time.Hour, Priority: 1},
		{ID: 6, Name: "embeddings", Spec: spec(3.0), Arrival: 150 * time.Minute, Priority: 1},
		{ID: 7, Name: "eod-scoring", Spec: spec(1.0), Arrival: 3 * time.Hour, Priority: 2, Deadline: 23 * time.Hour},
	}

	cfg := experiments.MarketConfig{Seed: 1, EvalDays: 4, TrainDays: 20, BetaSamples: 200}
	study, err := experiments.RunMultiTenant(cfg, jobs, sched.FairShare{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("multi-tenant: 8 jobs over one market day, one shared footprint (fair-share)")
	fmt.Printf("\n%-4s %-12s %4s %10s %10s %10s %9s\n",
		"id", "name", "prio", "wait(m)", "run(h)", "cost($)", "deadline")
	for _, jr := range study.Concurrent.Jobs {
		deadline := "-"
		if jr.Job.Deadline > 0 {
			if jr.MetDeadline {
				deadline = "met"
			} else {
				deadline = "MISSED"
			}
		}
		fmt.Printf("%-4d %-12s %4d %10.1f %10.2f %10.2f %9s\n",
			jr.Job.ID, jr.Job.Name, jr.Job.Priority,
			jr.Wait.Minutes(), jr.Runtime.Hours(), jr.Cost, deadline)
	}

	// The timeline records every lease change; sample it hourly to show
	// how the shared footprint breathes as tenants come and go.
	fmt.Printf("\nshared footprint utilization (leased spot cores by hour):\n")
	end := study.Concurrent.Makespan
	maxCores := 0
	for _, p := range study.Concurrent.Timeline {
		if p.LeasedCores > maxCores {
			maxCores = p.LeasedCores
		}
	}
	for at := time.Duration(0); at <= end; at += time.Hour {
		sample := sched.UtilPoint{}
		for _, p := range study.Concurrent.Timeline {
			if p.At > at {
				break
			}
			sample = p
		}
		fmt.Printf("%5.0fh %4d cores %2d running %2d queued  %s\n",
			at.Hours(), sample.LeasedCores, sample.Running, sample.Queued,
			experiments.AsciiBar(float64(sample.LeasedCores), float64(maxCores), 32))
	}

	fmt.Printf("\nconcurrent bill: $%.2f net, makespan %.1fh, %d rebalances, %.1f free machine-hours\n",
		study.ConcurrentNet, study.Concurrent.Makespan.Hours(),
		study.Concurrent.Rebalances, study.Concurrent.Usage.FreeHours)
	fmt.Printf("serial bill:     $%.2f net, makespan %.1fh\n",
		study.SerialNet, study.Serial.Makespan.Hours())
	fmt.Printf("sharing the footprint saves %.0f%% of the serial bill\n", study.Saving*100)
}

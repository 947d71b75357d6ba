package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/core"
	"proteus/internal/dataset"
	"proteus/internal/experiments"
	"proteus/internal/ml/mf"
	"proteus/internal/obs"
	"proteus/internal/perfmodel"
	"proteus/internal/sim"
)

// buildLiveConfig assembles the standard full-stack job: a real MF model
// training on machines BidBrain acquires from the simulated market.
func buildLiveConfig(seed int64, iterations int, o *obs.Observer) core.LiveConfig {
	data := dataset.GenerateMF(dataset.MFConfig{
		Users: 120, Items: 90, Rank: 5, Observed: 2000, Noise: 0.02,
	}, seed)
	return core.LiveConfig{
		Observer:         o,
		App:              mf.New(mf.DefaultConfig(5), data),
		Iterations:       iterations,
		ReliableType:     "c4.xlarge",
		ReliableCount:    3,
		MaxSpotInstances: 32,
		ChunkInstances:   8,
		Params:           defaultParams(),
		Workload:         perfmodel.MFNetflix(),
		Cluster:          perfmodel.ClusterA(),
		Staleness:        1,
	}
}

// liveRun executes one full-stack pass under the observer: the engine
// clock stamps metrics and spans, the engine's queue is sampled, and a
// real MF model trains on machines BidBrain acquires from the simulated
// market, with eviction warnings flowing through the AgileML elasticity
// controller. The cost simulation runs it once, quietly, before
// exporting: on its own it never touches the AgileML or parameter-server
// layers, so the exports would miss those metric families and spans.
func liveRun(cfg experiments.MarketConfig, iterations int, o *obs.Observer) (core.LiveResult, error) {
	cfg.Observer = o
	env, err := experiments.NewEnv(cfg, defaultParams())
	if err != nil {
		return core.LiveResult{}, err
	}
	o.SetClock(env.Engine.Now)
	sim.InstrumentEngine(o.Reg(), env.Engine, time.Minute)
	return core.RunLive(env.Engine, env.Market, env.Brain, buildLiveConfig(cfg.Seed, iterations, o))
}

// writeNarrative prints the run's decisions: one line per finished span,
// in completion order, stamped with the span's end. The parameter-server
// layer's per-partition spans are left to -trace-out; every other line
// of that file appears here, in the same order.
func writeNarrative(w io.Writer, spans []obs.SpanData) error {
	for _, sp := range spans {
		if sp.Component == "ps" {
			continue
		}
		if _, err := fmt.Fprintf(w, "%10s  %-8s  %-16s  %s\n",
			sp.End.Round(time.Second), sp.Component, sp.Name, sp.Detail); err != nil {
			return err
		}
	}
	return nil
}

// runLive prints the full-stack run: its result, then the decisions that
// led there, read from the observer's span stream.
func runLive(ctx context.Context, cfg experiments.MarketConfig, iterations int, o *obs.Observer, oo obsOutputs) error {
	httpDone, err := oo.serve(ctx, o)
	if err != nil {
		return err
	}
	res, err := liveRun(cfg, iterations, o)
	if err != nil {
		return err
	}
	fmt.Printf("live run: %d iterations in %v (virtual), $%.2f, %d evictions, %d recoveries\n",
		res.Iterations, res.Runtime.Round(1e9), res.Cost, res.Evictions, res.Recoveries)
	fmt.Printf("final MF objective (RMSE): %.4f\n\n", res.Objective)
	fmt.Printf("%6s %10s %10s %8s\n", "iter", "time (s)", "machines", "stage")
	for i, p := range res.Timeline {
		if i%5 != 0 && i != len(res.Timeline)-1 {
			continue
		}
		fmt.Printf("%6d %10.1f %10d %8s\n", p.Iteration, p.Seconds, p.Machines, p.Stage)
	}
	fmt.Println("\ndecision narrative:")
	if err := writeNarrative(os.Stdout, o.Trace().Spans()); err != nil {
		return err
	}
	if err := oo.write(o); err != nil {
		return err
	}
	if httpDone != nil {
		log.Printf("metrics server stays up until ctrl-c")
		if err := <-httpDone; err != nil {
			return err
		}
	}
	return nil
}

// defaultParams returns the default BidBrain parameters (helper keeps
// market environment and the live job).
func defaultParams() bidbrain.Params { return bidbrain.DefaultParams() }

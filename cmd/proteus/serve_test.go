package main

import (
	"math"
	"runtime"
	"testing"

	"proteus/internal/bidbrain"
	"proteus/internal/experiments"
	"proteus/internal/jobspec"
	"proteus/internal/obs"
	"proteus/internal/sched"
	"proteus/internal/wal"
)

// Heap fixture: a sparse-long-shaped mix (few long jobs, two or three
// running at once, so the scheduler's history grows per virtual hour,
// not per job) of heapMixJobs jobs of 19-76 h, one every 20 virtual
// hours. One copy spans about 1,200 virtual hours, enough to fill
// -serve's default span retention and the timeline's full-resolution
// window; four copies end to end fit heapMixDays.
const (
	heapMixJobs = 60
	heapMixDays = 220
	// heapJobRowBytes is what the 4× run may keep per extra job: the
	// job's scheduler record, index entries and result row.
	heapJobRowBytes = 1 << 10
	// heapAllocRowBytes is what it may keep per extra market allocation:
	// Market.Allocations() returns every allocation ever made, so each
	// stays as a 160-byte record plus its map entry.
	heapAllocRowBytes = 256
)

// heapMix lays copies of the fixture end to end on the virtual clock,
// the way the benchmark's repeatMix does: copy c takes IDs c·n.. and
// arrives one whole arrival span after copy c-1.
func heapMix(t *testing.T, copies int) []sched.Job {
	t.Helper()
	const first, every = 60.0, 1200.0 // arrival minutes
	span := first + every*(heapMixJobs-1)
	var entries []jobspec.Entry
	for c := 0; c < copies; c++ {
		for i := 0; i < heapMixJobs; i++ {
			_, size := math.Modf(float64(i) * 0.6180339887)
			id := c*heapMixJobs + i
			entries = append(entries, jobspec.Entry{
				ID:             &id,
				Hours:          19 + 57*size,
				ArrivalMinutes: first + every*float64(i) + float64(c)*span,
				Priority:       i % 3,
			})
		}
	}
	jobs, err := jobspec.Jobs(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// serveHeap runs the mix through a scheduler assembled with -serve's
// defaults (observer, write-ahead log, fair policy) and returns the live
// heap it leaves after the drain, measured after runtime.GC from just
// before the scheduler is built, so the market environment is outside
// it, and how many allocations the market made.
func serveHeap(t *testing.T, jobs []sched.Job) (heap uint64, allocs int) {
	t.Helper()
	cfg := experiments.DefaultMarketConfig()
	cfg.EvalDays = heapMixDays
	o := obs.NewObserver(nil)
	cfg.Observer = o
	env, err := experiments.NewEnv(cfg, bidbrain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	policy, err := sched.PolicyByName("fair")
	if err != nil {
		t.Fatal(err)
	}
	so := defaultServeOptions()
	so.walDir = t.TempDir()
	wlog, _, err := openWAL(so, wal.Meta{Seed: cfg.Seed, EvalDays: cfg.EvalDays, TrainDays: cfg.TrainDays,
		BetaSamples: cfg.BetaSamples, Zones: cfg.Zones, Policy: policy.Name()})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sc, err := newServeScheduler(env, o, policy, so, wlog, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := sc.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("%d of %d jobs in the result", len(res.Jobs), len(jobs))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sc)
	runtime.KeepAlive(res)
	runtime.KeepAlive(env)
	return after.HeapAlloc - before.HeapAlloc, len(env.Market.Allocations())
}

// TestServeHeapFlatWithUptime: what a -serve process keeps after a
// drain must not grow with how long it ran. The same mix laid end to
// end four times may leave at most 1.25× the heap of one copy, plus one
// row per extra job and per extra market allocation.
func TestServeHeapFlatWithUptime(t *testing.T) {
	one, allocsOne := serveHeap(t, heapMix(t, 1))
	four, allocsFour := serveHeap(t, heapMix(t, 4))
	rows := uint64(3*heapMixJobs*heapJobRowBytes + (allocsFour-allocsOne)*heapAllocRowBytes)
	limit := one + one/4 + rows
	t.Logf("live heap after the drain: 1× %.1f MiB, 4× %.1f MiB (limit %.1f MiB, of which %.1f MiB for %d extra jobs and %d extra allocations)",
		float64(one)/(1<<20), float64(four)/(1<<20), float64(limit)/(1<<20),
		float64(rows)/(1<<20), 3*heapMixJobs, allocsFour-allocsOne)
	if four > limit {
		t.Errorf("4× the uptime leaves %.1f MiB live, 1× leaves %.1f MiB: over 1.25× plus the extra rows",
			float64(four)/(1<<20), float64(one)/(1<<20))
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"proteus/internal/jobspec"
)

// marketSeed and marketDays are part of every workload's definition: the
// price history the server synthesises is the same in every run, and
// -seed varies only the job mix posted to it. A run-to-run comparison
// across seeds then compares the same market, not thirty different ones.
const (
	marketSeed = 1
	marketDays = 730
)

// firstArrivalMin is the earliest arrival_minutes any generated job
// carries. Life A posts the whole set at -speedup 60 (one virtual minute
// per wall second), so an hour of virtual lead means no arrival is ever
// clamped to "now" and the virtual history is a function of the seed alone.
const firstArrivalMin = 60

// postBatch is how many entries one bulk POST carries.
const postBatch = 250

// workload is one job mix plus the server flags it runs under.
type workload struct {
	name string
	why  string
	// jobs is the frozen size: tuned so Life A's drain lands at 3–5 s on a
	// 2-core box, then fixed, because every timing metric scales with it.
	jobs          int
	policy        string
	maxConcurrent int
	forecast      bool
	// entry fills job i of the mix. size in [0,1), prio and coin are that
	// job's share of its block's strata (see generate).
	entry func(i int, size float64, prio int, coin bool) jobspec.Entry
}

var workloads = []workload{
	{
		name: "dense-short",
		why: "many short jobs outrun capacity: cost is per job (decode, Submit, submit records, " +
			"a deep admission queue, 64-way rebalances)",
		jobs: 6000, policy: "fair", maxConcurrent: 64,
		entry: func(i int, size float64, prio int, _ bool) jobspec.Entry {
			return jobspec.Entry{
				Hours:          0.5 + 1.5*size,
				ArrivalMinutes: firstArrivalMin + 2*float64(i),
				Priority:       prio,
			}
		},
	},
	{
		name: "sparse-long",
		why: "few long jobs, 2-3 running at once: cost is per virtual hour (decision tick, price poll, " +
			"BidBrain, audit records); the submit path does almost nothing",
		jobs: 220, policy: "fair", maxConcurrent: 64,
		entry: func(i int, size float64, prio int, _ bool) jobspec.Entry {
			return jobspec.Entry{
				Hours:          19 + 57*size,
				ArrivalMinutes: firstArrivalMin + 1200*float64(i),
				Priority:       prio,
			}
		},
	},
	{
		name: "proactive-deadline",
		why: "bursts of proactive jobs, half with deadlines about 70% of which can be met, under -forecast -policy deadline: " +
			"deadline-urgent admission, forecaster feed and pre-drain, which a tick shortcut could skip",
		// Ten jobs every 16 virtual hours offer slightly more work than the
		// footprint clears, so the queue grows slowly and deadlines of four
		// times a job's length are met about seven times in ten: the deadline
		// policy has real choices to make. (Hourly bursts overload the pool
		// seventeen-fold and miss 99.7 % of them whatever the policy does.)
		jobs: 2200, policy: "deadline", maxConcurrent: 32, forecast: true,
		entry: func(i int, size float64, prio int, coin bool) jobspec.Entry {
			e := jobspec.Entry{
				Hours:          1 + 5*size,
				ArrivalMinutes: firstArrivalMin + 16*60*float64(i/10),
				Priority:       prio,
				Proactive:      true,
			}
			if coin {
				e.DeadlineHours = e.ArrivalMinutes/60 + 4*e.Hours
			}
			return e
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// genBlock is the generator's stratum: every run of genBlock consecutive
// jobs carries the same sizes, priorities and number of deadlines
// whatever the seed, which only shuffles them within the run.
const genBlock = 10

// generate builds the workload's job mix from the seed. Sizes are not
// independent draws: each block of genBlock consecutive jobs gets sizes
// spaced evenly over the size range (offset a little from block to block
// so the mix covers the range densely), a fixed rotation of priorities
// and genBlock/2 deadline coins, and the seed shuffles each of them
// within the block. Every seed therefore submits the same work, priority
// mix and deadline count, hour by virtual hour, in a different order:
// seeds differ in scheduling history, which is what a load generator
// should vary, without moving the amount of work the timed phases do or
// when it arrives.
func (w workload) generate(seed int64) []jobspec.Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]jobspec.Entry, 0, w.jobs)
	for b := 0; len(out) < w.jobs; b++ {
		m := genBlock
		if left := w.jobs - len(out); left < m {
			m = left
		}
		sizes, prios, coins := rng.Perm(m), rng.Perm(m), rng.Perm(m)
		_, phase := math.Modf(float64(b) * 0.6180339887)
		for k := 0; k < m; k++ {
			id := len(out)
			e := w.entry(id, (float64(sizes[k])+phase)/float64(m), (prios[k]+b)%3, coins[k] < m/2)
			e.ID = &id
			out = append(out, e)
		}
	}
	return out
}

// lifeBCopies is how many back-to-back copies of the mix Life B preloads:
// the engine runs unpaced there and must still be busy when the
// closed-loop window ends, so it is given more virtual history than the
// window can consume.
const lifeBCopies = 2

// repeatMix lays copies of the mix end to end on the virtual clock: copy
// c keeps every field but takes IDs c·n.. and arrives (and is due) one
// whole arrival span later than copy c-1.
func repeatMix(entries []jobspec.Entry, copies int) []jobspec.Entry {
	n := len(entries)
	spanMin := entries[n-1].ArrivalMinutes - entries[0].ArrivalMinutes + firstArrivalMin
	out := make([]jobspec.Entry, 0, n*copies)
	for c := 0; c < copies; c++ {
		for _, e := range entries {
			id := *e.ID + c*n
			e.ID = &id
			e.ArrivalMinutes += float64(c) * spanMin
			if e.DeadlineHours > 0 {
				e.DeadlineHours += float64(c) * spanMin / 60
			}
			out = append(out, e)
		}
	}
	return out
}

// coreHours is the work an entry asks for, in core-hours.
func coreHours(entries []jobspec.Entry) float64 {
	var h float64
	for _, e := range entries {
		h += e.Hours
	}
	return h * jobspec.BaseCores
}

// postBodies renders the mix as the JSON arrays the bulk POSTs carry,
// postBatch entries each. The server sees only these bytes.
func postBodies(entries []jobspec.Entry) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(entries); lo += postBatch {
		hi := lo + postBatch
		if hi > len(entries) {
			hi = len(entries)
		}
		b, err := json.Marshal(entries[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("encode jobs %d-%d: %w", lo, hi, err)
		}
		out = append(out, b)
	}
	return out, nil
}

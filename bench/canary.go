package main

import (
	"container/heap"
	"time"
)

// The box this benchmark runs on does not hold its speed. A pure
// computation that touches no program code takes 165–300 ms from one
// call to the next, and over minutes the whole machine moves between
// regimes about 30 % apart (the same drain took 3.0–3.3 s in one half
// hour and 4.0–4.4 s in another). In-run repetition removes the first;
// nothing inside a run removes the second, and a run cannot outlast it.
//
// So the benchmark times a fixed computation of its own, the canary,
// just before and just after each of the two long CPU-bound phases, drain
// and recover, and reports each phase at the speed of a reference machine
// on which one canary chunk takes canaryNominal: wall seconds times
// canaryNominal over the median chunk time around that phase.
const (
	canaryIters  = 200000 // one chunk, ≈ 100 ms on the box the benchmark was written on
	canaryChunks = 6      // chunks timed in one reading
	// canaryNominal is the chunk time of the reference machine.
	canaryNominal = 100 * time.Millisecond
	// refSeconds is the unit of a time scaled to the reference machine,
	// which is not a wall-clock second of the machine that measured it.
	refSeconds = "s_ref"
)

// canaryReading times canaryChunks chunks and returns their seconds.
func canaryReading() []float64 {
	out := make([]float64, canaryChunks)
	for i := range out {
		out[i] = seconds(canary())
	}
	return out
}

// timedPhase is one CPU-bound phase with the canary chunks timed just
// before and just after it.
type timedPhase struct {
	wall   float64   // seconds
	around []float64 // seconds per chunk
}

func bracket(wall time.Duration, before, after []float64) timedPhase {
	return timedPhase{seconds(wall), append(append([]float64(nil), before...), after...)}
}

// atReference scales the phase's wall seconds to the reference machine,
// by the median of the chunks around it (one chunk in ten is an outlier
// of 1.5–2.5×, which a mean would carry into the result).
func (p timedPhase) atReference() float64 {
	if len(p.around) == 0 {
		return p.wall
	}
	return p.wall * canaryNominal.Seconds() / median(p.around)
}

func atReference(ps []timedPhase) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.atReference()
	}
	return out
}

func walls(ps []timedPhase) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

// chunks is every canary chunk timed around the given phases: their
// median says how fast the machine was while the run measured.
func chunks(sets ...[]timedPhase) []float64 {
	var out []float64
	for _, ps := range sets {
		for _, p := range ps {
			out = append(out, p.around...)
		}
	}
	return out
}

type canaryEvent struct {
	at  int64
	seq int
	pay *[8]int64
}

type canaryHeap []*canaryEvent

func (h canaryHeap) Len() int { return len(h) }
func (h canaryHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h canaryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *canaryHeap) Push(x interface{}) { *h = append(*h, x.(*canaryEvent)) }
func (h *canaryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

var canarySink int64

// canary times a fixed amount of the kind of work a discrete-event
// scheduler does — heap churn, small allocations, map updates — that
// depends on nothing in the program under test.
func canary() time.Duration {
	t0 := time.Now()
	var h canaryHeap
	m := map[int]*canaryEvent{}
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := 0; i < 4096; i++ {
		e := &canaryEvent{at: int64(next() % 1e6), seq: i, pay: new([8]int64)}
		heap.Push(&h, e)
		m[i] = e
	}
	for i := 0; i < canaryIters; i++ {
		e := heap.Pop(&h).(*canaryEvent)
		canarySink += e.pay[i&7]
		ne := &canaryEvent{at: e.at + int64(next()%1e4), seq: 4096 + i, pay: new([8]int64)}
		ne.pay[i&7] = int64(i)
		heap.Push(&h, ne)
		m[int(next()%4096)] = ne
	}
	return time.Since(t0)
}

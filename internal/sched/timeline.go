package sched

import "time"

// timelineWindow is how many of the newest utilization points the
// timeline keeps at full resolution. It is a constant, not a setting:
// large enough that every committed output (the goldens, the examples,
// EXPERIMENTS.md) is a run that never folds, and small enough that the
// fine tier stays at most 2·4,096·40 bytes = 320 KiB.
const timelineWindow = 4096

// utilTimeline is a run's utilization history in two tiers. fine holds
// the newest points as flushed; once it reaches 2·timelineWindow
// points, the oldest timelineWindow fold into coarse, one point per
// virtual hour holding that hour's maxima. Memory is then fixed in the
// fine tier and one point per virtual hour in the coarse one, and each
// point is copied at most twice (once folding, once shifting the tail),
// so adding is amortised O(1). Every point still reaches the event
// stream once, as it is flushed; only what is kept for replay folds.
type utilTimeline struct {
	// coarse holds one point per virtual hour, At on the hour, each
	// field the maximum over the fine points folded into it; oldest
	// first, At strictly increasing.
	coarse []UtilPoint
	// fine holds the newest points at full resolution, oldest first.
	// Every fine point is later than every coarse one.
	fine []UtilPoint
}

func (tl *utilTimeline) add(p UtilPoint) {
	tl.fine = append(tl.fine, p)
	if len(tl.fine) == 2*timelineWindow {
		tl.fold()
	}
}

// fold moves the oldest timelineWindow fine points into coarse. A point
// in the hour of the last coarse point (the hour the previous fold
// ended in) merges into it, so coarse keeps one point per hour.
func (tl *utilTimeline) fold() {
	for _, p := range tl.fine[:timelineWindow] {
		hour := p.At.Truncate(time.Hour)
		if n := len(tl.coarse); n > 0 && tl.coarse[n-1].At == hour {
			c := &tl.coarse[n-1]
			c.LeasedCores = max(c.LeasedCores, p.LeasedCores)
			c.IdleCores = max(c.IdleCores, p.IdleCores)
			c.Running = max(c.Running, p.Running)
			c.Queued = max(c.Queued, p.Queued)
			continue
		}
		p.At = hour
		tl.coarse = append(tl.coarse, p)
	}
	tl.fine = tl.fine[:copy(tl.fine, tl.fine[timelineWindow:])]
}

// points returns a copy of what is kept: the coarse tier, then the fine
// one; nil when nothing is.
func (tl *utilTimeline) points() []UtilPoint {
	n := len(tl.coarse) + len(tl.fine)
	if n == 0 {
		return nil
	}
	out := make([]UtilPoint, 0, n)
	return append(append(out, tl.coarse...), tl.fine...)
}

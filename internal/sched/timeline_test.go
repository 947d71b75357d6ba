package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// checkTiered compares what a utilTimeline keeps against every point it
// was handed, in order (the reference keeps them all): the fine tier is
// the reference's tail as handed; each coarse point is the per-hour
// maxima of the earlier points, At on the hour; At strictly increases
// across both tiers and the fold boundary between them.
func checkTiered(t *testing.T, what string, tl *utilTimeline, all []UtilPoint) {
	t.Helper()
	if len(tl.fine) >= 2*timelineWindow || (len(tl.coarse) > 0 && len(tl.fine) < timelineWindow) {
		t.Fatalf("%s: %d fine points, want < %d, and >= %d once folded", what, len(tl.fine), 2*timelineWindow, timelineWindow)
	}
	if len(tl.fine) > len(all) {
		t.Fatalf("%s: %d fine points of %d handed", what, len(tl.fine), len(all))
	}
	folded, tail := all[:len(all)-len(tl.fine)], all[len(all)-len(tl.fine):]
	for i := range tail {
		if tl.fine[i] != tail[i] {
			t.Fatalf("%s: fine point %d = %+v, the reference's tail has %+v", what, i, tl.fine[i], tail[i])
		}
	}
	var want []UtilPoint
	for _, p := range folded {
		hour := p.At.Truncate(time.Hour)
		if n := len(want); n > 0 && want[n-1].At == hour {
			w := &want[n-1]
			w.LeasedCores = max(w.LeasedCores, p.LeasedCores)
			w.IdleCores = max(w.IdleCores, p.IdleCores)
			w.Running = max(w.Running, p.Running)
			w.Queued = max(w.Queued, p.Queued)
			continue
		}
		p.At = hour
		want = append(want, p)
	}
	if len(tl.coarse) != len(want) {
		t.Fatalf("%s: %d coarse points for %d folded points over %d hours", what, len(tl.coarse), len(folded), len(want))
	}
	for i := range want {
		if tl.coarse[i] != want[i] {
			t.Fatalf("%s: coarse point %d = %+v, the hour's maxima are %+v", what, i, tl.coarse[i], want[i])
		}
	}
	kept := tl.points()
	for i := 1; i < len(kept); i++ {
		if kept[i].At <= kept[i-1].At {
			t.Fatalf("%s: At not strictly increasing at kept point %d of %d (%d coarse): %v then %v",
				what, i, len(kept), len(tl.coarse), kept[i-1].At, kept[i].At)
		}
	}
}

// TestTimelineMatchesReference is the differential test of the tiered
// timeline: 5·timelineWindow random points — gaps from a nanosecond to
// several hours, some landing exactly on an hour — against a reference
// that keeps every point, checked after every add around each fold and
// regularly in between.
func TestTimelineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var tl utilTimeline
	var all []UtilPoint
	at := time.Duration(0)
	for i := 0; i < 5*timelineWindow; i++ {
		switch k := rng.Intn(100); {
		case k < 60:
			at += time.Duration(1 + rng.Int63n(int64(2*time.Minute)))
		case k < 90:
			at += time.Duration(1 + rng.Int63n(int64(10)))
		case k < 97:
			at = at.Truncate(time.Hour) + time.Hour
		default:
			at += time.Duration(1 + rng.Int63n(int64(5*time.Hour)))
		}
		p := UtilPoint{At: at, LeasedCores: rng.Intn(512), IdleCores: rng.Intn(256), Running: rng.Intn(8), Queued: rng.Intn(50)}
		tl.add(p)
		all = append(all, p)
		if n := len(all); n%timelineWindow <= 1 || n%timelineWindow == timelineWindow-1 || n%97 == 0 {
			checkTiered(t, fmt.Sprint("after point ", n), &tl, all)
		}
	}
	if len(tl.coarse) == 0 {
		t.Fatal("no fold happened")
	}
	checkTiered(t, "end", &tl, all)
}

// TestTimelineFoldsInAScheduler runs a scheduler past a fold with
// a subscriber attached from the start: the subscriber still receives
// every point flushed, each exactly once, and Timeline() and
// Result.Timeline keep exactly the tiers checkTiered expects of that
// stream.
func TestTimelineFoldsInAScheduler(t *testing.T) {
	eng, mkt, brain := testHarness(t, 15)
	s, err := New(eng, mkt, testConfig(brain))
	if err != nil {
		t.Fatal(err)
	}
	// Buffered for every event the run emits, so none is dropped.
	sub := s.Subscribe(1 << 17)
	// Long jobs, one arriving every 3 virtual hours over the 14-day
	// market: leases move every few minutes for most of it.
	for i := 0; i < 100; i++ {
		spec := smallSpec()
		spec.TargetWork *= 8
		if err := s.Submit(Job{ID: i, Name: "long", Spec: spec, Arrival: time.Duration(i) * 3 * time.Hour}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	var all []UtilPoint
	for ev := range sub.C {
		if ev.Kind == EventTimeline {
			all = append(all, *ev.Util)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d events", sub.Dropped())
	}
	if len(all) < 2*timelineWindow {
		t.Fatalf("only %d timeline points: the run must fold", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].At <= all[i-1].At {
			t.Fatalf("subscriber got point %d at %v after %v: a point twice, or out of order", i, all[i].At, all[i-1].At)
		}
	}
	checkTiered(t, "settled", &s.timeline, all)
	kept := s.Timeline()
	if len(kept) != len(res.Timeline) {
		t.Fatalf("Timeline() has %d points, Result.Timeline %d", len(kept), len(res.Timeline))
	}
	for i := range kept {
		if kept[i] != res.Timeline[i] {
			t.Fatalf("point %d: Timeline() %+v, Result.Timeline %+v", i, kept[i], res.Timeline[i])
		}
	}
	t.Logf("%d points emitted, %d kept (%d hourly)", len(all), len(kept), len(s.timeline.coarse))
}

package sched

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// ServeConfig tunes how Serve paces the virtual clock against the wall
// clock.
type ServeConfig struct {
	// Speedup is how many seconds of virtual (market) time elapse per
	// wall-clock second while at least one job is in flight. Zero or
	// negative steps the engine as fast as possible. Either way, virtual
	// time never advances while the scheduler is idle, so the market
	// horizon is consumed only by actual work — a service can sit idle
	// for days of wall time without exhausting its price traces.
	Speedup float64
}

// Serve turns the scheduler into a long-running service: it drives the
// engine, paced against the wall clock, while Submit injects jobs from
// other goroutines (the HTTP control plane). Unlike Run it may start
// with zero jobs and keeps waiting for more after the current batch
// drains. When ctx is canceled the scheduler stops accepting
// submissions, fast-forwards the in-flight jobs to completion (or the
// market horizon, whichever comes first), executes the shutdown/drain
// accounting, and returns the consolidated Result — exactly the
// accounting an equivalent batch Run would have produced for the same
// submissions on the same seed.
func (s *Scheduler) Serve(ctx context.Context, sc ServeConfig) (*Result, error) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return nil, fmt.Errorf("sched: Serve after Run or Serve")
	}
	if err := s.startJobsLocked(); err != nil {
		s.mkt.SetHandler(nil)
		s.mu.Unlock()
		return nil, err
	}
	return s.drive(ctx, sc.Speedup, false)
}

// drive steps the engine until the run settles, then settles it: the
// one loop behind Run and Serve. A positive speedup paces virtual time
// against the wall clock; otherwise the engine steps as fast as it
// can. With untilIdle the run settles as soon as every job is
// terminal; without it an idle scheduler waits for a submission until
// ctx is canceled. Callers hold mu, which drive releases between steps
// (so Submit may inject jobs) and returns released.
func (s *Scheduler) drive(ctx context.Context, speedup float64, untilIdle bool) (*Result, error) {
	vtarget := s.eng.Now() // virtual budget the pace has released
	if s.resumeTo > vtarget {
		// Recovered scheduler: the crashed run had already reached
		// resumeTo on the virtual clock. Pre-releasing that budget makes
		// the loop replay the recovered history unpaced (every next event
		// is within vtarget) and resume wall-clock pacing exactly where
		// the crash happened.
		vtarget = s.resumeTo
	}
	lastWall := time.Now()
	for s.runErr == nil && s.eng.Now() <= s.horizon {
		wait := time.Duration(-1) // <0: sleep until wake or shutdown
		active := !s.allTerminal()
		if !active && (s.closing || untilIdle) {
			break
		}
		if active {
			next, ok := s.eng.Next()
			if !ok {
				// No events while jobs are outstanding: nothing can make
				// progress (the decision ticker was stopped or the market is
				// spent). Settle rather than spin.
				break
			}
			paced := speedup > 0 && !s.closing
			if paced {
				wallNow := time.Now()
				vtarget += time.Duration(float64(wallNow.Sub(lastWall)) * speedup)
				lastWall = wallNow
			}
			if !paced || next <= vtarget {
				s.eng.Step()
				s.mu.Unlock()
				// Unfair-mutex handoff: an unpaced loop re-locks immediately
				// and starves Submit callers into multi-second tails; yield
				// the processor when anyone is waiting for the lock.
				if s.submitWaiters.Load() > 0 {
					runtime.Gosched()
				}
				s.mu.Lock()
				continue
			}
			// Ahead of the pace: sleep on the wall clock until the next
			// event's virtual time is released (or a submission lands).
			wait = time.Duration(float64(next-vtarget) / speedup)
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
		}
		if !active {
			// Quiescent: every event at the current instant has run and
			// the engine will not step again until a submission lands, so
			// the instant's coalesced utilization point is final. Flushing
			// here (rather than only at settle) lets a live timeline show
			// the drop to idle while the service waits for work.
			s.flushTimelineLocked()
		}
		s.mu.Unlock()

		var timer *time.Timer
		var fire <-chan time.Time
		if wait >= 0 {
			timer = time.NewTimer(wait)
			fire = timer.C
		}
		canceled := false
		select {
		case <-ctx.Done():
			canceled = true
		case <-s.wake:
		case <-fire:
		}
		if timer != nil {
			timer.Stop()
		}
		if wait < 0 {
			// Idle wall time never accrues virtual budget. A paced sleep
			// (wait >= 0) keeps its base: that wall time is exactly what
			// releases the next event.
			lastWall = time.Now()
		}
		s.mu.Lock()
		if canceled {
			s.closing = true
		}
	}
	res, err := s.settleLocked()
	s.mu.Unlock()
	return res, err
}

package sched

import (
	"fmt"
	"time"

	"proteus/internal/market"
	"proteus/internal/sim"
	"proteus/internal/wal"
)

// JobToRecord converts a job to its WAL submit-record form. The arrival
// must already be the effective (post-clamp) offset — the record is a
// replay input, and replay schedules exactly what it says.
func JobToRecord(j Job) wal.JobRecord {
	return wal.JobRecord{
		ID:         j.ID,
		Name:       j.Name,
		ArrivalNs:  int64(j.Arrival),
		Priority:   j.Priority,
		DeadlineNs: int64(j.Deadline),
		Proactive:  j.Proactive,
		Spec:       j.Spec,
	}
}

// JobFromRecord is the inverse of JobToRecord.
func JobFromRecord(r wal.JobRecord) Job {
	return Job{
		ID:        r.ID,
		Name:      r.Name,
		Spec:      r.Spec,
		Arrival:   time.Duration(r.ArrivalNs),
		Priority:  r.Priority,
		Deadline:  time.Duration(r.DeadlineNs),
		Proactive: r.Proactive,
	}
}

// Recover builds a scheduler from a WAL replay: same engine/market/config
// as the crashed run (the caller rebuilds the environment from the log's
// Meta), with every logged submission re-submitted. Because the control
// plane is a deterministic simulator, driving the recovered scheduler
// (Run, or Serve which fast-forwards to where the crash happened before
// pacing) reproduces the original run's bills, trace trees, and stats
// bit-identically — recovery is replay-from-inputs, not state surgery.
//
// log, when non-nil, becomes the recovered scheduler's live WAL: new
// submissions append as usual, and watermarks resume an hour past the
// replay's last virtual instant, so replaying the recovered history
// logs nothing twice. A nil log recovers read-only (tests, offline
// audits).
func Recover(eng *sim.Engine, mkt *market.Market, cfg Config, replay *wal.Replay, log wal.Writer) (*Scheduler, error) {
	if replay == nil {
		return nil, fmt.Errorf("sched: Recover needs a replay")
	}
	cfg.WAL = nil // resubmission must not re-log the recovered jobs
	s, err := New(eng, mkt, cfg)
	if err != nil {
		return nil, err
	}
	for _, jr := range replay.Jobs {
		if err := s.Submit(JobFromRecord(jr)); err != nil {
			return nil, fmt.Errorf("sched: recovery replay: %w", err)
		}
	}
	s.wal = log
	s.walMarkAt = replay.LastVirtual
	s.resumeTo = replay.LastVirtual
	s.recovered = true
	s.recoveredJobs = len(replay.Jobs)
	return s, nil
}

// walSubmit logs one accepted submission: with the meta record, the
// only input replay needs. Called with the effective arrival already
// computed and before any state mutation: a failed append rejects the
// Submit, so no job exists in memory that the log does not know.
// Recovery resubmission runs with s.wal == nil (set only after the
// replay loop), so restored jobs are not logged twice.
func (s *Scheduler) walSubmit(j *jobRun) error {
	if s.wal == nil {
		return nil
	}
	rec := JobToRecord(j.job)
	_, err := s.wal.Append(wal.Record{
		Kind:  wal.KindSubmit,
		AtNs:  int64(s.eng.Now()),
		JobID: j.job.ID,
		Job:   &rec,
	})
	return err
}

// walWatermark logs the virtual instant the run has reached, when the
// clock stands past the last watermark by at least gap. A watermark is
// the resume point a recovered Serve loop fast-forwards to unpaced;
// the scheduler's transitions are not logged, since replaying the
// submissions re-derives every one of them (the span stream is their
// audit record). An append failure fails the run: the log can no
// longer promise durability, and carrying on would silently widen the
// gap.
func (s *Scheduler) walWatermark(gap time.Duration) {
	now := s.eng.Now()
	if s.wal == nil || now <= s.walMarkAt || now-s.walMarkAt < gap {
		return
	}
	s.walMarkAt = now
	if _, err := s.wal.Append(wal.Record{Kind: wal.KindTick, AtNs: int64(now), JobID: -1}); err != nil {
		s.fail(fmt.Errorf("sched: wal append: %w", err))
	}
}

// WALStats surfaces the attached log's counters (zero Stats when the
// scheduler runs without a WAL).
func (s *Scheduler) WALStats() (wal.Stats, bool) {
	s.mu.Lock()
	l := s.wal
	s.mu.Unlock()
	if l == nil {
		return wal.Stats{}, false
	}
	return l.Stats(), true
}

// SyncWAL makes every record appended so far durable (group commit: one
// fsync covers all pending records). A no-op without a WAL.
func (s *Scheduler) SyncWAL() error {
	s.mu.Lock()
	l := s.wal
	s.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Sync()
}

package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/market"
	"proteus/internal/obs"
	"proteus/internal/sim"
	"proteus/internal/trace"
	"proteus/internal/wal"
)

// recoveryFixture caches the deterministic read-only inputs shared by
// every run in these tests — the trained brain and the evaluation
// traces — so each crash point pays only for a fresh engine and market,
// not for regenerating price history.
type recoveryFixture struct {
	brain *bidbrain.Brain
	eval  *trace.Set
}

func newRecoveryFixture(t testing.TB, seed int64) *recoveryFixture {
	t.Helper()
	return &recoveryFixture{
		brain: testBrain(t, seed),
		eval: trace.GenerateSet("eval", 14*24*time.Hour,
			market.CatalogPrices(market.DefaultCatalog()), seed),
	}
}

func (f *recoveryFixture) env(t testing.TB) (*sim.Engine, *market.Market) {
	t.Helper()
	eng := sim.NewEngine()
	mkt, err := market.New(eng, market.Config{
		Catalog: market.DefaultCatalog(),
		Traces:  f.eval,
		Warning: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, mkt
}

// config returns a traced scheduler config with a fresh observer (span
// stores must not be shared between the runs being compared).
func (f *recoveryFixture) config(eng *sim.Engine) Config {
	cfg := testConfig(f.brain)
	cfg.Observer = obs.NewObserver(eng.Now)
	cfg.TraceSeed = 0xC0FFEE
	return cfg
}

// crashJobs is the fault-injection workload: staggered arrivals, mixed
// priorities, one deadline that is met and one job that arrives past its
// deadline. The two that run are long enough for the hourly watermarks
// to give the log a few dozen record boundaries.
func crashJobs() []Job {
	long := smallSpec()
	long.TargetWork *= 20
	jobs := []Job{
		{ID: 0, Name: "alpha", Spec: long, Priority: 1},
		{ID: 1, Name: "beta", Spec: long, Arrival: 10 * time.Minute, Deadline: 48 * time.Hour},
		{ID: 2, Name: "late", Spec: smallSpec(), Arrival: 20 * time.Minute, Deadline: 5 * time.Minute},
	}
	return jobs
}

// fingerprint canonicalizes everything recovery must reproduce
// bit-identically: the full Result (bills, usage, timeline, makespan)
// plus every job's trace tree. Wall is the one non-deterministic span
// field (real elapsed time) and is zeroed before comparison.
func fingerprint(t testing.TB, res *Result, o *obs.Observer) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	byTrace := map[uint64][]obs.SpanData{}
	for _, sp := range o.Trace().Spans() {
		sp.Wall = 0
		if sp.TraceID != 0 {
			byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
		}
	}
	ids := make([]uint64, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // tiny n: insertion sort, no extra imports
		for k := i; k > 0 && ids[k] < ids[k-1]; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
	for _, id := range ids {
		roots := obs.BuildTree(byTrace[id])
		if err := enc.Encode(roots); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// batchFingerprint runs the first k crash jobs uninterrupted and
// fingerprints the outcome — the reference a recovered run must match.
func (f *recoveryFixture) batchFingerprint(t *testing.T, jobs []Job) string {
	t.Helper()
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res, cfg.Observer)
}

// loggedRun drives the jobs to completion with a fresh flat WAL attached
// and returns the closed log's directory — a first life to crash and
// recover from.
func (f *recoveryFixture) loggedRun(t *testing.T, meta wal.Meta, jobs []Job, mutate func(*Config)) string {
	t.Helper()
	walDir := t.TempDir()
	log, err := wal.Create(walDir, meta, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return walDir
}

// readSegment returns the path and bytes of a single-segment log
// directory's segment.
func readSegment(t *testing.T, walDir string) (string, []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (err %v), want exactly 1 — keep the workload under one segment", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return segs[0], data
}

// decodeFrames decodes every frame of a segment's bytes and returns the
// records with the offset just past each one: the record boundaries a
// crash can fall on.
func decodeFrames(t testing.TB, data []byte) (recs []wal.Record, bounds []int) {
	t.Helper()
	for start := 0; start < len(data); {
		n := bytes.IndexByte(data[start:], '\n')
		if n < 0 {
			t.Fatalf("frame at offset %d lacks its newline", start)
		}
		var rec wal.Record
		if err := json.Unmarshal(data[start+9:start+n], &rec); err != nil { // past "crc32 "
			t.Fatalf("frame at offset %d: %v", start, err)
		}
		start += n + 1
		recs, bounds = append(recs, rec), append(bounds, start)
	}
	return recs, bounds
}

// TestWALLogsInputsAndHourlyWatermarks pins what the durable log holds:
// the replay inputs (one meta, one submit per job) and virtual-time
// watermarks at least an hour apart, the last at the settle instant, so
// recovery of a drained log fast-forwards the whole history unpaced.
func TestWALLogsInputsAndHourlyWatermarks(t *testing.T) {
	f := newRecoveryFixture(t, goldenSeed)
	walDir := t.TempDir()
	log, err := wal.Create(walDir, wal.Meta{Seed: goldenSeed}, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := goldenConfig(f.config(eng), nil)
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := shardJobs()
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	settled := eng.Now()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	_, data := readSegment(t, walDir)
	recs, _ := decodeFrames(t, data)
	if len(recs) == 0 || recs[0].Kind != wal.KindMeta {
		t.Fatalf("log does not open with a meta record: %+v", recs)
	}
	submits, ticks := 0, []time.Duration(nil)
	for _, rec := range recs[1:] {
		switch rec.Kind {
		case wal.KindSubmit:
			if rec.Job == nil || rec.Job.ID != jobs[submits].ID {
				t.Fatalf("submit record %d is %+v, want job %d", submits, rec, jobs[submits].ID)
			}
			submits++
		case wal.KindTick:
			ticks = append(ticks, time.Duration(rec.AtNs))
		default:
			t.Errorf("seq %d: %q record in the log; it holds inputs and watermarks only", rec.Seq, rec.Kind)
		}
	}
	if submits != len(jobs) {
		t.Fatalf("%d submit records, want %d", submits, len(jobs))
	}
	if len(ticks) < 2 {
		t.Fatalf("%d watermarks over a %v run", len(ticks), settled)
	}
	for i := 1; i < len(ticks); i++ {
		least := time.Hour
		if i == len(ticks)-1 {
			least = 1 // the settle watermark may follow the ticker's sooner
		}
		if gap := ticks[i] - ticks[i-1]; gap < least {
			t.Errorf("watermarks at %v and %v: %v apart, want at least %v", ticks[i-1], ticks[i], gap, least)
		}
	}
	if last := ticks[len(ticks)-1]; last != settled {
		t.Fatalf("last watermark at %v, want the settle instant %v", last, settled)
	}
	t.Logf("%d records: meta, %d submits, %d watermarks over %v", len(recs), submits, len(ticks), settled)

	replay, err := wal.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if replay.LastVirtual != settled {
		t.Fatalf("recovered LastVirtual %v, want the settle instant %v", replay.LastVirtual, settled)
	}
}

// walDirAt reproduces the on-disk state of a crash n bytes into the
// single-segment log: a copy of the directory with the segment truncated.
func walDirAt(t *testing.T, seg string, data []byte, n int) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCrashRecoveryEveryRecordBoundary is the durability acceptance
// test. One WAL-attached batch run writes the full log; then, for every
// record boundary in that log, the test simulates a crash at exactly
// that point — truncate a copy of the directory there, wal.Recover it,
// rebuild the environment, and drive the recovered scheduler to
// completion. The recovered run's bills, usage, timeline, and trace
// trees must be byte-identical to an uninterrupted run of the same
// submissions. Truncating mid-record (a torn tail) must recover to the
// same state as the preceding boundary.
func TestCrashRecoveryEveryRecordBoundary(t *testing.T) {
	const seed = 77
	f := newRecoveryFixture(t, seed)
	jobs := crashJobs()

	// The logged run. NoSync keeps the fault-injection loop fast; frame
	// integrity, not fsync, is what recovery checks.
	walDir := t.TempDir()
	log, err := wal.Create(walDir, wal.Meta{Seed: seed, Note: "crash-test"}, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	seg, data := readSegment(t, walDir)
	_, bounds := decodeFrames(t, data)
	if len(bounds) < 20 {
		t.Fatalf("only %d records logged, workload too small to exercise recovery", len(bounds))
	}
	t.Logf("fault-injecting %d record boundaries over %d bytes", len(bounds), len(data))

	// Reference fingerprints, lazily, per submit-prefix length: a crash
	// after k submit records must recover to the uninterrupted run of the
	// first k jobs.
	refs := map[int]string{}
	ref := func(k int) string {
		fp, ok := refs[k]
		if !ok {
			fp = f.batchFingerprint(t, jobs[:k])
			refs[k] = fp
		}
		return fp
	}

	recoveredRuns := 0
	for bi, n := range bounds {
		replay, err := wal.Recover(walDirAt(t, seg, data, n))
		if err != nil {
			t.Fatalf("boundary %d (offset %d): %v", bi, n, err)
		}
		if replay.TornDropped {
			t.Fatalf("boundary %d: clean prefix flagged as torn", bi)
		}
		if want := uint64(bi + 1); replay.LastSeq != want {
			t.Fatalf("boundary %d: LastSeq %d, want %d", bi, replay.LastSeq, want)
		}
		k := len(replay.Jobs)
		if k == 0 {
			continue // only the meta record survived; nothing to replay
		}
		eng, mkt := f.env(t)
		cfg := f.config(eng)
		rs, err := Recover(eng, mkt, cfg, replay, nil)
		if err != nil {
			t.Fatalf("boundary %d: %v", bi, err)
		}
		res, err := rs.Run()
		if err != nil {
			t.Fatalf("boundary %d: recovered run: %v", bi, err)
		}
		st := rs.Stats()
		if !st.Recovered || st.RecoveredJobs != k {
			t.Fatalf("boundary %d: stats %+v, want Recovered with %d jobs", bi, st, k)
		}
		if got := fingerprint(t, res, cfg.Observer); got != ref(k) {
			t.Errorf("boundary %d (offset %d, %d jobs): recovered run diverges from uninterrupted run", bi, n, k)
		}
		recoveredRuns++
	}
	if recoveredRuns == 0 {
		t.Fatal("no boundary carried a submission; test exercised nothing")
	}

	// Torn tails: a crash mid-record must drop exactly the torn record
	// and otherwise equal the preceding boundary.
	prev := 0
	for bi, n := range bounds {
		if n-prev > 2 {
			mid := prev + (n-prev)/2
			replay, err := wal.Recover(walDirAt(t, seg, data, mid))
			if bi == 0 {
				// Tearing the very first record leaves no meta: that is
				// indistinguishable from an empty log and must refuse.
				if err == nil {
					t.Fatal("torn meta record recovered")
				}
			} else {
				if err != nil {
					t.Fatalf("torn tail at %d: %v", mid, err)
				}
				if !replay.TornDropped {
					t.Fatalf("torn tail at %d not flagged", mid)
				}
				if want := uint64(bi); replay.LastSeq != want {
					t.Fatalf("torn tail at %d: LastSeq %d, want %d", mid, replay.LastSeq, want)
				}
			}
		}
		prev = n
	}
}

// TestRecoveryFromSnapshotMatchesFullLog forces rotation and compaction
// with a tiny segment size, then verifies a recovery that starts from
// snapshot.json (rather than the full record history) still reproduces
// the uninterrupted run exactly.
func TestRecoveryFromSnapshotMatchesFullLog(t *testing.T) {
	const seed = 78
	f := newRecoveryFixture(t, seed)
	jobs := crashJobs()

	walDir := t.TempDir()
	log, err := wal.Create(walDir, wal.Meta{Seed: seed}, wal.Options{NoSync: true, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := log.Stats(); st.Rotations == 0 || st.Snapshots == 0 {
		t.Fatalf("stats %+v: workload never rotated/compacted; shrink SegmentBytes", st)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	replay, err := wal.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.FromSnapshot {
		t.Fatalf("replay %+v did not use the snapshot", replay)
	}
	if len(replay.Jobs) != len(jobs) {
		t.Fatalf("replay restored %d jobs, want %d", len(replay.Jobs), len(jobs))
	}
	eng2, mkt2 := f.env(t)
	cfg2 := f.config(eng2)
	rs, err := Recover(eng2, mkt2, cfg2, replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, res, cfg2.Observer), f.batchFingerprint(t, jobs); got != want {
		t.Error("snapshot-based recovery diverges from uninterrupted run")
	}
}

// resultJSON canonicalizes just the accounting (bills, usage, timeline,
// makespan). Trace trees are deliberately excluded: a job submitted to a
// live service opens its root span at the submission instant, while its
// replayed twin opens it at time zero, so accounting — not span wall
// anchors — is the cross-life invariant.
func resultJSON(t testing.TB, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeRecoveryCatchesUp is the end-to-end shape of a `proteus
// -serve -wal-dir` process dying and coming back: a logged run crashes
// ~60% through its record stream, the directory is reopened (which
// compacts the tail into a snapshot), and the recovered scheduler is
// driven by a paced Serve. The serve loop must fast-forward through the
// recovered history unpaced, keep accepting new submissions, and leave
// behind a WAL whose batch replay reproduces the live bill exactly.
func TestServeRecoveryCatchesUp(t *testing.T) {
	const seed = 79
	f := newRecoveryFixture(t, seed)
	jobs := crashJobs()

	// First life: a fully logged run, then a crash 60% into the log.
	walDir := t.TempDir()
	log, err := wal.Create(walDir, wal.Meta{Seed: seed}, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	seg, data := readSegment(t, walDir)
	_, bounds := decodeFrames(t, data)
	if err := os.Truncate(seg, int64(bounds[len(bounds)*3/5])); err != nil {
		t.Fatal(err)
	}

	// Second life: reopen and serve. Catch-up requires real virtual
	// progress in the recovered history.
	log2, replay, err := wal.Open(walDir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if replay.LastVirtual <= 0 {
		t.Fatalf("crash point carries no virtual progress (LastVirtual %v)", replay.LastVirtual)
	}
	if len(replay.Jobs) == 0 {
		t.Fatal("crash point carries no submissions")
	}
	eng2, mkt2 := f.env(t)
	cfg2 := f.config(eng2)
	rs, err := Recover(eng2, mkt2, cfg2, replay, log2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := rs.Serve(ctx, ServeConfig{Speedup: 36000}) // 10 virtual hours per wall second
		resCh <- res
		errCh <- err
	}()
	// A new tenant lands on the recovered service; its requested arrival
	// (0) clamps forward to wherever the replayed clock stands, and the
	// clamped value is what the WAL records.
	if err := rs.Submit(Job{ID: 9, Name: "post-crash", Spec: smallSpec()}); err != nil {
		t.Fatal(err)
	}
	waitState(t, rs, 0, Done)
	waitState(t, rs, 1, Done)
	waitState(t, rs, 2, Expired)
	waitState(t, rs, 9, Done)
	st := rs.Stats()
	if !st.Recovered || st.RecoveredJobs != len(replay.Jobs) {
		t.Fatalf("stats %+v, want Recovered with %d replayed jobs", st, len(replay.Jobs))
	}
	cancel()
	res2 := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	if len(res2.Jobs) != len(replay.Jobs)+1 {
		t.Fatalf("%d job results, want %d", len(res2.Jobs), len(replay.Jobs)+1)
	}

	// Third life: batch-replay the second life's own WAL. The log must
	// have remained a faithful input stream across crash, snapshot
	// compaction, catch-up, and the live submission.
	replay3, err := wal.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay3.Jobs) != len(replay.Jobs)+1 {
		t.Fatalf("final log restored %d jobs, want %d", len(replay3.Jobs), len(replay.Jobs)+1)
	}
	eng3, mkt3 := f.env(t)
	cfg3 := f.config(eng3)
	rs3, err := Recover(eng3, mkt3, cfg3, replay3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := rs3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, res3) != resultJSON(t, res2) {
		t.Error("replaying the recovered service's WAL diverges from its live bill")
	}
}

// TestCatchingUpSpansRecoverToCaughtUp pins the two instants the flag used
// to get wrong: it must already read true between Recover and the start of
// the drive loop (a client polling a freshly opened listener), and it must
// drop once every replayed job is terminal even when the resume point
// post-dates the last completion (here it is moved 1000 h past it).
func TestCatchingUpSpansRecoverToCaughtUp(t *testing.T) {
	const seed = 79
	f := newRecoveryFixture(t, seed)
	walDir := f.loggedRun(t, wal.Meta{Seed: seed}, crashJobs(), nil)
	replay, err := wal.Recover(walDir)
	if err != nil {
		t.Fatal(err)
	}
	replay.LastVirtual += 1000 * time.Hour

	eng2, mkt2 := f.env(t)
	rs, err := Recover(eng2, mkt2, f.config(eng2), replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); !st.Recovered || !st.CatchingUp {
		t.Fatalf("before the drive loop starts: %+v, want Recovered and CatchingUp", st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := rs.Serve(ctx, ServeConfig{})
		done <- err
	}()
	waitState(t, rs, 0, Done)
	waitState(t, rs, 1, Done)
	waitState(t, rs, 2, Expired)
	if st := rs.Stats(); st.CatchingUp {
		t.Fatalf("every job terminal at %v, resume point %v, still catching up", st.Now, replay.LastVirtual)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestLiveNowArrivalsReplayIdentically pins the durability contract for
// the commonest live submission: "start now". Such a request's arrival
// offset is already in the virtual past once the engine has moved, so
// Submit moves it forward and logs the effective value. Replay schedules
// every arrival before the first event fires, the live service schedules
// it after the event the engine last fired, so the logged instant must
// not tie with that event or the two lives order the tie differently and
// bill differently.
func TestLiveNowArrivalsReplayIdentically(t *testing.T) {
	const seed = 79
	f := newRecoveryFixture(t, seed)
	walDir := t.TempDir()
	log, err := wal.Create(walDir, wal.Meta{Seed: seed}, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := s.Serve(ctx, ServeConfig{Speedup: 36000}) // 10 virtual hours per wall second
		resCh <- res
		errCh <- err
	}()
	// Each tenant asks to start now (offset 0), a few virtual minutes
	// after the one before it: the engine has moved on every time, and
	// several tenants overlap.
	const tenants = 24
	for id := 0; id < tenants; id++ {
		if err := s.Submit(Job{ID: id, Name: "now", Spec: smallSpec(), Priority: id % 3}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for id := 0; id < tenants; id++ {
		waitState(t, s, id, Done)
	}
	cancel()
	live := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	log2, replay, err := wal.Open(walDir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	moved := 0
	for _, jr := range replay.Jobs {
		if jr.ArrivalNs > 0 {
			moved++
		}
	}
	if moved < 20 {
		t.Fatalf("only %d of %d arrivals were moved forward; the test needs at least 20", moved, tenants)
	}
	eng2, mkt2 := f.env(t)
	rs, err := Recover(eng2, mkt2, f.config(eng2), replay, log2)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, replayed) != resultJSON(t, live) {
		t.Errorf("replaying the live service's WAL diverges from its bill: %d rebalances and $%.4f live, %d and $%.4f replayed",
			live.Rebalances, live.TotalCost, replayed.Rebalances, replayed.TotalCost)
	}
}

// TestSubmitRefusedWhenFrameExceedsWALBound: a job the log cannot frame
// is refused as a whole — no record, no scheduler state, no sticky log
// error — so the next submission is accepted and the directory recovers
// to exactly the jobs that were acknowledged.
func TestSubmitRefusedWhenFrameExceedsWALBound(t *testing.T) {
	const seed = 83
	f := newRecoveryFixture(t, seed)
	walDir := t.TempDir()
	log, err := wal.Create(walDir, wal.Meta{Seed: seed}, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng, mkt := f.env(t)
	cfg := f.config(eng)
	cfg.WAL = log
	s, err := New(eng, mkt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	huge := Job{ID: 0, Name: strings.Repeat("n", 2<<20), Spec: smallSpec()}
	if err := s.Submit(huge); !errors.Is(err, wal.ErrFrameTooLarge) || errors.Is(err, ErrWAL) {
		t.Fatalf("a job whose submit record exceeds the WAL frame bound: Submit returned %v, want the job's fault (wal.ErrFrameTooLarge), not the log's (ErrWAL)", err)
	}
	if st, _ := s.WALStats(); st.Submits != 0 || st.LastSeq != 1 || st.Err != "" {
		t.Fatalf("the refused job reached the log: %+v", st)
	}
	if _, known := s.Status(0); known {
		t.Fatal("the refused job reached the scheduler")
	}
	if err := s.Submit(crashJobs()[0]); err != nil {
		t.Fatalf("submission after the refusal: %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if replay, err := wal.Recover(walDir); err != nil || len(replay.Jobs) != 1 || replay.Jobs[0].Name != "alpha" {
		t.Fatalf("recovered %+v (err %v), want only the acknowledged job", replay, err)
	}
}

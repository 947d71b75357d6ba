package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"testing"
	"time"

	"proteus/internal/forecast"
	"proteus/internal/wal"
)

// Cross-commit golden fingerprints. Every other "golden" test in this
// package compares two runs of the same binary, so a refactor that moves
// a bill in both runs passes. These constants were computed at the commit
// before the decision-path unification (PR 13) and must never change
// without an argued reason: each is sha256(fingerprint(res, observer) +
// json(Stats())) — bills, usage, timeline, every job's trace tree
// (including the order of bid/acquire events) and the stats block — for
// the shardJobs workload at MaxConcurrent=3.
const (
	goldenSeed = 5

	goldenFair     = "ff5a2c1ca8360eccd0452d18b9ecd514bdd31d626256d254da83643fcc0135ad"
	goldenDeadline = "b6c048b896ca8aea3ee77d1f42048ea5a4cfb5dd4435a67fbb275ac555e37576"
	// goldenTightDeadline tightens the two deadlines to 3 h and 4 h so the
	// urgent-deadline pick chooses a DeadlineAcquisition candidate.
	goldenTightDeadline = "599b339b4291fe8cf962825ebadb0f94023d02968d113be1f356e99132b1572f"
	goldenProactive     = "331bc156a16bb365ed8f7c92e56b0805ac3ae571e6ba03bf25911953344389f0"
	// goldenRecovered is the crash → recover → resume run: a WAL-logged
	// fair run cut at a watermark 60% of the way through its virtual
	// history, reopened, recovered with the log attached live and driven
	// to completion.
	goldenRecovered = "fe4f4732e0c7b3e6db3fb1986f479e42f7742a6823fbb9adc71e606ceed5cd10"
	// goldenWAL is sha256 of the first life's single log segment: the
	// order and content of every record the run appends. Re-pinned once,
	// when the log stopped carrying an audit trail (admit, lease,
	// release, evict, refund, acquire, done, expire, pre-drain and a tick
	// per decision) and came to hold the meta record, the submissions
	// and hourly watermarks only; goldenRecovered did not move with it.
	goldenWAL = "06c196d54a69f4c1ea798eb44ceab8af5fe3c108b8f00074f692bfc47e8c9e99"
)

func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenHash is the pinned digest of one finished run.
func goldenHash(t testing.TB, s *Scheduler, res *Result, cfg Config) string {
	t.Helper()
	stats, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return sha([]byte(fingerprint(t, res, cfg.Observer)), stats)
}

func goldenConfig(cfg Config, mutate func(*Config)) Config {
	cfg.MaxConcurrent = 3
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// goldenRun returns the run's digest, its stats and the undigested
// fingerprint.
func goldenRun(t *testing.T, jobs []Job, mutate func(*Config)) (string, Stats, string) {
	t.Helper()
	f := newRecoveryFixture(t, goldenSeed)
	eng, mkt := f.env(t)
	cfg := goldenConfig(f.config(eng), mutate)
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
	return goldenHash(t, s, res, cfg), s.Stats(), fingerprint(t, res, cfg.Observer)
}

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s fingerprint moved:\n got  %s\n want %s\nbills, stats or trace trees differ from the pinned pre-refactor run", name, got, want)
	}
}

func TestGoldenFair(t *testing.T) {
	got, st, _ := goldenRun(t, shardJobs(), nil)
	if st.Done != len(shardJobs()) || st.Rebalances == 0 {
		t.Fatalf("workload too tame to pin anything: %+v", st)
	}
	checkGolden(t, "fair", got, goldenFair)
}

func TestGoldenDeadlineFirst(t *testing.T) {
	got, st, _ := goldenRun(t, shardJobs(), func(c *Config) { c.Policy = DeadlineFirst{} })
	if st.Done != len(shardJobs()) {
		t.Fatalf("deadline run left jobs behind: %+v", st)
	}
	checkGolden(t, "deadline-first", got, goldenDeadline)
}

func TestGoldenTightDeadline(t *testing.T) {
	jobs := shardJobs()
	jobs[4].Deadline = 3 * time.Hour
	jobs[9].Deadline = 4 * time.Hour
	got, _, fp := goldenRun(t, jobs, func(c *Config) { c.Policy = DeadlineFirst{} })
	if !strings.Contains(fp, "deadline acquisition") {
		t.Fatal("no decision took the urgent-deadline branch; tighten the deadlines")
	}
	checkGolden(t, "tight deadline", got, goldenTightDeadline)
}

func TestGoldenProactive(t *testing.T) {
	jobs := shardJobs()
	for i := range jobs {
		jobs[i].Proactive = true
	}
	got, st, _ := goldenRun(t, jobs, func(c *Config) { c.Forecast = forecast.DefaultOptions() })
	if !st.Forecast.Enabled || st.Forecast.PreDrains == 0 {
		t.Fatalf("proactive run never pre-drained, the forecast hook is unpinned: %+v", st.Forecast)
	}
	t.Logf("forecast: %+v", st.Forecast)
	checkGolden(t, "proactive", got, goldenProactive)
}

// withShardsMeta rewrites the log's first frame so its meta record carries
// "shards":4, the provenance field logs written before PR 13 may hold.
func withShardsMeta(t *testing.T, data []byte) []byte {
	t.Helper()
	nl := bytes.IndexByte(data, '\n')
	payload := data[9:nl]
	i := bytes.Index(payload, []byte(`"meta":{`))
	if i < 0 {
		t.Fatalf("first record is not a meta record: %s", payload)
	}
	i += len(`"meta":{`)
	patched := append(append(append([]byte(nil), payload[:i]...), `"shards":4,`...), payload[i:]...)
	out := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(patched))
	out = append(append(out, patched...), '\n')
	return append(out, data[nl+1:]...)
}

// goldenCrashRun logs a fair run, crashes it just after the last
// watermark at or before 60% of its final watermark's virtual instant
// (optionally rewriting the log first), recovers with the reopened log
// attached and resumes to completion.
func goldenCrashRun(t *testing.T, rewrite func(*testing.T, []byte) []byte) (recovered, firstLifeWAL string) {
	t.Helper()
	f := newRecoveryFixture(t, goldenSeed)
	walDir := f.loggedRun(t, wal.Meta{Seed: goldenSeed, Note: "golden"}, shardJobs(),
		func(c *Config) { *c = goldenConfig(*c, nil) })
	seg, data := readSegment(t, walDir)
	firstLifeWAL = sha(data)
	if rewrite != nil {
		data = rewrite(t, data)
	}
	recs, bounds := decodeFrames(t, data)
	final := recs[len(recs)-1].AtNs // the settle watermark
	cut := 0
	for i, rec := range recs {
		if rec.Kind == wal.KindTick && rec.AtNs <= final*3/5 {
			cut = bounds[i]
		}
	}
	if cut == 0 {
		t.Fatalf("no watermark at or before %v", time.Duration(final*3/5))
	}
	if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	log2, replay, err := wal.Open(walDir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Jobs) != len(shardJobs()) || replay.LastVirtual <= 0 {
		t.Fatalf("crash point restored %d jobs at %v", len(replay.Jobs), replay.LastVirtual)
	}
	eng2, mkt2 := f.env(t)
	cfg2 := goldenConfig(f.config(eng2), nil)
	rs, err := Recover(eng2, mkt2, cfg2, replay, log2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	recovered = goldenHash(t, rs, res, cfg2)
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}
	// Open compacted the first life into the snapshot, so the segment
	// holds the second life's records: watermarks past the resume point
	// only, none of the history it replayed.
	_, data = readSegment(t, walDir)
	recs, _ = decodeFrames(t, data)
	for _, rec := range recs {
		if rec.Kind != wal.KindTick || time.Duration(rec.AtNs) <= replay.LastVirtual {
			t.Fatalf("second life appended a %q record at %v, resume point %v", rec.Kind, time.Duration(rec.AtNs), replay.LastVirtual)
		}
	}
	if len(recs) == 0 {
		t.Fatal("second life appended no watermark")
	}
	return recovered, firstLifeWAL
}

func TestGoldenCrashRecoverResume(t *testing.T) {
	got, walSum := goldenCrashRun(t, nil)
	checkGolden(t, "recovered", got, goldenRecovered)
	checkGolden(t, "first-life WAL", walSum, goldenWAL)
}

// TestGoldenRecoversLegacyShardsMeta: a log whose meta record carries the
// retired "shards" provenance field recovers to the same pinned run.
func TestGoldenRecoversLegacyShardsMeta(t *testing.T) {
	got, _ := goldenCrashRun(t, withShardsMeta)
	checkGolden(t, "recovered (legacy shards meta)", got, goldenRecovered)
}

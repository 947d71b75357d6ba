package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The directories under testdata were written by the real writers at
// commit 8c44394, the last one that had `-wal-shards` and a
// `wal_shards` meta field, and must recover to the Replays pinned here
// for as long as the package exists:
//
//	sharded-3        a scheduler run (20 jobs, seed 5, 3 running at once)
//	                 that died after its 500th record, logged through
//	                 `-wal-shards 3` with 12 KiB segments: shards 0 and 1
//	                 hold a snapshot plus their active segment, shard 2 only
//	                 six submits (no snapshot, no meta), and shard 0's last
//	                 record (seq 499) is torn mid-payload
//	flat-every-kind  a flat log with one record of each of the 13 kinds
//	                 and `"wal_shards":4` in its meta record
type pinnedReplay struct {
	meta        Meta
	jobs        int    // IDs 0..jobs-1 in order, each stamped seq = ID + 2
	jobsSHA     string // sha256 of json(Replay.Jobs)
	lastSeq     uint64
	lastVirtual time.Duration
	torn        bool
}

var (
	shardedFixture = pinnedReplay{
		meta:        Meta{Seed: 5, MaxConcurrent: 3, Note: "sharded fixture, written by -wal-shards 3 at 8c44394"},
		jobs:        20,
		jobsSHA:     "062fec5e25d2e28004ea1d746bdd5d939321d283a88e24ba46d634023abcda3b",
		lastSeq:     500,
		lastVirtual: 9480 * time.Second,
		torn:        true,
	}
	flatFixture = pinnedReplay{
		meta: Meta{Seed: 7, EvalDays: 3, TrainDays: 5, BetaSamples: 50, Zones: 1, Policy: "fair", TraceSeed: 1,
			MaxConcurrent: 2, Forecast: true, Note: "flat fixture, every record kind, written at 8c44394"},
		jobs:        1,
		jobsSHA:     "49b209810e2dee77ead646bbd43e9dcf01a2c28d76debcf11f3e8aa274f1b7ba",
		lastSeq:     13,
		lastVirtual: 3 * time.Hour,
	}
)

// copyFixture copies testdata/<name> into a fresh temporary directory:
// Open writes to the directory it recovers.
func copyFixture(t testing.TB, name string) string {
	t.Helper()
	src, dst := filepath.Join("testdata", name), t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// openFixture opens dir the way a restarting service does.
func openFixture(t testing.TB, dir string) (*Log, *Replay) {
	t.Helper()
	l, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return l, rep
}

// checkInputs compares the replay inputs — what a recovered scheduler is
// rebuilt from — against the pin.
func (p pinnedReplay) checkInputs(t *testing.T, rep *Replay) {
	t.Helper()
	if rep.Meta != p.meta {
		t.Errorf("meta = %+v, want %+v", rep.Meta, p.meta)
	}
	if len(rep.Jobs) != p.jobs {
		t.Fatalf("%d jobs, want %d", len(rep.Jobs), p.jobs)
	}
	for i, j := range rep.Jobs {
		if j.ID != i || j.Seq != uint64(i+2) {
			t.Errorf("jobs[%d] = ID %d seq %d, want ID %d seq %d", i, j.ID, j.Seq, i, i+2)
		}
	}
	raw, err := json.Marshal(rep.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != p.jobsSHA {
		t.Errorf("jobs digest = %s, want %s", got, p.jobsSHA)
	}
	if rep.LastSeq != p.lastSeq || rep.LastVirtual != p.lastVirtual {
		t.Errorf("LastSeq %d LastVirtual %v, want %d %v", rep.LastSeq, rep.LastVirtual, p.lastSeq, p.lastVirtual)
	}
}

// checkFlat asserts dir holds the one layout: a snapshot, one active
// segment, no shard directories.
func checkFlat(t *testing.T, dir string) {
	t.Helper()
	if shards := shardDirs(dir); len(shards) != 0 {
		t.Errorf("shard directories survive: %v", shards)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Errorf("no flat snapshot: %v", err)
	}
	if names, _, err := listSegments(dir); err != nil || len(names) != 1 {
		t.Errorf("segments = %v (%v), want exactly the active one", names, err)
	}
}

func TestShardedFixtureRecovers(t *testing.T) {
	dir := copyFixture(t, "sharded-3")
	if !Exists(dir) {
		t.Fatal("Exists = false: a service would create an empty log over this directory")
	}
	// Reading changes nothing on disk; opening migrates.
	readOnly, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, rep := openFixture(t, dir)
	if !reflect.DeepEqual(rep, readOnly) {
		t.Errorf("Open and Recover disagree:\n open    %+v\n recover %+v", rep, readOnly)
	}
	shardedFixture.checkInputs(t, rep)
	if rep.TornDropped != shardedFixture.torn {
		t.Errorf("TornDropped = %v, want %v", rep.TornDropped, shardedFixture.torn)
	}
	checkFlat(t, dir)
	// Appends continue in the one global sequence space.
	if seq, err := l.Append(Record{Kind: KindTick, JobID: -1, AtNs: int64(shardedFixture.lastVirtual)}); err != nil || seq != shardedFixture.lastSeq+1 {
		t.Fatalf("first append after recovery = seq %d, %v; want %d", seq, err, shardedFixture.lastSeq+1)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep2 := openFixture(t, dir)
	defer l2.Close()
	again := shardedFixture
	again.lastSeq++
	again.checkInputs(t, rep2)
	if rep2.TornDropped {
		t.Error("the torn record outlived the migration")
	}
}

// TestShardedRotationAndSnapshotPerStream: two of the fixture's streams
// rotated and compacted before the crash, each into its own snapshot
// (covering seqs ≤ 271 on shard 0, ≤ 492 on shard 1); the third never
// did. A stream's snapshot seeds that stream's jobs and covers that
// stream's records only.
func TestShardedRotationAndSnapshotPerStream(t *testing.T) {
	rep, err := Recover(filepath.Join("testdata", "sharded-3"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FromSnapshot || rep.Segments != 3 {
		t.Errorf("FromSnapshot %v Segments %d, want true and 3", rep.FromSnapshot, rep.Segments)
	}
	// 6 submits on shard 2, 118 records past shard 0's snapshot (seq 499
	// torn), 6 past shard 1's.
	if rep.Records != 130 || rep.Transitions != 124 {
		t.Errorf("Records %d Transitions %d, want 130 and 124", rep.Records, rep.Transitions)
	}
	shardedFixture.checkInputs(t, rep)
}

// TestShardedMigrationKilledBeforeCleanup: the migration's durable step
// is the flat snapshot's rename; a process killed after it and before
// the shard directories are gone leaves both. The snapshot wins — the
// shards may be half deleted — and the directory ends up flat.
func TestShardedMigrationKilledBeforeCleanup(t *testing.T) {
	migrated := copyFixture(t, "sharded-3")
	l, _ := openFixture(t, migrated)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(migrated, snapshotName))
	if err != nil {
		t.Fatal(err)
	}

	dir := copyFixture(t, "sharded-3")
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	// Part of the clean-up may have happened: the streams alone would now
	// fail the contiguity check, or worse, recover without shard 0's jobs.
	if err := os.RemoveAll(filepath.Join(dir, shardDirPrefix+"000")); err != nil {
		t.Fatal(err)
	}
	l2, rep := openFixture(t, dir)
	defer l2.Close()
	shardedFixture.checkInputs(t, rep)
	checkFlat(t, dir)
}

// TestShardedTornTailDropped: every stream was flushed on its own, so
// each may end in a torn record; a bad record in the middle of a stream
// is still corruption.
func TestShardedTornTailDropped(t *testing.T) {
	dir := copyFixture(t, "sharded-3")
	seg := filepath.Join(dir, shardDirPrefix+"001", "wal-00000000000000000493.log")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil { // tears seq 500
		t.Fatal(err)
	}
	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornDropped || rep.LastSeq != 498 || len(rep.Jobs) != shardedFixture.jobs {
		t.Fatalf("TornDropped %v LastSeq %d jobs %d, want true, 498 (499 and 500 torn), %d",
			rep.TornDropped, rep.LastSeq, len(rep.Jobs), shardedFixture.jobs)
	}

	raw[12] ^= 1 // inside the first record's payload, valid records after it
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "corrupt record followed by more data") {
		t.Fatalf("mid-stream corruption: err = %v", err)
	}
}

// TestShardedRecoveryAcceptsUnsyncedShardSuffix: a crash can lose one
// stream's buffered tail while another stream's later records reached
// disk. Those survivors are genuine history — nothing past the last
// Sync was ever acknowledged — so recovery accepts them rather than
// treating the gap as corruption.
func TestShardedRecoveryAcceptsUnsyncedShardSuffix(t *testing.T) {
	dir := copyFixture(t, "sharded-3")
	// Shard 2 holds six submits (seqs 5 … 21) and never reached the disk.
	if err := os.Truncate(filepath.Join(dir, shardDirPrefix+"002", segmentName(1)), 0); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != shardedFixture.jobs-6 || rep.LastSeq != shardedFixture.lastSeq {
		t.Fatalf("%d jobs, LastSeq %d; want %d (the lost six stay lost) and %d",
			len(rep.Jobs), rep.LastSeq, shardedFixture.jobs-6, shardedFixture.lastSeq)
	}
	for i := 1; i < len(rep.Jobs); i++ {
		if rep.Jobs[i].Seq <= rep.Jobs[i-1].Seq {
			t.Fatalf("jobs out of submission order: seq %d after %d", rep.Jobs[i].Seq, rep.Jobs[i-1].Seq)
		}
	}
}

// TestCreateShardedRefusesExisting: Create must not start an empty log
// over a directory whose existing history lives in shard streams.
func TestCreateShardedRefusesExisting(t *testing.T) {
	dir := copyFixture(t, "sharded-3")
	if _, err := Create(dir, testMeta(), Options{NoSync: true}); err == nil {
		t.Fatal("Create over a legacy sharded directory succeeded")
	}
}

func TestFlatFixtureRecovers(t *testing.T) {
	dir := copyFixture(t, "flat-every-kind")
	l, rep := openFixture(t, dir)
	defer l.Close()
	flatFixture.checkInputs(t, rep)
	if rep.TornDropped != flatFixture.torn {
		t.Errorf("TornDropped = %v, want %v", rep.TornDropped, flatFixture.torn)
	}
	// Every kind besides meta and submit counts as a transition.
	if rep.Records != 13 || rep.Transitions != 11 {
		t.Errorf("Records %d Transitions %d, want 13 and 11", rep.Records, rep.Transitions)
	}
}

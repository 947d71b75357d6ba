package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
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

// openFixture opens dir with whichever opener its layout needs.
func openFixture(t testing.TB, dir string) (Writer, *Replay) {
	t.Helper()
	if IsSharded(dir) {
		s, rep, err := OpenSharded(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return s, rep
	}
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
	rep.Meta.WALShards = 0 // provenance only; not part of the pin
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

func TestShardedFixtureRecovers(t *testing.T) {
	dir := copyFixture(t, "sharded-3")
	w, rep := openFixture(t, dir)
	shardedFixture.checkInputs(t, rep)
	if rep.TornDropped != shardedFixture.torn {
		t.Errorf("TornDropped = %v, want %v", rep.TornDropped, shardedFixture.torn)
	}
	// Appends continue in the one global sequence space.
	if seq, err := w.Append(Record{Kind: KindTick, JobID: -1}); err != nil || seq != shardedFixture.lastSeq+1 {
		t.Fatalf("first append after recovery = seq %d, %v; want %d", seq, err, shardedFixture.lastSeq+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFlatFixtureRecovers(t *testing.T) {
	dir := copyFixture(t, "flat-every-kind")
	w, rep := openFixture(t, dir)
	defer w.Close()
	flatFixture.checkInputs(t, rep)
	if rep.TornDropped != flatFixture.torn {
		t.Errorf("TornDropped = %v, want %v", rep.TornDropped, flatFixture.torn)
	}
	// Every kind besides meta and submit counts as a transition.
	if rep.Records != 13 || rep.Transitions != 11 {
		t.Errorf("Records %d Transitions %d, want 13 and 11", rep.Records, rep.Transitions)
	}
}

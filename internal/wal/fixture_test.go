package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The fixture under testdata was written by the real writer at commit
// 8c44394, the last one that had a `wal_shards` meta field, and must
// recover to the Replay pinned here for as long as the package exists:
//
//	flat-every-kind  a flat log with one record of each of the 13 kinds
//	                 the scheduler then wrote, and `"wal_shards":4` in its
//	                 meta record
type pinnedReplay struct {
	meta        Meta
	jobs        int    // IDs 0..jobs-1 in order, each stamped seq = ID + 2
	jobsSHA     string // sha256 of json(Replay.Jobs)
	lastSeq     uint64
	lastVirtual time.Duration
	torn        bool
}

var flatFixture = pinnedReplay{
	meta: Meta{Seed: 7, EvalDays: 3, TrainDays: 5, BetaSamples: 50, Zones: 1, Policy: "fair", TraceSeed: 1,
		MaxConcurrent: 2, Forecast: true, Note: "flat fixture, every record kind, written at 8c44394"},
	jobs:        1,
	jobsSHA:     "49b209810e2dee77ead646bbd43e9dcf01a2c28d76debcf11f3e8aa274f1b7ba",
	lastSeq:     13,
	lastVirtual: 3 * time.Hour,
}

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

// TestCreateShardedRefusesExisting: a directory holding a `shard-NNN/`
// stream of the retired sharded layout is a log nobody reads any more.
// Exists must still report it, so a service does not start an empty log
// over it, and Create, Open and Recover must refuse it, naming the
// layout.
func TestCreateShardedRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "shard-000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if !Exists(dir) {
		t.Fatal("Exists = false: a service would create an empty log over a sharded directory")
	}
	refusals := map[string]error{}
	_, refusals["Create"] = Create(dir, testMeta(), Options{NoSync: true})
	_, _, refusals["Open"] = Open(dir, Options{NoSync: true})
	_, refusals["Recover"] = Recover(dir)
	for call, err := range refusals {
		if err == nil || !strings.Contains(err.Error(), "retired sharded layout") {
			t.Errorf("%s over a sharded directory: err = %v, want a refusal naming the layout", call, err)
		}
	}
	if names, _, err := listSegments(dir); err != nil || len(names) != 0 {
		t.Errorf("the refusals left segments %v (%v)", names, err)
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
	// Every kind is counted; only meta and submit records are read.
	if rep.Records != 13 {
		t.Errorf("Records %d, want 13", rep.Records)
	}
}

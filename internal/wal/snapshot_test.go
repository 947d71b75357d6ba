package wal

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// snapshotNames are the job names the snapshot tests log: every byte
// class encoding/json escapes or rewrites, and the name it omits.
var snapshotNames = []string{"", "<a>&b", "line\u2028sep", `q"uote`, `back\slash`, "bad\xffutf8", "plain"}

// TestSnapshotBytesMatchMarshal is the snapshot writer's differential
// oracle. The reference is json.Marshal(Snapshot{…}) over the list a
// writer that keeps every submission would hold: the records as
// appended in the first life, and after a restart the decoded
// Replay.Jobs the log was opened with, plus what was appended since.
// After every Append and every Open the file must equal it byte for
// byte, over three lives with random segment sizes.
func TestSnapshotBytesMatchMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	dir := t.TempDir()
	var (
		held     []JobRecord // what a keep-everything writer holds
		lastVirt int64
		want     []byte // the expected snapshot.json; nil before the first
		next     int
	)
	check := func(when string) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if want == nil {
			if err == nil {
				t.Fatalf("%s: a snapshot before the first rotation", when)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: snapshot.json differs from json.Marshal of the held list:\n got %s\nwant %s", when, got, want)
		}
	}
	reference := func(meta Meta, lastSeq uint64) []byte {
		t.Helper()
		raw, err := json.Marshal(Snapshot{Meta: meta, LastSeq: lastSeq, LastVirtualNs: lastVirt, Jobs: held})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for life := 0; life < 3; life++ {
		var (
			l    *Log
			err  error
			meta = testMeta()
		)
		if life == 0 {
			// Small fixed segments: the audit-only prefix below rotates
			// before the first submission, so a "jobs":null snapshot is
			// carried forward too.
			l, err = Create(dir, meta, Options{NoSync: true, SegmentBytes: 512})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			var rep *Replay
			l, rep, err = Open(dir, Options{NoSync: true, SegmentBytes: 256 + rng.Intn(4096)})
			if err != nil {
				t.Fatal(err)
			}
			meta = rep.Meta
			held = rep.Jobs
			lastVirt = int64(rep.LastVirtual)
			want = reference(meta, l.Stats().LastSeq)
			check("open")
			if life == 1 && (bytes.Contains(want, []byte(`\ufffd`)) || !bytes.Contains(want, []byte("\uFFFD"))) {
				t.Fatal("after a restart the invalid-UTF-8 name must be held as a literal U+FFFD")
			}
		}
		snaps := l.Stats().Snapshots
		for i := 0; i < 160; i++ {
			at := lastVirt + rng.Int63n(int64(time.Hour))
			rec := Record{Kind: KindTick, AtNs: at, JobID: -1}
			if (life > 0 || i >= 24) && rng.Intn(3) == 0 {
				j := testJob(next)
				j.Name = snapshotNames[rng.Intn(len(snapshotNames))]
				if life == 0 && i == 24 {
					j.Name = "bad\xffutf8"
				}
				rec = Record{Kind: KindSubmit, AtNs: at, JobID: next, Job: &j}
				next++
			}
			seq, err := l.Append(rec)
			if err != nil {
				t.Fatal(err)
			}
			lastVirt = max(lastVirt, at)
			if rec.Job != nil {
				jr := *rec.Job
				jr.Seq = seq
				held = append(held, jr)
			}
			if st := l.Stats(); st.Snapshots != snaps {
				snaps = st.Snapshots
				want = reference(meta, seq)
			}
			check("append")
		}
		if life == 0 && !bytes.Contains(want, []byte(`\ufffd`)) {
			t.Fatal("the first life must write the invalid-UTF-8 name as the escape \\ufffd")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(want, []byte(`"jobs":[`)) {
		t.Fatal("no submission reached a snapshot")
	}
}

// rotationAllocs is the bytes one rotation allocates, averaged over
// four, after submits submissions are in the log. Both callers measure
// from the same sequence number on a fresh segment and append the same
// audit records, so the appends' share is the same and only the
// snapshot can differ. The second return is how many appends it took.
func rotationAllocs(t *testing.T, submits int) (float64, int) {
	t.Helper()
	const startSeq = 10_500
	l, err := Create(t.TempDir(), testMeta(), Options{NoSync: true, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < submits; i++ {
		j := testJob(i)
		if _, err := l.Append(Record{Kind: KindSubmit, AtNs: j.ArrivalNs, JobID: i, Job: &j}); err != nil {
			t.Fatal(err)
		}
	}
	audit := Record{Kind: KindLease, AtNs: int64(time.Hour), JobID: 1, Alloc: 7, Cores: 128}
	for l.Stats().LastSeq < startSeq {
		if _, err := l.Append(audit); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	err = l.rotateLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	const rotations = 4
	first := l.Stats().Rotations
	appends := 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for l.Stats().Rotations < first+rotations {
		if _, err := l.Append(audit); err != nil {
			t.Fatal(err)
		}
		appends++
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / rotations, appends
}

// TestRotationAllocsFlatInSubmissions: compaction is the log's reliable
// tier, and a rotation must cost what the segment it seals holds, not
// what the log has accepted since it was created. A rotation after
// 10,000 submissions may allocate at most 64 KiB more than one after
// 100.
func TestRotationAllocsFlatInSubmissions(t *testing.T) {
	small, smallAppends := rotationAllocs(t, 100)
	large, largeAppends := rotationAllocs(t, 10_000)
	if smallAppends != largeAppends {
		t.Fatalf("the two runs appended %d and %d audit records: their shares differ", smallAppends, largeAppends)
	}
	t.Logf("per rotation: %.0f B after 100 submissions, %.0f B after 10,000 (%d audit appends each)", small, large, smallAppends)
	if large > small+64<<10 {
		t.Fatalf("a rotation after 10,000 submissions allocates %.0f B, over %.0f B after 100 + 64 KiB: the snapshot re-encodes every job ever logged", large, small)
	}
}

// dirFiles reads every regular file in dir.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// writeFiles writes files into dir, replacing what is there.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// replayInputs is what a recovered scheduler is rebuilt from; the
// counters beside it describe the files read, which a crash changes.
func replayInputs(r *Replay) Replay {
	return Replay{Meta: r.Meta, Jobs: r.Jobs, LastSeq: r.LastSeq, LastVirtual: r.LastVirtual}
}

// appendJobs logs submissions and admissions into l from job first
// on, through at least one rotation.
func appendJobs(t *testing.T, l *Log, first, n int) {
	t.Helper()
	snaps := l.Stats().Snapshots
	for i := first; i < first+n; i++ {
		j := testJob(i)
		j.Name = snapshotNames[i%len(snapshotNames)]
		if _, err := l.Append(Record{Kind: KindSubmit, AtNs: j.ArrivalNs, JobID: i, Job: &j}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(Record{Kind: "admit", AtNs: j.ArrivalNs + int64(time.Minute), JobID: i}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Snapshots == snaps {
		t.Fatal("the appends never rotated")
	}
}

// TestCrashMidRotationRecovers kills a rotation at each point where the
// directory holds more than one snapshot's worth of state. The rotation
// carries the previous snapshot forward, so it reads snapshot.json while
// it writes snapshot.json.tmp. The states:
//
//   - a truncated snapshot.json.tmp beside the old snapshot;
//   - a complete snapshot.json.tmp that was never renamed;
//   - the new snapshot renamed into place, with the segments it covers
//     not yet removed.
//
// Each is built from the files of one real rotation: the directory just
// before it (every record synced) and just after it. In each, Recover
// must return the inputs of the rotation that completed, and Open
// followed by one more rotation must recover what the same appends
// give on the clean directory.
func TestCrashMidRotationRecovers(t *testing.T) {
	const segBytes = 1024
	states := []struct {
		name  string
		crash func(before, after map[string][]byte) map[string][]byte
	}{
		{"truncated tmp", func(before, after map[string][]byte) map[string][]byte {
			files := unrenamed(before, after)
			tmp := files[snapshotName+".tmp"]
			files[snapshotName+".tmp"] = tmp[:len(tmp)/2]
			return files
		}},
		{"complete tmp never renamed", unrenamed},
		{"renamed, covered segments kept", func(before, after map[string][]byte) map[string][]byte {
			files := map[string][]byte{}
			for name, raw := range before {
				files[name] = raw
			}
			for name, raw := range after {
				files[name] = raw
			}
			return files
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			dir, clean := t.TempDir(), t.TempDir()
			l, err := Create(dir, testMeta(), Options{NoSync: true, SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			appendJobs(t, l, 0, 12)
			if _, err := l.Append(Record{Kind: KindTick, AtNs: int64(5 * time.Hour), JobID: -1}); err != nil {
				t.Fatal(err)
			}
			if l.segFill == 0 {
				t.Fatal("the crashing rotation must seal records")
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			before := dirFiles(t, dir)
			l.mu.Lock()
			err = l.rotateLocked()
			l.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			after := dirFiles(t, dir)
			writeFiles(t, clean, after)
			want, err := Recover(clean)
			if err != nil {
				t.Fatal(err)
			}

			for name := range after {
				os.Remove(filepath.Join(dir, name))
			}
			writeFiles(t, dir, st.crash(before, after))
			got, err := Recover(dir)
			if err != nil {
				t.Fatalf("recover after the crash: %v", err)
			}
			if !reflect.DeepEqual(replayInputs(got), replayInputs(want)) {
				t.Fatalf("recovered %+v\nwant the clean log's %+v", replayInputs(got), replayInputs(want))
			}

			// One more life on each directory, through a rotation that
			// carries the snapshot Open wrote forward. The snapshots Open
			// writes from equal replays must be equal too: no byte of a
			// stale snapshot.json.tmp may survive into one.
			var reps [2]*Replay
			var opened [2][]byte
			for k, d := range []string{dir, clean} {
				l, _, err := Open(d, Options{NoSync: true, SegmentBytes: segBytes})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(filepath.Join(d, snapshotName+".tmp")); !os.IsNotExist(err) {
					t.Fatalf("Open left snapshot.json.tmp behind (%v)", err)
				}
				if opened[k], err = os.ReadFile(filepath.Join(d, snapshotName)); err != nil {
					t.Fatal(err)
				}
				appendJobs(t, l, 12, 6)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if reps[k], err = Recover(d); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(opened[0], opened[1]) {
				t.Fatalf("Open wrote\n%s\nafter the crash, and\n%s\non the clean directory", opened[0], opened[1])
			}
			if !reflect.DeepEqual(replayInputs(reps[0]), replayInputs(reps[1])) {
				t.Fatalf("after one more life the crashed directory recovers %+v\nthe clean one %+v", replayInputs(reps[0]), replayInputs(reps[1]))
			}
			if len(reps[0].Jobs) != 18 {
				t.Fatalf("recovered %d jobs, want 18", len(reps[0].Jobs))
			}
		})
	}
}

// unrenamed is the directory of a rotation that wrote the new snapshot
// to snapshot.json.tmp and died before the rename: the files from just
// before the rotation, its new empty segment, and the temporary file.
func unrenamed(before, after map[string][]byte) map[string][]byte {
	files := map[string][]byte{}
	for name, raw := range before {
		files[name] = raw
	}
	for name, raw := range after {
		if name == snapshotName {
			files[snapshotName+".tmp"] = raw
		} else if _, ok := files[name]; !ok {
			files[name] = raw
		}
	}
	return files
}

// TestStatsSubmitsCountsAcrossRestart: Stats.Submits counts the
// submissions a log recovered plus those appended since, through
// rotations, so that -serve's closing "N submissions" line is the
// whole log's.
func TestStatsSubmitsCountsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendJobs(t, l, 0, 8)
	if got := l.Stats().Submits; got != 8 {
		t.Fatalf("Submits = %d after 8 submissions", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, err = Open(dir, Options{NoSync: true, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.Stats().Submits; got != 8 {
		t.Fatalf("Submits = %d after Open, want the 8 recovered", got)
	}
	appendJobs(t, l, 8, 5)
	if got := l.Stats().Submits; got != 13 {
		t.Fatalf("Submits = %d, want 8 recovered + 5 new", got)
	}
}

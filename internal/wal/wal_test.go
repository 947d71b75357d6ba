package wal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"proteus/internal/bidbrain"
	"proteus/internal/core"
)

func testMeta() Meta {
	return Meta{
		Seed: 7, EvalDays: 3, TrainDays: 5, BetaSamples: 50, Zones: 1,
		Policy: "fair", TraceSeed: 1, MaxConcurrent: 2, Note: "test",
	}
}

func testJob(id int) JobRecord {
	p := bidbrain.DefaultParams()
	return JobRecord{
		ID:         id,
		Name:       fmt.Sprintf("job-%d", id),
		ArrivalNs:  int64(time.Duration(id) * 10 * time.Minute),
		Priority:   id % 3,
		DeadlineNs: int64(48 * time.Hour),
		Spec: core.JobSpec{
			TargetWork:    p.Phi * 256 * 1.37,
			Params:        p,
			ReliableType:  "c4.xlarge",
			ReliableCount: 3,
			MaxSpotCores:  256,
			ChunkCores:    128,
		},
	}
}

// everyKindRecords covers every record kind the scheduler writes and
// the audit kinds an older log holds, which recovery counts and skips.
func everyKindRecords() []Record {
	j := testJob(0)
	return []Record{
		{Kind: KindSubmit, AtNs: 0, JobID: 0, Job: &j},
		{Kind: "admit", AtNs: int64(time.Minute), JobID: 0},
		{Kind: "acquire", AtNs: int64(2 * time.Minute), JobID: -1, Alloc: 1, Cores: 128, Detail: "c4.2xlarge"},
		{Kind: KindLease, AtNs: int64(2 * time.Minute), JobID: 0, Alloc: 1, Cores: 128},
		{Kind: "evict-warning", AtNs: int64(time.Hour), JobID: 0, Alloc: 1, Cores: 128},
		{Kind: "release", AtNs: int64(time.Hour), JobID: 0, Alloc: 1, Cores: 128},
		{Kind: "evict", AtNs: int64(time.Hour + 2*time.Minute), JobID: 0, Alloc: 1},
		{Kind: "refund", AtNs: int64(time.Hour + 2*time.Minute), JobID: 0, Alloc: 1},
		{Kind: KindTick, AtNs: int64(2 * time.Hour), JobID: -1},
		{Kind: "done", AtNs: int64(3 * time.Hour), JobID: 0},
		{Kind: "expire", AtNs: int64(3 * time.Hour), JobID: 1},
	}
}

func TestCreateAppendRecover(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := everyKindRecords()
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meta != testMeta() {
		t.Fatalf("meta = %+v", rep.Meta)
	}
	if rep.LastSeq != uint64(len(recs)+1) { // +1 for the meta record
		t.Fatalf("LastSeq = %d, want %d", rep.LastSeq, len(recs)+1)
	}
	if len(rep.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(rep.Jobs))
	}
	wantJob := testJob(0)
	wantJob.Seq = 2 // recovery stamps each job with its submit record's seq
	got, _ := json.Marshal(rep.Jobs[0])
	want, _ := json.Marshal(wantJob)
	if string(got) != string(want) {
		t.Fatalf("job round-trip:\n got %s\nwant %s", got, want)
	}
	if rep.Records != len(recs)+1 { // every record, the meta one too
		t.Fatalf("Records = %d, want %d", rep.Records, len(recs)+1)
	}
	if rep.LastVirtual != 3*time.Hour {
		t.Fatalf("LastVirtual = %v", rep.LastVirtual)
	}
	if rep.TornDropped || rep.FromSnapshot {
		t.Fatalf("unexpected flags: %+v", rep)
	}
}

func TestRecordForwardCompat(t *testing.T) {
	// A future writer may add fields; today's reader must ignore them.
	j := testJob(3)
	raw, err := json.Marshal(Record{Seq: 9, Kind: KindSubmit, JobID: 3, Job: &j})
	if err != nil {
		t.Fatal(err)
	}
	withExtra := strings.TrimSuffix(string(raw), "}") + `,"future":"field","shard":7}`
	var rec Record
	if err := json.Unmarshal([]byte(withExtra), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 9 || rec.Kind != KindSubmit || rec.Job == nil || rec.Job.ID != 3 {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Kind: KindTick, JobID: -1, AtNs: int64(i) * int64(time.Minute)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, err := listSegments(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments = %v (%v)", names, err)
	}
	seg := filepath.Join(dir, names[0])

	// A crash mid-append leaves a prefix of a record on the tail.
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"seq":99,"kind":"tick","trunca`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornDropped {
		t.Fatal("torn tail not reported")
	}
	if rep.LastSeq != 4 {
		t.Fatalf("LastSeq = %d, want 4", rep.LastSeq)
	}
}

// TestTickWritesThrough: a watermark reaches the kernel on Append, with
// no Sync, so a SIGKILL keeps it (and every record before it); other
// records wait in the buffer for the next Sync or watermark.
func TestTickWritesThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	names, _, err := listSegments(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments = %v (%v)", names, err)
	}
	seg := filepath.Join(dir, names[0])
	onDisk := func() int {
		t.Helper()
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(raw), "\n")
	}
	j := testJob(0)
	if _, err := l.Append(Record{Kind: KindSubmit, JobID: 0, Job: &j}); err != nil {
		t.Fatal(err)
	}
	if n := onDisk(); n != 1 {
		t.Fatalf("%d frames in the segment after a submit, want only the meta record's: Append must buffer", n)
	}
	if _, err := l.Append(Record{Kind: KindTick, AtNs: int64(time.Hour), JobID: -1}); err != nil {
		t.Fatal(err)
	}
	if n := onDisk(); n != 3 {
		t.Fatalf("%d frames in the segment after a tick, want 3 (meta, submit, tick) without a Sync", n)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("%d syncs, want only Create's: a tick writes through without an fsync", st.Syncs)
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Kind: KindTick, JobID: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, _ := listSegments(dir)
	seg := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Flip a byte inside the second record's payload.
	lines[1] = lines[1][:12] + "X" + lines[1][13:]
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("mid-log corruption must abort recovery")
	}
}

func TestRotationSnapshotsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	l, err := Create(dir, testMeta(), Options{NoSync: true, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	jobs := 20
	for i := 0; i < jobs; i++ {
		j := testJob(i)
		if _, err := l.Append(Record{Kind: KindSubmit, JobID: i, Job: &j}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(Record{Kind: "admit", JobID: i, AtNs: int64(i) * int64(time.Minute)}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Snapshots == 0 {
		t.Fatalf("expected rotations+snapshots, got %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction keeps only segments at or after the active one.
	names, _, _ := listSegments(dir)
	if len(names) != 1 {
		t.Fatalf("segments after compaction = %v", names)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Fatalf("no snapshot: %v", err)
	}

	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FromSnapshot {
		t.Fatal("recovery ignored the snapshot")
	}
	if len(rep.Jobs) != jobs {
		t.Fatalf("jobs = %d, want %d", len(rep.Jobs), jobs)
	}
	for i, j := range rep.Jobs {
		if j.ID != i {
			t.Fatalf("jobs[%d].ID = %d", i, j.ID)
		}
	}
	if rep.LastSeq != uint64(1+2*jobs) {
		t.Fatalf("LastSeq = %d, want %d", rep.LastSeq, 1+2*jobs)
	}
}

func TestOpenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(0)
	if _, err := l.Append(Record{Kind: KindSubmit, JobID: 0, Job: &j}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastSeq != 2 || len(rep.Jobs) != 1 {
		t.Fatalf("replay = %+v", rep)
	}
	j2 := testJob(1)
	seq, err := l2.Append(Record{Kind: KindSubmit, JobID: 1, Job: &j2})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 {
		t.Fatalf("seq after reopen = %d, want 3", seq)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	rep2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Jobs) != 2 || rep2.Jobs[1].ID != 1 {
		t.Fatalf("jobs after reopen = %+v", rep2.Jobs)
	}
	if rep2.LastSeq != 3 {
		t.Fatalf("LastSeq = %d, want 3", rep2.LastSeq)
	}
}

func TestOpenAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(0)
	if _, err := l.Append(Record{Kind: KindSubmit, JobID: 0, Job: &j}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, _ := listSegments(dir)
	f, _ := os.OpenFile(filepath.Join(dir, names[0]), os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("0000000")
	f.Close()

	l2, rep, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornDropped || rep.LastSeq != 2 {
		t.Fatalf("replay = %+v", rep)
	}
	// The torn record is gone for good: the reopened log starts a fresh
	// segment and the old one is compacted away.
	if _, err := l2.Append(Record{Kind: KindTick, JobID: -1}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if rep2, err := Recover(dir); err != nil || rep2.TornDropped {
		t.Fatalf("second recovery: %+v, %v", rep2, err)
	}
}

func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Create(dir, testMeta(), Options{NoSync: true}); err == nil {
		t.Fatal("Create over an existing log must fail")
	}
}

func TestRecoverEmptyDirFails(t *testing.T) {
	if _, err := Recover(t.TempDir()); err == nil {
		t.Fatal("recovering an empty directory must fail")
	}
}

func TestSequenceGapRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(Record{Kind: KindTick, JobID: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _, _ := listSegments(dir)
	seg := filepath.Join(dir, names[0])
	raw, _ := os.ReadFile(seg)
	lines := strings.SplitAfter(string(raw), "\n")
	// Drop a whole record from the middle: a valid frame but a seq gap.
	out := strings.Join(append(lines[:2], lines[3:]...), "")
	if err := os.WriteFile(seg, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("want sequence-gap error, got %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(Record{Kind: KindTick, JobID: -1}); err == nil {
		t.Fatal("append after close must fail")
	}
}

// TestFrameChecksum pins the frame format: 8 hex chars, space, payload.
func TestFrameChecksum(t *testing.T) {
	payload := []byte(`{"seq":1,"kind":"tick","job_id":-1}`)
	line := []byte(fmt.Sprintf("%08x %s", crc32.ChecksumIEEE(payload), payload))
	rec, ok := decodeFrame(line)
	if !ok || rec.Kind != KindTick || rec.Seq != 1 {
		t.Fatalf("decodeFrame = %+v, %v", rec, ok)
	}
	line[3] ^= 1
	if _, ok := decodeFrame(line); ok {
		t.Fatal("bad checksum accepted")
	}
}

// TestAcceptedFrameRecovers is the log's contract with its own reader:
// every record Append accepts, Recover reads, because one bound —
// maxFrameBytes — decides both. Walked at the bound, one byte over it,
// and with the input that found the gap: 200 KB of a byte encoding/json
// escapes to six, a 1.2 MB frame. A refusal must leave no mark: not on
// disk, not in the counters, not as a sticky error.
func TestAcceptedFrameRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true, SegmentBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// sized returns a record that frames, as the log's next one, to
	// exactly size bytes: its detail is padded with a byte
	// encoding/json leaves alone.
	sized := func(size int) Record {
		r := Record{Seq: l.Stats().LastSeq + 1, Kind: "acquire", JobID: -1, Detail: "x"}
		one, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		r.Detail = strings.Repeat("x", size-(len(one)+10)+1)
		return r
	}
	escaped := testJob(0)
	escaped.Name = strings.Repeat("<", 200_000)
	accepted := 1 // the meta record
	for _, c := range []struct {
		name   string
		rec    func() Record
		accept bool
	}{
		{"escaped name", func() Record { return Record{Kind: KindSubmit, JobID: 0, Job: &escaped} }, false},
		{"one byte over", func() Record { return sized(maxFrameBytes + 1) }, false},
		{"at the bound", func() Record { return sized(maxFrameBytes) }, true},
		{"after the refusals", func() Record { return Record{Kind: KindTick, JobID: -1} }, true},
	} {
		before := l.Stats()
		_, err := l.Append(c.rec())
		if (err == nil) != c.accept {
			t.Errorf("%s: Append returned %v, want accepted = %v", c.name, err, c.accept)
		}
		if err == nil {
			accepted++
		} else if after := l.Stats(); after != before {
			t.Errorf("%s: the refused append left its mark: %+v", c.name, after)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(dir)
	if err != nil {
		t.Fatalf("the log cannot read what it wrote: %v", err)
	}
	if rep.Records != accepted || rep.TornDropped {
		t.Fatalf("recovered %d records (torn %v), want the %d accepted", rep.Records, rep.TornDropped, accepted)
	}
}

// TestRecordIsOneLine: the log splits records on '\n', so a newline in
// a record's text must never reach the segment raw.
func TestRecordIsOneLine(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, testMeta(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(0)
	j.Name = "line1\nline2\r\n"
	if _, err := l.Append(Record{Kind: KindSubmit, JobID: 0, Job: &j, Detail: "a\nb"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil || strings.Count(string(raw), "\n") != 2 {
		t.Fatalf("meta + submit must be two lines (err %v):\n%s", err, raw)
	}
	if rep, err := Recover(dir); err != nil || len(rep.Jobs) != 1 || rep.Jobs[0].Name != j.Name {
		t.Fatalf("recovered %+v (err %v), want the name back intact", rep, err)
	}
}

// TestAppendAllocs holds the append path every scheduler transition
// pays (JSON encode, checksum frame, buffered write) to 4 allocations
// per record. NoSync and an oversized segment leave fsync and rotation
// out of it. Under the race detector the count moves (sync.Pool), so
// the budget runs without it only.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the append path's allocation count moves under the race detector")
	}
	const budget = 4
	l, err := Create(t.TempDir(), Meta{Seed: 1, Policy: "fair"}, Options{NoSync: true, SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		_, err := l.Append(Record{
			Kind:   KindLease,
			AtNs:   int64(i) * 1e6,
			JobID:  i & 7,
			Alloc:  i & 15,
			Cores:  128,
			Detail: "c4.xlarge spot",
		})
		if err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%v allocs per Append", allocs)
	if allocs > budget {
		t.Fatalf("Append allocates %v times per record, over the budget of %d", allocs, budget)
	}
}

// TestRecoverAllocs holds recovery of a log shaped like a real run (one
// meta record, 256 submissions, 4,096 ticks in one segment) to 32,143
// allocations: 1.15 × the 27,951 it read when the budget was set. A
// restarted control plane replays its whole history before it serves,
// so a decoder that allocates more per record shows here at once.
func TestRecoverAllocs(t *testing.T) {
	const budget = 32143
	dir := t.TempDir()
	l, err := Create(dir, Meta{Seed: 1, Policy: "fair"}, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	params := bidbrain.DefaultParams()
	spec := core.JobSpec{
		TargetWork:    params.Phi * 256,
		Params:        params,
		ReliableType:  "c4.xlarge",
		ReliableCount: 3,
		MaxSpotCores:  512,
		ChunkCores:    128,
	}
	for i := 0; i < 256; i++ {
		job := JobRecord{ID: i, Name: "tenant", ArrivalNs: int64(i) * 1e9, Spec: spec}
		if _, err := l.Append(Record{Kind: KindSubmit, JobID: i, Job: &job}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		if _, err := l.Append(Record{Kind: KindTick, AtNs: int64(i) * 1e8, JobID: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		rep, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Jobs) != 256 {
			t.Fatalf("recovered %d jobs, want 256", len(rep.Jobs))
		}
	})
	t.Logf("%v allocs per Recover", allocs)
	if allocs > budget {
		t.Fatalf("Recover allocates %v times, over the budget of %d", allocs, budget)
	}
}

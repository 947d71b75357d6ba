// Package wal is the scheduler's durability subsystem: a segmented,
// checksummed write-ahead log plus snapshot/compaction, so a crashed
// `-serve` control plane can recover to bit-identical state.
//
// The design leans on the repository's core property: the whole control
// plane is a deterministic simulator. A run is fully determined by its
// *inputs* — the market/Brain environment (seed, windows, policy) and
// the stream of accepted submissions with their effective arrival
// offsets — so the log does not need to capture simulator state at all.
// Recovery rebuilds the same environment, re-submits the logged jobs,
// and replays virtual time from zero; bills, trace trees, and /v1/stats
// land on the same bits as an uninterrupted run (PR 3 established
// serve ≡ batch on the same inputs; recovery is just another batch).
// So the log holds the inputs and one thing more: the meta record, one
// submit per accepted job, and tick records, the virtual-time
// watermarks the scheduler appends at most once per virtual hour and
// once at settle. The newest watermark is the resume point a recovered
// service fast-forwards to unpaced. What the scheduler did with its
// inputs is not logged: replay re-derives every transition, and the
// span stream is the audit record. The audit kinds (admit, lease,
// release, evict, refund, done, ...) stay defined so that logs written
// while the scheduler appended them still decode; Recover counts them,
// with the watermarks, as Transitions.
//
// There is one writer, one on-disk layout and one decoder. The layout
// (one directory):
//
//	wal-<firstseq>.log   segments: one record per line, CRC32-framed JSONL
//	snapshot.json        replay inputs covering records with seq ≤ last_seq
//
// Each segment line is "crc32(payload) in %08x, one space, payload,
// newline", with the payload one encoding/json object (which never holds
// a raw newline, so lines split safely). A whole frame is at most
// maxFrameBytes: Append refuses a longer one and the reader's buffer is
// that size, so every frame Append accepts, Recover reads. Only the
// final line of the final segment may fail its checksum (a torn write
// from a crash mid-append); it is dropped on recovery. A bad record with
// valid data after it is real corruption and aborts recovery.
//
// Appends are buffered (no syscall on the hot path), except a tick:
// Append writes a watermark, and everything buffered before it, through
// to the kernel with no fsync. So after a SIGKILL a log resumes at most
// one watermark behind the crash, and after a power loss from its last
// Sync. Sync flushes and fsyncs — group commit falls out of a single
// mutex: the first waiter's fsync covers every record appended before
// it, and later waiters see a clean log and return without a syscall.
// Rotation (by segment size) writes a fresh snapshot and deletes the
// segments it covers, bounding both disk and recovery time.
//
// A rotation costs what its segments added, not what the log has ever
// accepted. The log keeps only the submissions appended since the last
// snapshot, plus where that snapshot's jobs array lies in its file. The
// next snapshot streams to snapshot.json.tmp in one pass: the old
// array's elements copied as bytes, the new submissions encoded one at
// a time. One fsync, the rename over snapshot.json and a directory sync
// follow. The file is byte-identical to json.Marshal of the whole
// Snapshot, so readers do not know how it was written. Only a snapshot
// this process wrote is carried forward: Open writes its first one
// whole, from the replay. A crash mid-rotation leaves one of three
// states, and each recovers the inputs of the finished rotation:
//
//   - a truncated or complete snapshot.json.tmp beside the old snapshot:
//     Recover never reads it, the sealed segments still hold every
//     record, and Open's own snapshot overwrites it;
//   - the new snapshot beside the segments it covers: Recover skips
//     their records by sequence number, and Open removes them.
//
// Recovery streams each segment through scanFrames and decodeFrame
// (CRC check + encoding/json), serially. Reading the log is
// 1–2 % of a restart — the rest re-simulates the run — so nothing here
// is built for speed (DESIGN.md "Durability" has the measurements).
// sharded.go reads the one retired layout (`shard-NNN/` streams) so that
// Open can fold such a directory into this one.
package wal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"proteus/internal/core"
)

// Record kinds. Meta and submit records are the replay inputs, tick
// records the scheduler's virtual-time watermarks. The scheduler writes
// no other kind; the rest are the audit trail of older logs, defined so
// those logs still decode.
const (
	// KindMeta is the first record of a log: the environment inputs.
	KindMeta = "meta"
	// KindSubmit is one accepted job with its effective (post-clamp)
	// arrival offset — the replay inputs.
	KindSubmit = "submit"
	// KindAdmit marks a job winning a concurrency slot.
	KindAdmit = "admit"
	// KindLease marks an allocation leased to a job.
	KindLease = "lease"
	// KindRelease marks a lease reclaimed from a job.
	KindRelease = "release"
	// KindWarning marks an eviction warning reclaiming a lease.
	KindWarning = "evict-warning"
	// KindEvict marks an allocation's machines vanishing.
	KindEvict = "evict"
	// KindRefund marks an eviction refunding the in-progress hour.
	KindRefund = "refund"
	// KindAcquire marks a spot acquisition joining the footprint.
	KindAcquire = "acquire"
	// KindDone marks a job reaching its target work.
	KindDone = "done"
	// KindExpire marks a job arriving at or after its deadline.
	KindExpire = "expire"
	// KindTick is a virtual-time watermark: the run had reached AtNs.
	// Append writes it through to the kernel.
	KindTick = "tick"
	// KindPreDrain marks a forecast-initiated proactive drain of a
	// still-live allocation (audit-only, like the other transitions: the
	// forecaster re-derives the same decision from the replayed price
	// stream).
	KindPreDrain = "pre-drain"
)

// Meta pins the inputs that determine a run besides its submissions:
// the market environment and the scheduler's policy knobs. Recovery
// rebuilds the environment from these instead of trusting flags, so a
// restart with different flags still replays the original run.
type Meta struct {
	Seed        int64  `json:"seed"`
	EvalDays    int    `json:"eval_days"`
	TrainDays   int    `json:"train_days"`
	BetaSamples int    `json:"beta_samples"`
	Zones       int    `json:"zones"`
	Policy      string `json:"policy"`
	TraceSeed   uint64 `json:"trace_seed"`
	// MaxConcurrent mirrors the scheduler's concurrency cap (0 =
	// unbounded); it changes admission order, so replay must match it.
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// Forecast records whether the online eviction forecaster was
	// enabled; proactive pre-drains change lease history, so replay must
	// run with the same forecaster (default options) to be identical.
	Forecast bool `json:"forecast,omitempty"`
	// Note is free-form provenance (binary version, operator comment).
	Note string `json:"note,omitempty"`
}

// JobRecord is one accepted submission in replayable form. Durations are
// integer nanoseconds so replay is exact; the spec marshals through
// encoding/json, whose float encoding round-trips bit-exactly.
type JobRecord struct {
	ID         int          `json:"id"`
	Name       string       `json:"name,omitempty"`
	ArrivalNs  int64        `json:"arrival_ns"`
	Priority   int          `json:"priority,omitempty"`
	DeadlineNs int64        `json:"deadline_ns,omitempty"`
	Proactive  bool         `json:"proactive,omitempty"`
	Spec       core.JobSpec `json:"spec"`
	// Seq is the submit record's sequence number, stamped during recovery
	// and snapshotting: submission order survives compaction (and orders
	// the merge of a legacy sharded directory's streams).
	Seq uint64 `json:"seq,omitempty"`
}

// Record is one WAL entry. Seq is assigned by Append; JobID is -1 when
// the record concerns no job (meta, tick).
type Record struct {
	Seq    uint64     `json:"seq"`
	Kind   string     `json:"kind"`
	AtNs   int64      `json:"at_ns,omitempty"` // virtual time of the record
	JobID  int        `json:"job_id"`
	Alloc  int        `json:"alloc,omitempty"`
	Cores  int        `json:"cores,omitempty"`
	Amount float64    `json:"amount,omitempty"`
	Detail string     `json:"detail,omitempty"`
	Job    *JobRecord `json:"job,omitempty"`
	Meta   *Meta      `json:"meta,omitempty"`
}

// Snapshot is the compaction artifact: the replay inputs for every
// record with seq ≤ LastSeq, letting those segments be deleted.
type Snapshot struct {
	Meta          Meta        `json:"meta"`
	LastSeq       uint64      `json:"last_seq"`
	LastVirtualNs int64       `json:"last_virtual_ns"`
	Jobs          []JobRecord `json:"jobs"`
}

// Replay is what Recover reads back: everything needed to rebuild the
// scheduler plus bookkeeping about the log itself.
type Replay struct {
	Meta Meta
	// Jobs are the accepted submissions in log order (snapshot first).
	Jobs []JobRecord
	// LastSeq is the sequence number of the last durable record.
	LastSeq uint64
	// LastVirtual is the latest virtual instant any record carries — the
	// catch-up target for a recovered Serve loop.
	LastVirtual time.Duration
	// Records and Transitions count segment records replayed beyond the
	// snapshot. Transitions counts all but meta and submit records: the
	// watermarks, and an older log's audit records.
	Records     int
	Transitions int
	// Segments is how many segment files were scanned.
	Segments int
	// FromSnapshot reports whether a snapshot seeded the replay.
	FromSnapshot bool
	// TornDropped reports that a partially-written final record failed
	// its checksum and was dropped (a crash mid-append, not corruption).
	TornDropped bool
}

// Options tunes a Log. The zero value is production-ready.
type Options struct {
	// SegmentBytes rotates (and compacts) the log when the active
	// segment exceeds this size. Zero picks 4 MiB.
	SegmentBytes int
	// NoSync skips every fsync — for tests and benchmarks that exercise
	// the logic without paying the disk.
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Stats is a point-in-time summary of the log, surfaced in /v1/stats.
type Stats struct {
	Dir       string `json:"dir"`
	LastSeq   uint64 `json:"last_seq"`
	Appends   uint64 `json:"appends"`
	Syncs     uint64 `json:"syncs"`
	Rotations uint64 `json:"rotations"`
	Snapshots uint64 `json:"snapshots"`
	Submits   int    `json:"submits"`
	// SegmentFill is bytes written to the active segment so far.
	SegmentFill int    `json:"segment_fill"`
	Err         string `json:"error,omitempty"`
}

// Writer is the append side of a write-ahead log: what the scheduler
// needs of *Log, and the seam a caller wraps to time or fault-inject it.
type Writer interface {
	Append(Record) (uint64, error)
	Sync() error
	Close() error
	Stats() Stats
	Meta() Meta
}

// Log is an open write-ahead log. Safe for concurrent use. I/O errors
// are sticky: once an append or sync fails, every later call returns the
// same error — the log can no longer promise durability.
type Log struct {
	dir  string
	opts Options

	mu         sync.Mutex
	f          *os.File
	w          *bufio.Writer
	meta       Meta
	nextSeq    uint64
	segStart   uint64 // first seq of the active segment
	segFill    int
	dirty      bool
	closed     bool
	err        error
	lastVirtNs int64

	// The snapshot file holds every submission before pending; the
	// elements of its jobs array are its bytes [jobsOff, jobsEnd), an
	// empty range when it holds none. Only a snapshot this Log wrote is
	// carried forward: Open writes its first one whole.
	pending []JobRecord
	jobsOff int64
	jobsEnd int64
	submits int // recovered plus appended

	appends   uint64
	syncs     uint64
	rotations uint64
	snapshots uint64
}

const (
	snapshotName = "snapshot.json"
	segPrefix    = "wal-"
	segSuffix    = ".log"
)

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

// listSegments returns the directory's segment files sorted by first
// sequence number.
func listSegments(dir string) ([]string, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		first, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: bad segment name %q", name)
		}
		names = append(names, name)
		firsts = append(firsts, first)
	}
	sort.Sort(&segSort{names, firsts})
	return names, firsts, nil
}

type segSort struct {
	names  []string
	firsts []uint64
}

func (s *segSort) Len() int           { return len(s.names) }
func (s *segSort) Less(i, j int) bool { return s.firsts[i] < s.firsts[j] }
func (s *segSort) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.firsts[i], s.firsts[j] = s.firsts[j], s.firsts[i]
}

// Exists reports whether dir holds a prior WAL (segments, a snapshot, or
// the shard directories of the legacy layout) — the Open-vs-Create
// decision for a service boot.
func Exists(dir string) bool {
	if names, _, err := listSegments(dir); err == nil && len(names) > 0 {
		return true
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		return true
	}
	return len(shardDirs(dir)) > 0
}

// Create initializes a fresh log in dir (created if missing, must hold
// no prior WAL files) and writes the meta record as seq 1.
func Create(dir string, meta Meta, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	names, _, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(names) > 0 || len(shardDirs(dir)) > 0 {
		return nil, fmt.Errorf("wal: %s already holds a log (use Open to recover it)", dir)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		return nil, fmt.Errorf("wal: %s already holds a snapshot (use Open to recover it)", dir)
	}
	l := &Log{dir: dir, opts: opts.withDefaults(), meta: meta, nextSeq: 1}
	if err := l.openSegmentLocked(); err != nil {
		return nil, err
	}
	if _, err := l.Append(Record{Kind: KindMeta, JobID: -1, Meta: &meta}); err != nil {
		return nil, err
	}
	if err := l.Sync(); err != nil {
		return nil, err
	}
	return l, nil
}

// Open recovers an existing log and reopens it for appending. The
// returned Replay carries the inputs to rebuild the scheduler. Appends
// continue in a fresh segment (never into a possibly-torn old one), and
// a new snapshot immediately compacts the recovered history — which is
// also what turns a legacy sharded directory into a flat one: the
// snapshot holds the merged streams, and once it is durable the shard
// directories are redundant and go. The fresh segment's first sequence
// is bumped past any existing segment name so a record-less active
// segment left by a crash never collides.
func Open(dir string, opts Options) (*Log, *Replay, error) {
	r, err := Recover(dir)
	if err != nil {
		return nil, nil, err
	}
	nextSeq := r.LastSeq + 1
	if _, firsts, err := listSegments(dir); err != nil {
		return nil, nil, err
	} else if n := len(firsts); n > 0 && firsts[n-1] >= nextSeq {
		nextSeq = firsts[n-1] + 1
	}
	l := &Log{
		dir:        dir,
		opts:       opts.withDefaults(),
		meta:       r.Meta,
		nextSeq:    nextSeq,
		submits:    len(r.Jobs),
		lastVirtNs: int64(r.LastVirtual),
	}
	if err := l.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.snapshotLocked(r.Jobs); err != nil {
		return nil, nil, err
	}
	if err := l.removeCoveredLocked(); err != nil {
		return nil, nil, err
	}
	if err := l.removeShardsLocked(); err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// Recover reads a log directory without opening it for writes: snapshot
// (if any), then every segment in order, verifying checksums and
// sequence continuity. A torn final record is dropped; anything else
// malformed aborts with an error. The replay's LastVirtual is the
// newest instant any record carries: the last watermark, or a later
// submission.
func Recover(dir string) (*Replay, error) {
	// Shard directories are the legacy layout — unless a flat snapshot
	// sits next to them: that is a migration (see Open) that died before
	// it removed them, and the snapshot already holds what they held.
	_, flatErr := os.Stat(filepath.Join(dir, snapshotName))
	if shards := shardDirs(dir); len(shards) > 0 && flatErr != nil {
		return recoverShards(dir, shards)
	}
	r, _, err := recoverDir(dir, false)
	return r, err
}

// recoverDir scans one log directory. In strict mode (a flat log)
// sequence numbers must be contiguous and a meta record (or snapshot)
// must be present. In loose mode — one stream of a legacy sharded
// directory, which holds an arbitrary subset of the global sequence
// space — seqs need only increase, and meta is optional (only shard 0
// carries the meta record; the others gain it with their first
// snapshot). The second return reports whether a meta was found.
func recoverDir(dir string, loose bool) (*Replay, bool, error) {
	r := &Replay{}
	expected := uint64(1)
	haveMeta := false

	if raw, err := os.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, false, fmt.Errorf("wal: %s: %w", snapshotName, err)
		}
		r.Meta = snap.Meta
		r.Jobs = snap.Jobs
		r.LastSeq = snap.LastSeq
		r.LastVirtual = time.Duration(snap.LastVirtualNs)
		r.FromSnapshot = true
		haveMeta = true
		expected = snap.LastSeq + 1
	} else if !os.IsNotExist(err) {
		return nil, false, fmt.Errorf("wal: %w", err)
	}

	names, _, err := listSegments(dir)
	if err != nil {
		return nil, false, err
	}
	if len(names) == 0 && !r.FromSnapshot {
		return nil, false, fmt.Errorf("wal: %s holds no log", dir)
	}
	r.Segments = len(names)
	snapLast := r.LastSeq

	for i, name := range names {
		last := i == len(names)-1
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, false, fmt.Errorf("wal: %w", err)
		}
		torn := false
		scanErr := scanFrames(f, func(line []byte) error {
			if torn {
				return fmt.Errorf("wal: %s: corrupt record followed by more data", name)
			}
			rec, ok := decodeFrame(line)
			if !ok {
				torn = true
				return nil
			}
			if rec.Seq <= snapLast {
				return nil // already covered by the snapshot
			}
			if loose {
				if rec.Seq < expected {
					return fmt.Errorf("wal: %s: sequence went backwards: got %d after %d", name, rec.Seq, expected-1)
				}
			} else if rec.Seq != expected {
				return fmt.Errorf("wal: %s: sequence gap: got %d, want %d", name, rec.Seq, expected)
			}
			expected = rec.Seq + 1
			r.LastSeq = rec.Seq
			r.Records++
			if at := time.Duration(rec.AtNs); at > r.LastVirtual {
				r.LastVirtual = at
			}
			switch rec.Kind {
			case KindMeta:
				if rec.Meta != nil && !haveMeta {
					r.Meta = *rec.Meta
					haveMeta = true
				}
			case KindSubmit:
				if rec.Job == nil {
					return fmt.Errorf("wal: %s: submit record %d without a job", name, rec.Seq)
				}
				jr := *rec.Job
				jr.Seq = rec.Seq
				r.Jobs = append(r.Jobs, jr)
			default:
				r.Transitions++
			}
			return nil
		})
		f.Close() // read-only: nothing to lose
		if scanErr != nil {
			return nil, false, scanErr
		}
		if torn {
			if !last {
				return nil, false, fmt.Errorf("wal: %s: corrupt final record in a non-final segment", name)
			}
			r.TornDropped = true
		}
	}
	if !haveMeta && !loose {
		return nil, false, fmt.Errorf("wal: %s holds no meta record", dir)
	}
	return r, haveMeta, nil
}

// maxFrameBytes bounds one frame, newline included. It is the writer's
// limit and the reader's buffer at once: a record is a few hundred
// bytes, so 1 MiB is reached only by hostile input.
const maxFrameBytes = 1 << 20

// ErrFrameTooLarge is what Append wraps when it refuses a record over
// that bound: the one Append error that blames the record and leaves
// the log usable.
var ErrFrameTooLarge = errors.New("wal: frame too large")

// scanFrames calls fn for every non-empty line of r, without its
// newline, and stops at the first fn error. A final line lacking its
// newline (a torn tail from a crashed writer) is still delivered;
// decodeFrame's checksum decides whether to keep it.
func scanFrames(r io.Reader, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxFrameBytes)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			if err := fn(line); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// decodeFrame parses one "crc payload" line; ok is false for a torn or
// corrupt record (bad frame, checksum mismatch, or unparsable JSON). It
// is the only function that turns a frame into a Record.
func decodeFrame(line []byte) (Record, bool) {
	var rec Record
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return rec, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return rec, false
	}
	if json.Unmarshal(payload, &rec) != nil {
		return rec, false
	}
	return rec, true
}

// Append adds one record (Seq is assigned here) to the buffered tail and
// returns its sequence number. No syscall unless the record is a tick
// (a watermark, written through to the kernel with no fsync) or the
// append triggers a rotation; call Sync before externalizing anything
// that depends on the record being durable.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	r.Seq = l.nextSeq
	line, err := json.Marshal(r)
	if err != nil {
		return 0, err // encoding bug, not an I/O failure: not sticky
	}
	size := len(line) + 10 // 8 hex digits, a space, the payload, a newline
	if size > maxFrameBytes {
		// The caller's record is at fault, not the log: not sticky either.
		return 0, fmt.Errorf("%w: %s record frames to %d bytes, over the %d-byte bound", ErrFrameTooLarge, r.Kind, size, maxFrameBytes)
	}
	frame := make([]byte, 0, size)
	frame = fmt.Appendf(frame, "%08x ", crc32.ChecksumIEEE(line))
	frame = append(frame, line...)
	frame = append(frame, '\n')
	if _, err := l.w.Write(frame); err != nil {
		l.err = err
		return 0, err
	}
	if r.Kind == KindTick {
		// A watermark is the resume point a SIGKILL must not lose: hand
		// it, and everything buffered before it, to the kernel now.
		if err := l.w.Flush(); err != nil {
			l.err = err
			return 0, err
		}
	}
	l.nextSeq = r.Seq + 1
	l.dirty = true
	l.appends++
	l.segFill += len(frame)
	if r.AtNs > l.lastVirtNs {
		l.lastVirtNs = r.AtNs
	}
	if r.Kind == KindSubmit && r.Job != nil {
		jr := *r.Job
		jr.Seq = r.Seq
		l.pending = append(l.pending, jr)
		l.submits++
	}
	if l.segFill >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return 0, err
		}
	}
	return r.Seq, nil
}

// Sync makes every appended record durable. Group commit is the mutex:
// one caller's flush+fsync covers all records appended before it, and
// callers arriving while it runs find a clean log and return without a
// syscall of their own.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.err != nil {
		return l.err
	}
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			l.err = err
			return err
		}
	}
	l.dirty = false
	l.syncs++
	return nil
}

// rotateLocked seals the active segment, starts the next one, writes a
// snapshot covering everything sealed, and deletes the segments the
// snapshot covers.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f, l.w = nil, nil
	if err := l.openSegmentLocked(); err != nil {
		return err
	}
	if err := l.snapshotLocked(l.pending); err != nil {
		return err
	}
	if err := l.removeCoveredLocked(); err != nil {
		return err
	}
	l.rotations++
	return nil
}

// openSegmentLocked creates the segment whose first record will be
// nextSeq and makes its directory entry durable.
func (l *Log) openSegmentLocked() error {
	name := segmentName(l.nextSeq)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 64*1024)
	l.segStart = l.nextSeq
	l.segFill = 0
	return l.syncDir()
}

// snapshotLocked writes snapshot.json (tmp + rename) covering every
// record before the active segment's first sequence: the jobs the
// current snapshot holds, then fresh. Once the new file is durable in
// the directory, pending is cleared: the file holds those jobs now.
func (l *Log) snapshotLocked(fresh []JobRecord) error {
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	jobsOff, jobsEnd, err := l.writeSnapshot(f, fresh)
	if err == nil && !l.opts.NoSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return err
	}
	l.snapshots++
	if err := l.syncDir(); err != nil {
		return err
	}
	l.jobsOff, l.jobsEnd = jobsOff, jobsEnd
	l.pending = nil
	return nil
}

// writeSnapshot streams one snapshot into f and returns the byte range
// of its jobs array's elements. The bytes are json.Marshal(Snapshot{…})
// of the whole job list, written in one pass: the header, the current
// snapshot's elements copied verbatim, then each fresh job encoded into
// one reused buffer. So a rotation encodes only what its segments
// added, and holds no more than one job's encoding at a time.
func (l *Log) writeSnapshot(f *os.File, fresh []JobRecord) (jobsOff, jobsEnd int64, err error) {
	// Marshalling the snapshot without jobs renders every other field
	// exactly as the whole one would, ending in "jobs":null}.
	head, err := json.Marshal(Snapshot{Meta: l.meta, LastSeq: l.segStart - 1, LastVirtualNs: l.lastVirtNs})
	if err != nil {
		return 0, 0, err
	}
	head = bytes.TrimSuffix(head, []byte("null}"))
	w := bufio.NewWriterSize(f, 64*1024)
	w.Write(head)
	carried := l.jobsEnd - l.jobsOff
	if carried == 0 && len(fresh) == 0 {
		w.WriteString("null}") // json.Marshal of a nil slice
		return 0, 0, w.Flush()
	}
	w.WriteByte('[')
	jobsOff = int64(len(head)) + 1
	jobsEnd = jobsOff
	if carried > 0 {
		old, err := os.Open(filepath.Join(l.dir, snapshotName))
		if err != nil {
			return 0, 0, fmt.Errorf("wal: %w", err)
		}
		n, err := io.Copy(w, io.NewSectionReader(old, l.jobsOff, carried))
		old.Close() // read-only: nothing to lose
		if err != nil {
			return 0, 0, fmt.Errorf("wal: carrying %s forward: %w", snapshotName, err)
		}
		if n != carried {
			return 0, 0, fmt.Errorf("wal: %s is shorter than the log wrote it", snapshotName)
		}
		jobsEnd += n
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range fresh {
		if jobsEnd > jobsOff {
			w.WriteByte(',')
			jobsEnd++
		}
		buf.Reset()
		if err := enc.Encode(&fresh[i]); err != nil {
			return 0, 0, err
		}
		job := buf.Bytes()[:buf.Len()-1] // Encode ends each value with a newline
		w.Write(job)
		jobsEnd += int64(len(job))
	}
	w.WriteString("]}")
	return jobsOff, jobsEnd, w.Flush() // bufio keeps the first write error
}

// removeCoveredLocked deletes segments fully covered by the snapshot
// (everything before the active segment).
func (l *Log) removeCoveredLocked() error {
	names, firsts, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	removed := false
	for i, name := range names {
		if firsts[i] >= l.segStart {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
			return err
		}
		removed = true
	}
	if !removed {
		return nil
	}
	return l.syncDir()
}

// syncDir makes directory-entry changes (segment create, snapshot
// rename, segment removal) durable.
func (l *Log) syncDir() error {
	if l.opts.NoSync {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Close flushes and fsyncs the tail, then closes the active segment.
// The graceful-shutdown path must call this so the last records survive
// the exit. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	syncErr := l.syncLocked()
	var closeErr error
	if l.f != nil {
		closeErr = l.f.Close()
		l.f, l.w = nil, nil
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// LastSeq returns the sequence number of the most recently appended
// record (0 when only nothing or the meta record is pending assignment).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Meta returns the log's environment record.
func (l *Log) Meta() Meta {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.meta
}

// Stats summarizes the log for /v1/stats.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Dir:         l.dir,
		LastSeq:     l.nextSeq - 1,
		Appends:     l.appends,
		Syncs:       l.syncs,
		Rotations:   l.rotations,
		Snapshots:   l.snapshots,
		Submits:     l.submits,
		SegmentFill: l.segFill,
	}
	if l.err != nil {
		st.Err = l.err.Error()
	}
	return st
}

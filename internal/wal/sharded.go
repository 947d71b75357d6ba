package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Sharded is a write-ahead log fanned out over N per-shard segment
// streams, so rotation, snapshotting, and fsync scale with the decision
// loop instead of funneling through one file. There is a single global
// sequence space: the router assigns each record its seq, then appends
// it to the stream its job hashes to (meta and job-less records pin to
// shard 0), so one stream holds an increasing — but gapped — subset of
// the global sequence. Recovery scans every stream loosely and k-way
// merges the results by seq; the group-commit Sync barrier covers all
// shards before any submission is acknowledged, so a crash can only
// lose records that were never externalized, exactly the flat log's
// guarantee.
//
// On-disk layout (one directory):
//
//	shard-000/  a standard Log directory (segments + snapshot)
//	shard-001/
//	...
type Sharded struct {
	dir  string
	meta Meta

	mu      sync.Mutex
	shards  []*Log
	nextSeq uint64
	closed  bool
}

const shardDirPrefix = "shard-"

func shardDirName(k int) string {
	return fmt.Sprintf("%s%03d", shardDirPrefix, k)
}

// ShardFor routes a job ID to a shard in [0, n): job-less records
// (negative IDs) pin to shard 0; real jobs hash through a SplitMix64
// finalizer so tenants spread evenly regardless of ID patterns.
func ShardFor(jobID, n int) int {
	if n <= 1 || jobID < 0 {
		return 0
	}
	x := uint64(jobID)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// IsSharded reports whether dir holds a sharded WAL layout.
func IsSharded(dir string) bool {
	return Exists(filepath.Join(dir, shardDirName(0)))
}

// CreateSharded initializes a fresh sharded log: n shard streams under
// dir, with the meta record at global seq 1 on shard 0.
func CreateSharded(dir string, meta Meta, n int, opts Options) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("wal: shard count must be >= 1, got %d", n)
	}
	if IsSharded(dir) {
		return nil, fmt.Errorf("wal: %s already holds a sharded log (use OpenSharded to recover it)", dir)
	}
	meta.WALShards = n
	s := &Sharded{dir: dir, meta: meta, shards: make([]*Log, n), nextSeq: 1}
	for k := range s.shards {
		l, err := createLog(filepath.Join(dir, shardDirName(k)), meta, opts)
		if err != nil {
			return nil, err
		}
		s.shards[k] = l
	}
	if _, err := s.Append(Record{Kind: KindMeta, JobID: -1, Meta: &meta}); err != nil {
		return nil, err
	}
	if err := s.Sync(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenSharded recovers a sharded log directory and reopens every shard
// stream for appending. Each stream is recovered loosely (its seqs are
// a gapped subset of the global space), then the per-shard replays
// merge: jobs re-sort into global submission order by their stamped
// seq, counters sum, and the clocks take the max across shards.
func OpenSharded(dir string, opts Options) (*Sharded, *Replay, error) {
	merged, replays, names, err := recoverShards(dir, opts.RecoverWorkers)
	if err != nil {
		return nil, nil, err
	}
	s := &Sharded{dir: dir, meta: merged.Meta, shards: make([]*Log, len(names)), nextSeq: merged.LastSeq + 1}
	for k, name := range names {
		// Every stream snapshots with the shared meta from here on, even
		// ones that never saw the meta record or a snapshot of their own.
		replays[k].Meta = merged.Meta
		l, err := openFrom(filepath.Join(dir, name), opts, replays[k])
		if err != nil {
			return nil, nil, err
		}
		s.shards[k] = l
	}
	return s, merged, nil
}

// RecoverSharded reads a sharded log directory without opening it for
// writes, merging the per-shard streams exactly as OpenSharded does.
func RecoverSharded(dir string) (*Replay, error) {
	return RecoverShardedWith(dir, RecoverOptions{})
}

// RecoverShardedWith is RecoverSharded with explicit decode options.
func RecoverShardedWith(dir string, opts RecoverOptions) (*Replay, error) {
	merged, _, _, err := recoverShards(dir, opts.Workers)
	return merged, err
}

// recoverShards scans every shard stream — concurrently, splitting the
// worker budget across streams — and merges the per-shard replays into
// the global view. The merge consumes the indexed results in shard
// order and errors select the lowest-numbered failing shard, so the
// outcome is independent of goroutine scheduling.
func recoverShards(dir string, workers int) (*Replay, []*Replay, []string, error) {
	names, err := shardDirs(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("wal: %s holds no sharded log", dir)
	}
	workers = decodeWorkers(workers)
	per := workers / len(names)
	if per < 1 {
		per = 1
	}
	conc := workers
	if conc > len(names) {
		conc = len(names)
	}
	replays := make([]*Replay, len(names))
	metas := make([]bool, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for k, name := range names {
		wg.Add(1)
		go func(k int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			replays[k], metas[k], errs[k] = recoverDir(filepath.Join(dir, name), true, per)
		}(k, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, nil, err
		}
	}
	merged := &Replay{}
	haveMeta := false
	for k, r := range replays {
		if metas[k] && !haveMeta {
			merged.Meta = r.Meta
			haveMeta = true
		}
		merged.Jobs = append(merged.Jobs, r.Jobs...)
		merged.Records += r.Records
		merged.Transitions += r.Transitions
		merged.Segments += r.Segments
		merged.FromSnapshot = merged.FromSnapshot || r.FromSnapshot
		merged.TornDropped = merged.TornDropped || r.TornDropped
		if r.LastSeq > merged.LastSeq {
			merged.LastSeq = r.LastSeq
		}
		if r.LastVirtual > merged.LastVirtual {
			merged.LastVirtual = r.LastVirtual
		}
	}
	if !haveMeta {
		return nil, nil, nil, fmt.Errorf("wal: %s holds no meta record in any shard", dir)
	}
	// Global submission order is the seq order; every submit record was
	// stamped with its global seq on the way in.
	sort.Slice(merged.Jobs, func(i, j int) bool { return merged.Jobs[i].Seq < merged.Jobs[j].Seq })
	return merged, replays, names, nil
}

// shardDirs lists dir's shard subdirectories in shard order, verifying
// the numbering is contiguous from zero.
func shardDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) > len(shardDirPrefix) && e.Name()[:len(shardDirPrefix)] == shardDirPrefix {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for k, name := range names {
		if name != shardDirName(k) {
			return nil, fmt.Errorf("wal: %s: shard directories not contiguous: found %s at position %d", dir, name, k)
		}
	}
	return names, nil
}

// Append assigns the record its global sequence number and appends it to
// the shard its job hashes to. The router's mutex serializes seq
// assignment and the buffered append, so one stream's seqs always
// increase — the invariant loose recovery checks.
func (s *Sharded) Append(r Record) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	r.Seq = s.nextSeq
	seq, err := s.shards[ShardFor(r.JobID, len(s.shards))].appendAssigned(r)
	if err != nil {
		return 0, err
	}
	s.nextSeq = r.Seq + 1
	return seq, nil
}

// Sync makes every appended record durable on every shard. The fsyncs
// fan out in parallel — independent files, independent queues — and the
// barrier returns after the slowest one, so the flat log's guarantee
// (everything appended before Sync survives a crash) holds shard-wide.
func (s *Sharded) Sync() error {
	s.mu.Lock()
	shards := s.shards
	s.mu.Unlock()
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for k, l := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = l.Sync()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every shard stream. Idempotent.
func (s *Sharded) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, l := range s.shards {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Meta returns the log's environment record.
func (s *Sharded) Meta() Meta {
	return s.meta
}

// LastSeq returns the most recently assigned global sequence number.
func (s *Sharded) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1
}

// Stats aggregates across shard streams: counters sum, LastSeq is the
// global router position, and Shards records the fan-out.
func (s *Sharded) Stats() Stats {
	s.mu.Lock()
	shards := s.shards
	last := s.nextSeq - 1
	s.mu.Unlock()
	st := Stats{Dir: s.dir, LastSeq: last, Shards: len(shards)}
	for _, l := range shards {
		ls := l.Stats()
		st.Appends += ls.Appends
		st.Syncs += ls.Syncs
		st.Rotations += ls.Rotations
		st.Snapshots += ls.Snapshots
		st.Submits += ls.Submits
		st.SegmentFill += ls.SegmentFill
		if ls.Err != "" && st.Err == "" {
			st.Err = ls.Err
		}
	}
	return st
}

// ShardStats returns each stream's own stats, for tests and triage.
func (s *Sharded) ShardStats() []Stats {
	s.mu.Lock()
	shards := s.shards
	s.mu.Unlock()
	out := make([]Stats, len(shards))
	for k, l := range shards {
		out[k] = l.Stats()
	}
	return out
}

// LastVirtual is the latest virtual instant any shard has logged.
func (s *Sharded) LastVirtual() time.Duration {
	s.mu.Lock()
	shards := s.shards
	s.mu.Unlock()
	var max time.Duration
	for _, l := range shards {
		l.mu.Lock()
		if at := time.Duration(l.lastVirtNs); at > max {
			max = at
		}
		l.mu.Unlock()
	}
	return max
}

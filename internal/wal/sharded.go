package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The legacy sharded layout, read-only. Until the layouts were unified a
// log could be created with `-wal-shards N`, which fanned it out over N
// standard log directories, dir/shard-000 … dir/shard-(N-1), each with
// its own segments and snapshot. One router stamped every record with a
// sequence number from a single global space and appended it to the
// stream its job hashed to (meta and job-less records to shard 0), so a
// stream holds an increasing but gapped subset of the sequence, and
// because the streams were flushed independently a crash may have kept
// one stream's later records while losing another's earlier, never
// acknowledged ones. Nothing writes this layout any more: Recover merges
// the streams, and Open's first snapshot makes the directory flat.

const shardDirPrefix = "shard-"

// shardDirs returns dir's shard directories in shard order, or nil for a
// flat (or missing) directory.
func shardDirs(dir string) []string {
	entries, _ := os.ReadDir(dir) // sorted by name; a real error resurfaces in listSegments
	var shards []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), shardDirPrefix) {
			shards = append(shards, filepath.Join(dir, e.Name()))
		}
	}
	return shards
}

// recoverShards scans every stream loosely (recoverDir) and merges the
// replays: jobs re-sort into submission order by their stamped seq,
// counters sum, and the clocks take the maximum across streams.
func recoverShards(dir string, shards []string) (*Replay, error) {
	merged := &Replay{}
	haveMeta := false
	for k, shard := range shards {
		if want := fmt.Sprintf("%s%03d", shardDirPrefix, k); filepath.Base(shard) != want {
			return nil, fmt.Errorf("wal: %s: shard directories not contiguous: found %s, want %s", dir, filepath.Base(shard), want)
		}
		r, hasMeta, err := recoverDir(shard, true)
		if err != nil {
			return nil, err
		}
		if hasMeta && !haveMeta {
			merged.Meta = r.Meta
			haveMeta = true
		}
		merged.Jobs = append(merged.Jobs, r.Jobs...)
		merged.Records += r.Records
		merged.Transitions += r.Transitions
		merged.Segments += r.Segments
		merged.FromSnapshot = merged.FromSnapshot || r.FromSnapshot
		merged.TornDropped = merged.TornDropped || r.TornDropped
		merged.LastSeq = max(merged.LastSeq, r.LastSeq)
		merged.LastVirtual = max(merged.LastVirtual, r.LastVirtual)
	}
	if !haveMeta {
		return nil, fmt.Errorf("wal: %s holds no meta record in any shard", dir)
	}
	sort.Slice(merged.Jobs, func(i, j int) bool { return merged.Jobs[i].Seq < merged.Jobs[j].Seq })
	return merged, nil
}

// removeShardsLocked deletes the shard directories once the flat
// snapshot that holds their merged content is durable.
func (l *Log) removeShardsLocked() error {
	shards := shardDirs(l.dir)
	if len(shards) == 0 {
		return nil
	}
	for _, shard := range shards {
		if err := os.RemoveAll(shard); err != nil {
			return err
		}
	}
	return l.syncDir()
}

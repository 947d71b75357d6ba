package obs

import "time"

// Chunk sizes of a spanStore: the first chunk holds 64 spans and each
// later one twice its predecessor up to 4,096, so a task-local tracer
// of a few hundred spans stays in a few KiB while a long run settles at
// 352 KiB per growth step.
const (
	firstChunk = 64
	maxChunk   = 4096
)

// storedSpan is the 88-byte form a spanStore keeps a SpanData in (120
// bytes as handed): Component and Name, a small fixed set of constant
// pairs, become an index into the store's intern table, and Open folds
// into that word's top bit.
type storedSpan struct {
	traceID, spanID, parentID uint64
	kind                      uint32 // names index | openBit
	detail                    string
	start, end, wall          time.Duration
	attrs                     any
}

const openBit = 1 << 31

// spanName is one interned (Component, Name) pair.
type spanName struct{ component, name string }

// spanStore holds a tracer's retained spans, oldest first, as a list of
// chunks that are only ever appended to: growing allocates one new
// chunk and never copies or re-zeroes what is stored, and retention
// drops from the front by advancing head, releasing a chunk once head
// has left it. Every chunk but the last is full. Not safe for
// concurrent use; the tracer's lock guards it.
type spanStore struct {
	chunks [][]storedSpan
	head   int // index in chunks[0] of the oldest retained span
	n      int // retained spans

	// names interns every (Component, Name) pair ever stored, in order of
	// first appearance; kinds maps a pair back to its index. Neither
	// shrinks with retention: the pairs are the code's span kinds, not
	// data.
	names []spanName
	kinds map[spanName]uint32
}

func (s *spanStore) push(sp SpanData) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(s.chunks[last]), maxChunk)
		}
		s.chunks = append(s.chunks, make([]storedSpan, 0, size))
		last++
	}
	s.chunks[last] = append(s.chunks[last], s.pack(sp))
	s.n++
}

// pack returns the record sp is stored as.
func (s *spanStore) pack(sp SpanData) storedSpan {
	kind := s.intern(spanName{sp.Component, sp.Name})
	if sp.Open {
		kind |= openBit
	}
	return storedSpan{
		traceID: sp.TraceID, spanID: sp.SpanID, parentID: sp.ParentID,
		kind:   kind,
		detail: sp.Detail,
		start:  sp.Start, end: sp.End, wall: sp.Wall,
		attrs: sp.Attrs,
	}
}

// intern returns the pair's index, adding it on first sight.
func (s *spanStore) intern(k spanName) uint32 {
	if i, ok := s.kinds[k]; ok {
		return i
	}
	if s.kinds == nil {
		s.kinds = make(map[spanName]uint32)
	}
	i := uint32(len(s.names))
	if i >= openBit {
		panic("obs: more than 2^31 distinct (component, name) span pairs")
	}
	s.names = append(s.names, k)
	s.kinds[k] = i
	return i
}

// unpack returns the SpanData r was packed from.
func (s *spanStore) unpack(r *storedSpan) SpanData {
	k := s.names[r.kind&^openBit]
	return SpanData{
		TraceID: r.traceID, SpanID: r.spanID, ParentID: r.parentID,
		Component: k.component, Name: k.name,
		Detail: r.detail,
		Start:  r.start, End: r.end, Wall: r.wall,
		Open:  r.kind&openBit != 0,
		Attrs: r.attrs,
	}
}

// dropFront discards the k oldest spans, k <= n.
func (s *spanStore) dropFront(k int) {
	s.n -= k
	s.head += k
	for len(s.chunks) > 1 && s.head >= len(s.chunks[0]) {
		s.head -= len(s.chunks[0])
		s.chunks[0] = nil
		s.chunks = s.chunks[1:]
	}
}

// live returns the retained spans of chunk i.
func (s *spanStore) live(i int) []storedSpan {
	if i == 0 {
		return s.chunks[0][s.head:]
	}
	return s.chunks[i]
}

package obs

import (
	"cmp"
	"slices"
	"time"
)

// Chunk sizes of a spanStore: the first chunk holds 64 spans and each
// later one twice its predecessor up to 4,096, so a task-local tracer
// of a few hundred spans stays in a few KiB while a long run settles at
// 224 KiB of records per growth step.
const (
	firstChunk = 64
	maxChunk   = 4096
)

// storedSpan is the 56-byte, pointer-free form a spanStore keeps a
// SpanData in (120 bytes as handed). Component and Name, a small fixed
// set of constant pairs, become an index into the store's name table,
// and Open folds into that word's top bit; Detail becomes an index into
// its chunk's detail table; Attrs, set on few spans, lives in its
// chunk's attrs table. A chunk of records is allocated without pointers,
// so the GC never scans it.
type storedSpan struct {
	traceID, spanID, parentID uint64
	kind                      uint32 // names index | openBit
	detail                    uint32 // index into the chunk's details
	start, end, wall          time.Duration
}

const openBit = 1 << 31

// spanName is one interned (Component, Name) pair.
type spanName struct{ component, name string }

// spanChunk is one run of stored spans and the side tables its records
// index into, so all three are released together.
type spanChunk struct {
	recs []storedSpan
	// details holds each distinct Detail of recs once; details[0] is "".
	details []string
	// attrs holds the Attrs of the records that have one, by slot in
	// recs, in slot order; nil for a chunk without any.
	attrs []slotAttrs
}

type slotAttrs struct {
	slot uint32
	v    any
}

// noDetails is the detail table a chunk starts with. Its length is its
// capacity, so the first append copies it and chunks never share a
// table they write to.
var noDetails = []string{""}

// spanStore holds a tracer's retained spans, oldest first, as a list of
// chunks that are only ever appended to: growing allocates one new
// chunk and never copies or re-zeroes what is stored, and retention
// drops from the front by advancing head, releasing a chunk once head
// has left it. Every chunk but the last is full. Not safe for
// concurrent use; the tracer's lock guards it.
type spanStore struct {
	chunks []spanChunk
	head   int // index in chunks[0].recs of the oldest retained span
	n      int // retained spans

	// names interns every (Component, Name) pair ever stored, in order of
	// first appearance; kinds maps a pair back to its index. Neither
	// shrinks with retention: the pairs are the code's span kinds, not
	// data.
	names []spanName
	kinds map[spanName]uint32

	// tailDetails maps each detail in the last chunk's table to its
	// index there. It is cleared when a new chunk starts, so no detail
	// outlives the chunks that hold it.
	tailDetails map[string]uint32

	// dropped counts, per trace, the spans retention discarded: one
	// entry per trace that lost any, which for the scheduler is one per
	// job. Untraced spans (TraceID 0) are not counted here.
	dropped map[uint64]uint64
}

func (s *spanStore) push(sp SpanData) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last].recs) == cap(s.chunks[last].recs) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(s.chunks[last].recs), maxChunk)
		}
		s.chunks = append(s.chunks, spanChunk{recs: make([]storedSpan, 0, size), details: noDetails})
		clear(s.tailDetails)
		last++
	}
	c := &s.chunks[last]
	if sp.Attrs != nil {
		c.attrs = append(c.attrs, slotAttrs{uint32(len(c.recs)), sp.Attrs})
	}
	c.recs = append(c.recs, s.pack(c, sp))
	s.n++
}

// pack returns the record sp is stored as in the tail chunk c.
func (s *spanStore) pack(c *spanChunk, sp SpanData) storedSpan {
	kind := s.intern(spanName{sp.Component, sp.Name})
	if sp.Open {
		kind |= openBit
	}
	return storedSpan{
		traceID: sp.TraceID, spanID: sp.SpanID, parentID: sp.ParentID,
		kind:   kind,
		detail: s.internDetail(c, sp.Detail),
		start:  sp.Start, end: sp.End, wall: sp.Wall,
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

// internDetail returns d's index in the tail chunk c's detail table,
// adding it on its first sight in c.
func (s *spanStore) internDetail(c *spanChunk, d string) uint32 {
	if d == "" {
		return 0
	}
	if i, ok := s.tailDetails[d]; ok {
		return i
	}
	if s.tailDetails == nil {
		s.tailDetails = make(map[string]uint32)
	}
	i := uint32(len(c.details))
	c.details = append(c.details, d)
	s.tailDetails[d] = i
	return i
}

// unpack returns the SpanData the record in c's slot was packed from.
func (s *spanStore) unpack(c *spanChunk, slot int) SpanData {
	r := &c.recs[slot]
	k := s.names[r.kind&^openBit]
	sp := SpanData{
		TraceID: r.traceID, SpanID: r.spanID, ParentID: r.parentID,
		Component: k.component, Name: k.name,
		Detail: c.details[r.detail],
		Start:  r.start, End: r.end, Wall: r.wall,
		Open: r.kind&openBit != 0,
	}
	if i, ok := slices.BinarySearchFunc(c.attrs, uint32(slot), func(a slotAttrs, want uint32) int {
		return cmp.Compare(a.slot, want)
	}); ok {
		sp.Attrs = c.attrs[i].v
	}
	return sp
}

// dropFront discards the k oldest spans, k <= n, counting each traced
// one against its trace.
func (s *spanStore) dropFront(k int) {
	s.n -= k
	for k > 0 {
		recs := s.chunks[0].recs[s.head:]
		m := min(k, len(recs))
		for i := range recs[:m] {
			if id := recs[i].traceID; id != 0 {
				if s.dropped == nil {
					s.dropped = make(map[uint64]uint64)
				}
				s.dropped[id]++
			}
		}
		s.head += m
		k -= m
		if s.head == len(s.chunks[0].recs) && len(s.chunks) > 1 {
			s.head = 0
			s.chunks[0] = spanChunk{}
			s.chunks = s.chunks[1:]
		}
	}
}

// first returns the slot in chunk i of its oldest retained span.
func (s *spanStore) first(i int) int {
	if i == 0 {
		return s.head
	}
	return 0
}

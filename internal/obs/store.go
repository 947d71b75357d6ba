package obs

// Chunk sizes of a spanStore: the first chunk holds 64 spans and each
// later one twice its predecessor up to 4,096, so a task-local tracer
// of a few hundred spans stays in tens of KiB while a long run settles
// at 512 KiB per growth step.
const (
	firstChunk = 64
	maxChunk   = 4096
)

// spanStore holds a tracer's retained spans, oldest first, as a list of
// chunks that are only ever appended to: growing allocates one new
// chunk and never copies or re-zeroes what is stored, and retention
// drops from the front by advancing head, releasing a chunk once head
// has left it. Every chunk but the last is full. Not safe for
// concurrent use; the tracer's lock guards it.
type spanStore struct {
	chunks [][]SpanData
	head   int // index in chunks[0] of the oldest retained span
	n      int // retained spans
}

func (s *spanStore) push(sp SpanData) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(s.chunks[last]), maxChunk)
		}
		s.chunks = append(s.chunks, make([]SpanData, 0, size))
		last++
	}
	s.chunks[last] = append(s.chunks[last], sp)
	s.n++
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
func (s *spanStore) live(i int) []SpanData {
	if i == 0 {
		return s.chunks[0][s.head:]
	}
	return s.chunks[i]
}

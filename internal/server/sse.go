// This file is the SSE fan-out hub: one goroutine drains the
// scheduler's event stream, encodes each event into its SSE wire frame
// exactly once, and hands the pre-framed bytes to every interested
// connection without blocking — a slow consumer drops frames (counted
// on /metrics) instead of backing up the stream, the other viewers, or
// the scheduler's decision tick. The per-connection json.Marshal the
// handlers used to pay is gone: N watchers of one busy stream cost one
// encode per event, not N.

package server

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/obs"
	"proteus/internal/sched"
)

// Frame is one pre-encoded SSE message: Data is the complete
// "event: …\ndata: …\n\n" byte frame, shared read-only between every
// connection that receives it.
type Frame struct {
	// Data is the wire bytes; connections must not mutate them.
	Data []byte
	// At is the event's virtual instant (timeline replay dedup).
	At time.Duration
	// Terminal marks a job lifecycle stream's final event (done or
	// expired); the connection closes after writing it.
	Terminal bool
}

// HubConn is one connection's subscription to the hub. Frames arrive on
// C in dispatch order; when the buffer is full the hub drops the frame
// for this connection only. C closes when the hub shuts down.
type HubConn struct {
	C <-chan Frame

	ch      chan Frame
	jobID   int  // job lifecycle filter; timeline conns use wantTL
	wantTL  bool // timeline filter
	dropped atomic.Int64
}

// hubConnBuffer is the default per-connection frame buffer: deep enough
// to ride out a flushing stall, small enough that an abandoned
// connection holds a few KB of pointers, not the event history.
const hubConnBuffer = 256

// Hub fans the scheduler event stream out to SSE connections. It is
// idle while no connection is attached — it holds no scheduler
// subscription, so the scheduler builds and sends nothing — and attached
// from its first connection to its last: the first attach subscribes and
// starts a pump goroutine draining that subscription, the last detach
// closes it. A hub built without a subscribe function is detached for
// good: the caller drives Dispatch directly (tests and benchmarks).
type Hub struct {
	reg       *obs.Registry
	subscribe func() *sched.Subscription

	mu     sync.Mutex
	conns  map[*HubConn]struct{}
	closed bool
	// sub is the live scheduler subscription, nil while idle. A pump
	// whose subscription is no longer this one discards what it drains:
	// those events predate every connection now attached.
	sub   *sched.Subscription
	pumps sync.WaitGroup

	// Encoding scratch, guarded by mu: one buffer and encoder for the
	// hub's lifetime, and a wire struct whose pointer fields target
	// hub-owned storage so a dispatch allocates the owned frame copy and
	// nothing else.
	buf   bytes.Buffer
	enc   *json.Encoder
	wire  Event
	jobID int
	util  UtilPoint
}

// NewHub builds an idle hub. subscribe, when non-nil, is called on every
// idle → attached transition for the scheduler subscription to drain;
// the hub closes it on the way back to idle and on Close. reg, when
// non-nil, receives the proteus_api_sse_* fan-out metrics.
func NewHub(subscribe func() *sched.Subscription, reg *obs.Registry) *Hub {
	h := &Hub{
		reg:       reg,
		subscribe: subscribe,
		conns:     make(map[*HubConn]struct{}),
	}
	h.enc = json.NewEncoder(&h.buf)
	return h
}

// maxDispatchBatch caps how many queued events one pump iteration
// drains: enough to swallow a rebalance burst, small enough that the
// batch scratch stays cache-resident.
const maxDispatchBatch = 64

// pump drains one subscription until the hub closes it.
func (h *Hub) pump(sub *sched.Subscription) {
	defer h.pumps.Done()
	batch := make([]sched.Event, 0, maxDispatchBatch)
	for ev := range sub.C {
		// Opportunistic batching: drain whatever the scheduler already
		// queued so a burst dispatches as one walk over the connections
		// (and consecutive timeline samples as one pre-framed write)
		// instead of one per event. An idle stream still dispatches
		// every event immediately — the drain never waits.
		batch = append(batch[:0], ev)
	drain:
		for len(batch) < maxDispatchBatch {
			select {
			case ev2, ok := <-sub.C:
				if !ok {
					break drain
				}
				batch = append(batch, ev2)
			default:
				break drain
			}
		}
		h.mu.Lock()
		if h.sub == sub {
			h.dispatchBatchLocked(batch)
		}
		h.mu.Unlock()
	}
}

// Close shuts the hub down: the scheduler subscription (if any) closes,
// the pump delivers what the scheduler had already emitted — so a stream
// ends with its last events, not before them — and every connection's
// channel closes. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	if h.sub != nil {
		h.sub.Close()
	}
	h.mu.Unlock()
	h.pumps.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sub = nil
	for c := range h.conns {
		close(c.ch)
		delete(h.conns, c)
	}
}

// Job attaches a connection interested in one job's lifecycle events.
// buffer <= 0 selects the default. Returns nil when the hub is closed.
func (h *Hub) Job(id, buffer int) *HubConn {
	return h.attach(&HubConn{jobID: id}, buffer)
}

// Timeline attaches a connection interested in utilization samples.
func (h *Hub) Timeline(buffer int) *HubConn {
	return h.attach(&HubConn{wantTL: true, jobID: -1}, buffer)
}

func (h *Hub) attach(c *HubConn, buffer int) *HubConn {
	if buffer <= 0 {
		buffer = hubConnBuffer
	}
	c.ch = make(chan Frame, buffer)
	c.C = c.ch
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	if len(h.conns) == 0 && h.subscribe != nil {
		// Subscribed before attach returns, so before the handler reads
		// the state it reports first: no transition falls in between.
		h.sub = h.subscribe()
		h.pumps.Add(1)
		go h.pump(h.sub)
	}
	h.conns[c] = struct{}{}
	return c
}

// Detach removes the connection; its channel closes. Safe on nil conns
// and after Close.
func (h *Hub) Detach(c *HubConn) {
	if c == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.conns[c]; !ok {
		return
	}
	delete(h.conns, c)
	close(c.ch)
	if len(h.conns) == 0 && h.sub != nil {
		// Idle again. Closing the subscription takes the scheduler's lock
		// under h.mu; the scheduler never waits on the hub — it sends
		// without blocking and calls nothing here — so the order is safe.
		h.sub.Close()
		h.sub = nil
	}
}

// Dropped reports frames this connection lost to a full buffer.
func (c *HubConn) Dropped() int {
	if c == nil {
		return 0
	}
	return int(c.dropped.Load())
}

// DispatchBatch dispatches a burst of events in order, folding each run
// of consecutive timeline samples into a single pre-framed write per
// connection. SSE is a byte stream — a receiver parses N concatenated
// frames in one chunk exactly as it parses N chunks — so batching
// changes only the cost: one encode pass, one channel send, and one
// buffer slot per run instead of per sample.
func (h *Hub) DispatchBatch(evs []sched.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dispatchBatchLocked(evs)
}

func (h *Hub) dispatchBatchLocked(evs []sched.Event) {
	for i := 0; i < len(evs); {
		if evs[i].Kind != sched.EventTimeline {
			h.dispatchLocked(evs[i])
			i++
			continue
		}
		j := i + 1
		for j < len(evs) && evs[j].Kind == sched.EventTimeline {
			j++
		}
		h.dispatchTimelineLocked(evs[i:j])
		i = j
	}
}

// dispatchTimelineLocked fans a run of timeline samples out as one frame
// holding their concatenated wire frames. The frame's At is the last
// sample's instant: the replay-dedup cursor skips the whole frame only
// when every sample in it was already replayed (the scheduler emits a
// point exactly once, so a frame straddling the replay boundary — a
// harmless duplicate point for that one viewer — needs a race to
// produce).
func (h *Hub) dispatchTimelineLocked(evs []sched.Event) {
	interested := 0
	for c := range h.conns {
		if c.wantTL {
			interested++
		}
	}
	if interested == 0 {
		return
	}
	h.buf.Reset()
	n := 0
	var lastAt time.Duration
	for i := range evs {
		if evs[i].Util == nil {
			continue // nothing to plot; the old per-conn loop skipped these too
		}
		h.buf.WriteString("event: ")
		h.buf.WriteString(sched.EventTimeline)
		h.buf.WriteString("\ndata: ")
		h.util = utilWire(*evs[i].Util)
		if h.enc.Encode(&h.util) != nil {
			h.buf.WriteString("{}\n")
		}
		h.buf.WriteByte('\n')
		lastAt = evs[i].Util.At
		n++
	}
	if n == 0 {
		return
	}
	h.fanOutLocked(Frame{At: lastAt, Data: append([]byte(nil), h.buf.Bytes()...)},
		func(c *HubConn) bool { return c.wantTL })
}

// Dispatch encodes the event once and fans the frame out to every
// interested connection, never blocking: a full connection buffer
// increments the drop counters and moves on, so one stalled viewer
// cannot delay the stream, the other viewers, or — transitively — the
// scheduler's decision loop. Called by the owner of a detached hub; an
// attached hub's pump dispatches under the same lock.
func (h *Hub) Dispatch(ev sched.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dispatchLocked(ev)
}

func (h *Hub) dispatchLocked(ev sched.Event) {
	timeline := ev.Kind == sched.EventTimeline
	if timeline && ev.Util == nil {
		return // nothing to plot; the old per-conn loop skipped these too
	}
	wants := func(c *HubConn) bool {
		if timeline {
			return c.wantTL
		}
		return !c.wantTL && c.jobID == ev.JobID
	}
	interested := 0
	for c := range h.conns {
		if wants(c) {
			interested++
		}
	}
	if interested == 0 {
		return
	}
	fr := Frame{At: ev.At, Data: h.encodeFrame(ev)}
	if timeline {
		// Dedup against replayed history keys on the sample's instant.
		fr.At = ev.Util.At
	} else {
		fr.Terminal = ev.Kind == sched.EventDone || ev.Kind == sched.EventExpired
	}
	h.fanOutLocked(fr, wants)
}

// fanOutLocked hands the frame to every connection that wants it,
// dropping it for those whose buffer is full.
func (h *Hub) fanOutLocked(fr Frame, wants func(*HubConn) bool) {
	dropped := 0
	for c := range h.conns {
		if wants(c) {
			select {
			case c.ch <- fr:
			default:
				c.dropped.Add(1)
				dropped++
			}
		}
	}
	if dropped > 0 {
		h.reg.Counter("proteus_api_sse_dropped_total",
			"SSE frames dropped on slow consumers").Add(float64(dropped))
	}
}

// encodeFrame renders the event's complete SSE frame into the hub
// scratch buffer and returns an owned copy (the scratch is reused on the
// next dispatch; the copy is shared read-only by every receiver).
func (h *Hub) encodeFrame(ev sched.Event) []byte {
	h.buf.Reset()
	h.buf.WriteString("event: ")
	h.buf.WriteString(ev.Kind)
	h.buf.WriteString("\ndata: ")
	var err error
	if ev.Kind == sched.EventTimeline {
		// Timeline frames carry the bare utilization point — the same wire
		// shape the handler's replay path writes, so a viewer decodes
		// history and live frames identically.
		h.util = utilWire(*ev.Util)
		err = h.enc.Encode(&h.util)
	} else {
		h.jobID = ev.JobID
		h.wire = Event{
			Kind:      ev.Kind,
			AtMinutes: minutes(ev.At),
			JobID:     &h.jobID,
			JobName:   ev.JobName,
			State:     ev.State.String(),
			Detail:    ev.Detail,
			TraceID:   obs.IDString(ev.TraceID),
			SpanID:    obs.IDString(ev.SpanID),
		}
		err = h.enc.Encode(&h.wire)
	}
	// Encode appends a newline after the JSON; one more closes the frame.
	if err != nil {
		// The wire types cannot fail to marshal; keep the frame shape
		// even if they somehow do.
		h.buf.WriteString("{}\n")
	}
	h.buf.WriteByte('\n')
	return append([]byte(nil), h.buf.Bytes()...)
}

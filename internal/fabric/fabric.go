// Package fabric simulates the cluster interconnect that Photon's
// simulated NICs attach to.
//
// The fabric connects N nodes with directed, reliable, in-order links.
// Each link applies a LogGP-style delay model: a frame departs when the
// link is free (serialization at the configured per-byte gap plus a
// per-frame overhead) and arrives one latency later. Frames on one link
// are pipelined — their arrival times are spaced by serialization time,
// not by latency — matching how a real wire behaves.
//
// Where handlers run. Under a model with no delay, a frame sent on a
// drained link (nothing queued, nothing being delivered) is handed to
// the destination's handler on the sending goroutine, before Send or
// TrySend returns. Every other frame — any frame under a delay model,
// a frame behind another on its link, a frame a handler refused — is
// queued, and the link's delivery goroutine hands it over. That
// goroutine exists only while its link has frames queued: it starts
// when the first one is queued and exits when the link drains, so an
// idle fabric runs no goroutine at all. Either way one link delivers
// one frame at a time, in send order.
//
// The refusal rule. A handler called on a sender's goroutine must not
// wait for anything: it may refuse the frame instead, before its first
// side effect, and the fabric puts the frame at the head of its link's
// queue for the delivery goroutine, which calls the handler again
// where waiting is allowed. A handler that sends (an ACK, a read
// response) may see that frame delivered on the same goroutine too,
// one level deep; a send made from inside such a nested handler is
// always queued, and no send made from inside a handler on a sender's
// goroutine waits for queue room.
//
// The fabric is deliberately dumb: it moves opaque byte frames. All
// RDMA semantics (queue pairs, memory registration, completions) live in
// package nicsim above it. This mirrors the hardware split the original
// Photon paper assumes: middleware above verbs, verbs above a reliable
// fabric.
package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/mem"
)

// Model configures per-link timing. The zero Model adds no delay, so
// frames on drained links are delivered on the sending goroutine (see
// the package comment), which is the right default for functional
// tests and the in-process benchmarks; a Model with any delay queues
// every frame to its link's delivery goroutine.
type Model struct {
	// Latency is the one-way propagation delay per frame.
	Latency time.Duration
	// GapPerByte is the serialization time per payload byte
	// (the reciprocal of bandwidth). Zero means infinite bandwidth.
	GapPerByte time.Duration
	// PerFrame is a fixed per-frame overhead added to serialization
	// (models per-packet processing, the LogGP "gap").
	PerFrame time.Duration
	// QueueDepth bounds the number of queued frames per directed
	// link; when the queue is full Send blocks and TrySend returns
	// ErrFull (backpressure).
	// Zero selects the default of 4096.
	QueueDepth int
}

// DefaultQueueDepth is the per-link frame queue bound used when
// Model.QueueDepth is zero.
const DefaultQueueDepth = 4096

// Frame is one unit of delivery: an opaque payload from Src to Dst.
type Frame struct {
	Src, Dst int
	Data     []byte
}

// Handler receives frames addressed to a node. It runs on the sending
// goroutine when the link is drained under a zero-delay model, and on
// the link's delivery goroutine otherwise; it never refuses a frame,
// so it must not block for long in either place. A handler that may
// need to wait should be a TryHandler.
type Handler func(Frame)

// TryHandler receives frames addressed to a node and may refuse them.
// inline reports that it runs on the sending goroutine: it must then
// not wait for anything, and may return false, before any side effect,
// to have the frame queued at the head of its link and offered again
// with inline false on the delivery goroutine, where it may wait and
// must accept. The handler owns fr.Data only once it accepts.
type TryHandler func(fr Frame, inline bool) (accepted bool)

// LinkStats reports per-directed-link traffic counters. MaxQueued is
// the high-water mark of queue occupancy observed at enqueue time: how
// close the link came to its QueueDepth bound. A MaxQueued at or near
// QueueDepth means senders on this link met backpressure (Send
// blocked, TrySend returned ErrFull); well below it, the queue bound
// was never the constraint. Frames delivered on the sending goroutine
// never enter the queue, so a link that only ever did that reads 0.
type LinkStats struct {
	Frames    int64
	Bytes     int64
	MaxQueued int64
}

// Fabric is a simulated interconnect among NumNodes nodes.
type Fabric struct {
	model Model
	delay bool // the model adds delay: every frame is queued
	n     int
	nodes []node
	links []link // links[src*n+dst]

	closed atomic.Bool

	// fault, when non-nil, is consulted per frame; returning true
	// drops the frame (used by failure-injection tests).
	fault atomic.Pointer[func(src, dst int) bool]
}

// node is one attachment point.
type node struct {
	h atomic.Pointer[TryHandler]
	// inline counts handlers running at this node on a sender's
	// goroutine, by nesting level: [0] called by a send made outside
	// any such handler, [1] by a send made from inside one. A send
	// from a node takes the deepest level running there as its own, so
	// a concurrent unrelated send may be judged nested: then it queues
	// where it could have gone inline, or passes a full queue's bound
	// where it could have waited, but a nested send is never misjudged.
	inline [2]atomic.Int32
}

// level is the nesting level a send from this node gets: 0 outside any
// handler running on a sender's goroutine, 1 from inside one, 2 from
// inside a nested one (never delivered inline).
func (nd *node) level() int {
	switch {
	case nd.inline[1].Load() > 0:
		return 2
	case nd.inline[0].Load() > 0:
		return 1
	}
	return 0
}

type queued struct {
	fr Frame
	at time.Time // enqueue time under a delay model; departure is
	// computed from this, not from the delivery goroutine's clock, so
	// latencies pipeline
}

// link is one directed link. Its delivery is owned by at most one
// goroutine at a time — a sender delivering inline or the delivery
// goroutine — and busy says whether someone owns it. Whenever the
// queue holds a frame, busy is set.
type link struct {
	//photon:lock link 10
	mu      sync.Mutex
	q       mem.Queue[queued]
	busy    bool
	waiters int       // goroutines parked on room
	room    sync.Cond // on mu: a frame left the queue, or the link went idle
	drainFn func()    // the link's drain, bound once so starting it allocates nothing

	nextFree  time.Time // delivery goroutine only
	frames    atomic.Int64
	bytes     atomic.Int64
	maxQueued atomic.Int64
}

// noteOccupancy folds a queue length into the link's high-water mark.
func (l *link) noteOccupancy(occ int64) {
	for {
		cur := l.maxQueued.Load()
		if occ <= cur || l.maxQueued.CompareAndSwap(cur, occ) {
			return
		}
	}
}

// ErrClosed is returned by Send and TrySend after the fabric has been
// closed.
var ErrClosed = errors.New("fabric: closed")

// ErrFull is returned by TrySend when the link's queue has no room.
var ErrFull = errors.New("fabric: link queue full")

// ErrBadNode is returned for out-of-range node indices.
var ErrBadNode = errors.New("fabric: node index out of range")

// New creates a fabric connecting n nodes under the given delay model.
func New(n int, m Model) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("fabric: invalid node count %d", n))
	}
	if m.QueueDepth <= 0 {
		m.QueueDepth = DefaultQueueDepth
	}
	f := &Fabric{
		model: m,
		delay: m.Latency > 0 || m.GapPerByte > 0 || m.PerFrame > 0,
		n:     n,
		nodes: make([]node, n),
		links: make([]link, n*n),
	}
	for i := range f.links {
		l := &f.links[i]
		l.room.L = &l.mu
		l.drainFn = func() { f.drain(l) }
	}
	return f
}

// NumNodes returns the number of attached node slots.
func (f *Fabric) NumNodes() int { return f.n }

// Attach installs a handler that never refuses for a node; see
// AttachTry.
func (f *Fabric) Attach(node int, h Handler) error {
	if h == nil {
		return f.AttachTry(node, nil)
	}
	return f.AttachTry(node, func(fr Frame, _ bool) bool {
		h(fr)
		return true
	})
}

// AttachTry installs the frame handler for a node. It must be called
// once per node before any frame addressed to it is delivered; frames
// arriving at a node with no handler are dropped (counted in stats).
func (f *Fabric) AttachTry(node int, h TryHandler) error {
	if node < 0 || node >= f.n {
		return ErrBadNode
	}
	if f.closed.Load() {
		return ErrClosed
	}
	if h == nil {
		f.nodes[node].h.Store(nil)
	} else {
		f.nodes[node].h.Store(&h)
	}
	return nil
}

// SetFault installs a frame-drop predicate for failure injection; pass
// nil to clear. The predicate runs on the sending goroutine, first: a
// frame it drops is never delivered, inline or queued. For a simulated
// NIC that is the poster for its requests (TrySend) and whoever runs
// the responder's handler for its responses (Send).
func (f *Fabric) SetFault(fn func(src, dst int) bool) {
	if fn == nil {
		f.fault.Store(nil)
		return
	}
	f.fault.Store(&fn)
}

// Send sends a frame from src to dst. The fabric takes ownership of
// data; callers must not modify it afterwards. On a drained zero-delay
// link the destination's handler runs before Send returns (see the
// package comment); otherwise the frame is queued, and Send blocks
// while the link queue is full, modeling transmit backpressure — except
// when called from inside a handler running on a sender's goroutine,
// which never waits: the frame is queued past the bound instead.
//
// Only responders block here: the simulated NIC posts requests with
// TrySend and re-enters Send from its handler to ACK or answer every
// request on the reverse link. A handler on a sender's goroutine never
// waits — neither for a lock (it refuses instead) nor for queue room —
// so the posting goroutine cannot wedge. A blocked Send therefore
// stalls a delivery goroutine, and a cycle needs both directed links
// of a node pair full at once, each delivery goroutine waiting to
// answer into the other. Every send work request a NIC has outstanding
// has at most one frame in flight — its request or its response — and
// nicsim.Config.SQDepth bounds those per queue pair, so a link carries
// at most SQDepth times the queue pairs posting across the pair of
// nodes (2048 frames for Photon's one QP per direction at the default
// SQDepth, half of DefaultQueueDepth). Deployments that shrink
// QueueDepth below that bound give up this argument; the MaxQueued
// high-water in LinkStats exists to check the margin.
func (f *Fabric) Send(src, dst int, data []byte) error {
	return f.send(src, dst, data, true)
}

// TrySend is Send without the wait: when the link's queue is full it
// returns ErrFull at once and data stays the caller's. On success, and
// when the fault predicate drops the frame, the fabric owns data.
func (f *Fabric) TrySend(src, dst int, data []byte) error {
	return f.send(src, dst, data, false)
}

func (f *Fabric) send(src, dst int, data []byte, wait bool) error {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return ErrBadNode
	}
	if fp := f.fault.Load(); fp != nil && (*fp)(src, dst) {
		return nil // dropped silently, like a lossy link
	}
	l := &f.links[src*f.n+dst]
	fr := Frame{Src: src, Dst: dst, Data: data}
	level := f.nodes[src].level()
	l.mu.Lock()
	if f.closed.Load() {
		l.mu.Unlock()
		return ErrClosed
	}
	if !l.busy && !f.delay && level < 2 {
		l.busy = true
		l.mu.Unlock()
		f.deliverInline(l, fr, level)
		return nil
	}
	for l.q.Len() >= f.model.QueueDepth {
		if !wait {
			l.mu.Unlock()
			return ErrFull
		}
		if level > 0 {
			break // the goroutine that sent this handler its frame must not wait
		}
		l.waiters++
		l.room.Wait()
		l.waiters--
		if f.closed.Load() {
			l.mu.Unlock()
			return ErrClosed
		}
	}
	q := queued{fr: fr}
	if f.delay {
		q.at = time.Now()
	}
	l.q.PushBack(q)
	l.noteOccupancy(int64(l.q.Len()))
	start := !l.busy
	l.busy = true
	l.mu.Unlock()
	if start {
		go l.drainFn()
	}
	return nil
}

// deliverInline runs fr's handler on the sending goroutine, which owns
// the link's delivery. Frames queued behind it meanwhile, and fr itself
// if the handler refused it, go to a delivery goroutine.
func (f *Fabric) deliverInline(l *link, fr Frame, level int) {
	nd := &f.nodes[fr.Dst]
	accepted := true
	if h := nd.h.Load(); h != nil {
		nd.inline[level].Add(1)
		accepted = (*h)(fr, true)
		nd.inline[level].Add(-1)
	}
	if accepted {
		l.frames.Add(1)
		l.bytes.Add(int64(len(fr.Data)))
	}
	l.mu.Lock()
	if !accepted {
		l.q.PushFront(queued{fr: fr})
	}
	if l.q.Len() > 0 {
		l.mu.Unlock()
		go l.drainFn()
		return
	}
	l.busy = false
	if l.waiters > 0 {
		l.room.Broadcast()
	}
	l.mu.Unlock()
}

// drain is a link's delivery goroutine: it delivers queued frames in
// order, blocking as the handler needs, and exits when the queue is
// empty. Delivery applies the delay model with pipelined arrival
// times: arrival(i) = depart(i) + Latency, where
// depart(i) = max(enqueue(i), depart(i-1)) + serialization(i).
func (f *Fabric) drain(l *link) {
	for {
		l.mu.Lock()
		q, ok := l.q.PopFront()
		if !ok {
			l.busy = false
		}
		if l.waiters > 0 {
			l.room.Broadcast()
		}
		l.mu.Unlock()
		if !ok {
			return
		}
		fr := q.fr
		if f.delay {
			m := f.model
			depart := l.nextFree
			if depart.Before(q.at) {
				depart = q.at
			}
			depart = depart.Add(m.PerFrame + time.Duration(len(fr.Data))*m.GapPerByte)
			l.nextFree = depart
			if d := time.Until(depart.Add(m.Latency)); d > 0 {
				time.Sleep(d)
			}
		}
		l.frames.Add(1)
		l.bytes.Add(int64(len(fr.Data)))
		if h := f.nodes[fr.Dst].h.Load(); h != nil {
			(*h)(fr, false)
		}
	}
}

// Stats returns traffic counters for the directed link src->dst.
func (f *Fabric) Stats(src, dst int) LinkStats {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return LinkStats{}
	}
	l := &f.links[src*f.n+dst]
	return LinkStats{Frames: l.frames.Load(), Bytes: l.bytes.Load(), MaxQueued: l.maxQueued.Load()}
}

// TotalStats sums traffic over all links; MaxQueued is the maximum
// high-water across them (the most congested link).
func (f *Fabric) TotalStats() LinkStats {
	var t LinkStats
	for i := range f.links {
		l := &f.links[i]
		t.Frames += l.frames.Load()
		t.Bytes += l.bytes.Load()
		if hw := l.maxQueued.Load(); hw > t.MaxQueued {
			t.MaxQueued = hw
		}
	}
	return t
}

// Close shuts the fabric down: queued frames are still delivered, and
// Close returns once every link is idle — its delivery goroutine gone
// and no handler running on a sender's goroutine. Send after Close
// returns ErrClosed, and so does a Send waiting for queue room.
func (f *Fabric) Close() {
	if f.closed.Swap(true) {
		return
	}
	// Release every Send waiting for room before waiting on any link:
	// a delivery goroutine may be one of them.
	for i := range f.links {
		l := &f.links[i]
		l.mu.Lock()
		l.room.Broadcast()
		l.mu.Unlock()
	}
	for i := range f.links {
		l := &f.links[i]
		l.mu.Lock()
		for l.busy {
			l.waiters++
			l.room.Wait()
			l.waiters--
		}
		l.mu.Unlock()
	}
}

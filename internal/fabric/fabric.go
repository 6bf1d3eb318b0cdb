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
)

// Model configures per-link timing. The zero Model delivers frames
// asynchronously but with no added delay, which is the right default for
// functional tests; benchmarks set realistic values.
type Model struct {
	// Latency is the one-way propagation delay per frame.
	Latency time.Duration
	// GapPerByte is the serialization time per payload byte
	// (the reciprocal of bandwidth). Zero means infinite bandwidth.
	GapPerByte time.Duration
	// PerFrame is a fixed per-frame overhead added to serialization
	// (models per-packet processing, the LogGP "gap").
	PerFrame time.Duration
	// QueueDepth bounds the number of in-flight frames per directed
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

// Handler receives frames addressed to a node. Handlers run on the
// link's delivery goroutine and must not block for long; the simulated
// NIC copies out what it needs and returns.
type Handler func(Frame)

// LinkStats reports per-directed-link traffic counters. MaxQueued is
// the high-water mark of queue occupancy observed at enqueue time: how
// close the link came to its QueueDepth bound. A MaxQueued at or near
// QueueDepth means senders on this link met backpressure (Send
// blocked, TrySend returned ErrFull); well below it, the queue bound
// was never the constraint.
type LinkStats struct {
	Frames    int64
	Bytes     int64
	MaxQueued int64
}

// Fabric is a simulated interconnect among NumNodes nodes.
type Fabric struct {
	model Model
	n     int

	//photon:lock fabric 10
	mu       sync.Mutex
	handlers []Handler
	links    map[linkKey]*link
	closed   bool
	done     chan struct{} // closed by Close; unblocks senders and stops links
	wg       sync.WaitGroup

	// fault, when non-nil, is consulted per frame; returning true
	// drops the frame (used by failure-injection tests).
	fault atomic.Pointer[func(src, dst int) bool]
}

type linkKey struct{ src, dst int }

type queued struct {
	fr Frame
	at time.Time // enqueue time; departure is computed from this, not
	// from the delivery goroutine's clock, so latencies pipeline
}

type link struct {
	ch        chan queued
	nextFree  time.Time
	frames    atomic.Int64
	bytes     atomic.Int64
	maxQueued atomic.Int64
}

// noteOccupancy folds the current queue length into the link's
// high-water mark.
func (l *link) noteOccupancy() {
	occ := int64(len(l.ch))
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
	return &Fabric{
		model:    m,
		n:        n,
		handlers: make([]Handler, n),
		links:    make(map[linkKey]*link),
		done:     make(chan struct{}),
	}
}

// NumNodes returns the number of attached node slots.
func (f *Fabric) NumNodes() int { return f.n }

// Attach installs the frame handler for a node. It must be called once
// per node before any frame addressed to it is delivered; frames
// arriving at a node with no handler are dropped (counted in stats).
func (f *Fabric) Attach(node int, h Handler) error {
	if node < 0 || node >= f.n {
		return ErrBadNode
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	f.handlers[node] = h
	return nil
}

// SetFault installs a frame-drop predicate for failure injection; pass
// nil to clear. The predicate runs on the sending goroutine: the
// poster's for a simulated NIC's requests (TrySend), the delivery
// goroutine of the reverse link for its responses (Send).
func (f *Fabric) SetFault(fn func(src, dst int) bool) {
	if fn == nil {
		f.fault.Store(nil)
		return
	}
	f.fault.Store(&fn)
}

// Send enqueues a frame from src to dst. The fabric takes ownership of
// data; callers must not modify it afterwards. Send blocks if the link
// queue is full, modeling transmit backpressure.
//
// Only responders block here: the simulated NIC posts requests with
// TrySend and re-enters Send from delivery handlers to ACK or answer
// every request on the reverse link, so a blocked Send stalls a
// delivery goroutine. A cycle therefore needs both directed links of a
// node pair full at once, each delivery goroutine waiting to answer
// into the other. Every send work request a NIC has outstanding has at
// most one frame in flight — its request or its response — and
// nicsim.Config.SQDepth bounds those per queue pair, so a link carries
// at most SQDepth times the queue pairs posting across the pair of
// nodes (2048 frames for Photon's one QP per direction at the default
// SQDepth, half of DefaultQueueDepth). Deployments that shrink
// QueueDepth below that bound give up this argument; the MaxQueued
// high-water in LinkStats exists to check the margin.
func (f *Fabric) Send(src, dst int, data []byte) error {
	l, err := f.route(src, dst)
	if l == nil {
		return err
	}
	select {
	case l.ch <- queued{fr: Frame{Src: src, Dst: dst, Data: data}, at: time.Now()}:
		l.noteOccupancy()
		return nil
	case <-f.done:
		return ErrClosed
	}
}

// TrySend is Send without the wait: when the link's queue is full it
// returns ErrFull at once and data stays the caller's. On success, and
// when the fault predicate drops the frame, the fabric owns data.
func (f *Fabric) TrySend(src, dst int, data []byte) error {
	l, err := f.route(src, dst)
	if l == nil {
		return err
	}
	select {
	case l.ch <- queued{fr: Frame{Src: src, Dst: dst, Data: data}, at: time.Now()}:
		l.noteOccupancy()
		return nil
	default:
		return ErrFull
	}
}

// route checks the node indices, consults the fault predicate and
// returns the link src->dst. A nil link with a nil error means the
// predicate dropped the frame, silently, like a lossy link.
func (f *Fabric) route(src, dst int) (*link, error) {
	if src < 0 || src >= f.n || dst < 0 || dst >= f.n {
		return nil, ErrBadNode
	}
	if fp := f.fault.Load(); fp != nil && (*fp)(src, dst) {
		return nil, nil
	}
	return f.linkFor(src, dst)
}

func (f *Fabric) linkFor(src, dst int) (*link, error) {
	key := linkKey{src, dst}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	l, ok := f.links[key]
	if !ok {
		l = &link{ch: make(chan queued, f.model.QueueDepth)}
		f.links[key] = l
		f.wg.Add(1)
		go f.run(l)
	}
	return l, nil
}

// run is the per-link delivery goroutine. It enforces in-order delivery
// with pipelined arrival times: arrival(i) = depart(i) + Latency, where
// depart(i) = max(now, depart(i-1)) + serialization(i).
func (f *Fabric) run(l *link) {
	defer f.wg.Done()
	for {
		var q queued
		select {
		case q = <-l.ch:
		case <-f.done:
			// Flush whatever is already queued, then exit.
			for {
				select {
				case q = <-l.ch:
					f.deliver(l, q)
				default:
					return
				}
			}
		}
		f.deliver(l, q)
	}
}

// deliver applies the delay model and hands one frame to its handler.
func (f *Fabric) deliver(l *link, q queued) {
	{
		fr := q.fr
		m := f.model
		if m.Latency > 0 || m.GapPerByte > 0 || m.PerFrame > 0 {
			depart := l.nextFree
			if depart.Before(q.at) {
				depart = q.at
			}
			xmit := m.PerFrame + time.Duration(len(fr.Data))*m.GapPerByte
			depart = depart.Add(xmit)
			l.nextFree = depart
			arrive := depart.Add(m.Latency)
			if d := time.Until(arrive); d > 0 {
				time.Sleep(d)
			}
		}
		l.frames.Add(1)
		l.bytes.Add(int64(len(fr.Data)))
		f.mu.Lock()
		h := f.handlers[fr.Dst]
		f.mu.Unlock()
		if h != nil {
			h(fr)
		}
	}
}

// Stats returns traffic counters for the directed link src->dst.
func (f *Fabric) Stats(src, dst int) LinkStats {
	f.mu.Lock()
	l := f.links[linkKey{src, dst}]
	f.mu.Unlock()
	if l == nil {
		return LinkStats{}
	}
	return LinkStats{Frames: l.frames.Load(), Bytes: l.bytes.Load(), MaxQueued: l.maxQueued.Load()}
}

// TotalStats sums traffic over all links; MaxQueued is the maximum
// high-water across them (the most congested link).
func (f *Fabric) TotalStats() LinkStats {
	f.mu.Lock()
	links := make([]*link, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	f.mu.Unlock()
	var t LinkStats
	for _, l := range links {
		t.Frames += l.frames.Load()
		t.Bytes += l.bytes.Load()
		if hw := l.maxQueued.Load(); hw > t.MaxQueued {
			t.MaxQueued = hw
		}
	}
	return t
}

// Close shuts the fabric down: queued frames are still delivered, and
// Close returns once all delivery goroutines exit. Send after Close
// returns ErrClosed.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.done)
	f.mu.Unlock()
	f.wg.Wait()
}

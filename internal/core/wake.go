package core

import (
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/mem"
)

// Shared backend wake/completion plumbing. Every transport used to
// hand-roll the same pattern — a mutex-guarded completion slice plus a
// capacity-1 "kick" channel signaled with non-blocking sends — and the
// engine's notifier needs to fan the same event out to every parked
// waiter. WakeChan and CompQueue centralize it: backends push
// completions and kick; the engine installs a sink
// (Backend.SetWakeSink) that fans the event out, and a bare transport
// driven without an engine parks on the channel instead.

// WakeChan is an edge-triggered event latch: a capacity-1 channel
// signaled with non-blocking sends, with an optionally installed sink
// function that replaces the channel delivery. One token coalesces any
// number of events; consumers must re-poll after every wakeup.
type WakeChan struct {
	ch   chan struct{}
	sink atomic.Pointer[func()]
}

// NewWakeChan creates a ready-to-use wake latch.
func NewWakeChan() *WakeChan {
	return &WakeChan{ch: make(chan struct{}, 1)}
}

// Kick signals the latch: the installed sink if any, else a
// non-blocking token on the channel. Callable from any goroutine;
// never blocks.
//
//photon:hotpath
func (w *WakeChan) Kick() {
	if f := w.sink.Load(); f != nil {
		(*f)()
		return
	}
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// Chan returns the latch channel for consumers that park on it.
func (w *WakeChan) Chan() <-chan struct{} { return w.ch }

// SetSink redirects subsequent kicks to fn (which must be non-blocking
// and callable from any goroutine); nil restores channel delivery.
// Installing a sink leaves the channel idle — the engine uses this to
// fan one backend event out to every waiter on the producing goroutine.
func (w *WakeChan) SetSink(fn func()) {
	if fn == nil {
		w.sink.Store(nil)
		return
	}
	w.sink.Store(&fn)
}

// CompQueue is the shared backend completion queue: agents Push
// finished operations, the engine Drains them from Poll. Push kicks the
// embedded wake latch, so a single CompQueue gives a transport both its
// Poll buffer and its SetWakeSink implementation.
type CompQueue struct {
	//photon:lock compq 80
	mu    sync.Mutex
	comps mem.Queue[BackendCompletion]
	wake  *WakeChan
}

// NewCompQueue creates an empty completion queue.
func NewCompQueue() *CompQueue {
	return &CompQueue{wake: NewWakeChan()}
}

// Push appends one completion and kicks the wake latch.
//
//photon:hotpath
func (q *CompQueue) Push(c BackendCompletion) {
	q.mu.Lock() //photon:allow hotpathalloc -- queue mutex is the completion handoff point; held only for one push
	q.comps.PushBack(c)
	q.mu.Unlock()
	q.wake.Kick()
}

// Drain moves up to len(dst) completions into dst, returning the count.
// It never blocks.
//
//photon:hotpath
func (q *CompQueue) Drain(dst []BackendCompletion) int {
	q.mu.Lock() //photon:allow hotpathalloc -- queue mutex is the completion handoff point; held only for the pops
	n := q.comps.PopInto(dst)
	q.mu.Unlock()
	return n
}

// Kick signals the wake latch without queueing a completion (remote
// data landed in registered memory, credits may have returned).
//
//photon:hotpath
func (q *CompQueue) Kick() { q.wake.Kick() }

// Wake exposes the embedded latch for Notify/SetWakeSink plumbing.
func (q *CompQueue) Wake() *WakeChan { return q.wake }

// Allgather is the bootstrap exchange of a job whose ranks share one
// process (the vsim and shm clusters): each rank contributes a blob,
// the last to arrive publishes them all, and every rank returns the
// same set, indexed by rank. One Allgather serves any number of
// rounds: a round publishes only once every rank has returned from the
// previous one, so one published set is all it keeps.
type Allgather struct {
	//photon:lock allgather 95
	mu      sync.Mutex
	cond    sync.Cond
	gen     int
	arrived int
	blobs   [][]byte
	out     [][]byte
}

// NewAllgather creates the exchange for n ranks.
func NewAllgather(n int) *Allgather {
	a := &Allgather{blobs: make([][]byte, n)}
	a.cond.L = &a.mu
	return a
}

// Exchange contributes rank's blob (copied) and blocks until every
// rank has contributed to this round.
func (a *Allgather) Exchange(rank int, blob []byte) [][]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	gen := a.gen
	a.blobs[rank] = append([]byte(nil), blob...)
	a.arrived++
	if a.arrived == len(a.blobs) {
		a.out = a.blobs
		a.blobs = make([][]byte, len(a.out))
		a.arrived = 0
		a.gen++
		a.cond.Broadcast()
	}
	for a.gen == gen {
		a.cond.Wait()
	}
	return a.out
}

// notifier fans one backend activity event out to every consumer: the
// BackendNotify latch and every subscribed blocking waiter. Each waiter
// owns a private capacity-1 channel for the duration of its wait, so a
// kick consumed by one waiter can never starve another — the fairness
// hole of a single shared notify channel. Channels, and the park
// timers of waiters that actually parked, are recycled through free
// lists, keeping steady-state blocking waits allocation-free.
type notifier struct {
	extern chan struct{} // BackendNotify consumers (capacity 1)

	//photon:lock notifier 90
	mu     sync.Mutex
	subs   []chan struct{}
	free   []chan struct{}
	timers []*time.Timer // stopped, drained park timers
	nSubs  atomic.Int32
}

// fanout delivers one activity event to every consumer. It is the sink
// installed with Backend.SetWakeSink and runs on the backend's
// event-producing goroutine, so it must stay non-blocking.
//
//photon:hotpath
func (nf *notifier) fanout() {
	select {
	case nf.extern <- struct{}{}:
	default:
	}
	if nf.nSubs.Load() == 0 {
		return
	}
	nf.mu.Lock() //photon:allow hotpathalloc -- subscriber list lock; only taken when a blocking waiter is actually parked
	for _, ch := range nf.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	nf.mu.Unlock()
}

// subscribe hands out a private wake channel, registered for fanout.
func (nf *notifier) subscribe() chan struct{} {
	nf.mu.Lock()
	var ch chan struct{}
	if n := len(nf.free); n > 0 {
		ch = nf.free[n-1]
		nf.free[n-1] = nil
		nf.free = nf.free[:n-1]
	} else {
		ch = make(chan struct{}, 1)
	}
	nf.subs = append(nf.subs, ch)
	nf.mu.Unlock()
	nf.nSubs.Add(1)
	return ch
}

// parkTimer returns a timer armed for parkGrace, recycled from the free
// list when one is there.
func (nf *notifier) parkTimer() *time.Timer {
	nf.mu.Lock()
	var t *time.Timer
	if n := len(nf.timers); n > 0 {
		t = nf.timers[n-1]
		nf.timers[n-1] = nil
		nf.timers = nf.timers[:n-1]
	}
	nf.mu.Unlock()
	if t == nil {
		return time.NewTimer(parkGrace)
	}
	t.Reset(parkGrace)
	return t
}

// unsubscribe retires a wake channel, and the waiter's park timer if it
// took one, back to the free lists. Both are left clean for the next
// user: the channel's stale token is drained, and the timer is stopped
// with a fire that already landed in C drained. The drain never blocks:
// a fire still in flight past Stop can at worst wake the next parker
// early, and every park re-polls anyway.
func (nf *notifier) unsubscribe(ch chan struct{}, t *time.Timer) {
	if t != nil && !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	nf.mu.Lock()
	if t != nil {
		nf.timers = append(nf.timers, t)
	}
	for i, c := range nf.subs {
		if c == ch {
			last := len(nf.subs) - 1
			nf.subs[i] = nf.subs[last]
			nf.subs[last] = nil
			nf.subs = nf.subs[:last]
			break
		}
	}
	select {
	case <-ch:
	default:
	}
	nf.free = append(nf.free, ch)
	nf.mu.Unlock()
	nf.nSubs.Add(-1)
}

// Package runtime is a miniature message-driven runtime system in the
// HPX-5 mold — localities, typed actions, parcels, and futures — built
// directly on Photon's put-with-completion primitive. It reproduces the
// paper's integration story: a parcel transport does not want two-sided
// matching, it wants data delivered one-sidedly with a completion
// identifier the scheduler can dispatch on, which is exactly what the
// PWC ledger provides.
//
// A parcel names an action (a registered handler), carries a payload,
// and optionally a continuation: a future at the sender that the
// handler's return value resolves. Parcels ride Photon Sends whose
// remote RID carries the parcel tag; the locality's dispatcher harvests
// remote completions, decodes parcels, and runs handlers on a pool of
// at most 64 workers (maxWorkers). Local completions route back to
// futures, which is how the global-address-space layer (gas.go) turns
// one-sided puts and gets into awaitable operations. Config holds only
// a timeout: it bounds Barrier and every parcel send that has to wait
// for ledger credits.
//
// RID space: the runtime claims bits 62 (parcels) and 61 (local future
// routing). Applications sharing a Photon instance with the runtime
// must keep those bits clear in their own RIDs; collectives.Comm claims
// bit 63 and must not share a Photon instance with a running Locality
// (its completions would be consumed by the dispatcher).
package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/core"
	"photon/internal/mem"
)

// RID tag bits claimed by the runtime.
const (
	bitParcel = uint64(1) << 62
	bitFuture = uint64(1) << 61
)

// Errors returned by the runtime. ErrTimeout wraps core.ErrTimeout,
// so errors.Is against either name matches timeouts from this layer.
var (
	ErrStopped        = errors.New("runtime: locality stopped")
	ErrUnknownAction  = errors.New("runtime: unknown action")
	ErrActionConflict = errors.New("runtime: action name hash collision")
	ErrTimeout        = fmt.Errorf("runtime: wait timed out: %w", core.ErrTimeout)
)

// ActionID names a registered handler, stable across ranks (FNV-1a of
// the action name).
type ActionID uint32

// Context is what a handler receives. The Context itself belongs to the
// executing worker and is reused for its next parcel: a handler must not
// retain ctx past its return (Payload it may keep).
type Context struct {
	// Rt is the executing locality.
	Rt *Locality
	// Src is the rank that sent the parcel.
	Src int
	// Payload is the parcel body (owned by the handler).
	Payload []byte
}

// Handler executes one parcel. Its return value resolves the sender's
// continuation future (if the parcel carried one); a returned error
// resolves the future with that error.
type Handler func(ctx *Context) ([]byte, error)

// maxWorkers bounds concurrently executing handlers on one locality.
const maxWorkers = 64

// Config tunes a locality.
type Config struct {
	// Timeout bounds internal waits like Barrier and a parcel send's
	// wait for credits (default 30s; <=0 waits forever).
	Timeout time.Duration
}

func (c *Config) setDefaults() {
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
}

// Counters reports locality activity.
type Counters struct {
	ParcelsSent     int64
	ParcelsExecuted int64
	FuturesResolved int64
}

// waitTimers recycles the timers that bound blocking waits. A wait
// takes one only once it actually has to block and stops it before
// returning, so no wait leaves a timer behind in the runtime's timer
// heap (an abandoned 30 s timer stays there until it fires, and every
// timer operation pays for the heap's size).
var waitTimers sync.Pool

func armTimer(d time.Duration) *time.Timer {
	if t, _ := waitTimers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// disarmTimer stops t, clears a tick the caller did not consume, and
// recycles it.
func disarmTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	waitTimers.Put(t)
}

// Future is a single-assignment value produced by a remote action or a
// one-sided operation.
type Future struct {
	// resolved flips once, after data/value/err are written; a waiter
	// that observes it set reads them without taking mu.
	resolved atomic.Bool
	//photon:lock future 25
	mu     sync.Mutex
	wake   chan struct{} // made by the first waiter that has to block; closed by set
	data   []byte
	value  uint64
	err    error
	preset []byte // resolution data when the completion carries none
	// (one-sided gets deliver into the caller's buffer)
}

func (f *Future) set(data []byte, value uint64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resolved.Load() {
		return
	}
	if data == nil && err == nil {
		data = f.preset
	}
	f.data, f.value, f.err = data, value, err
	f.resolved.Store(true)
	if f.wake != nil {
		close(f.wake)
	}
}

// await blocks until the future resolves or the timeout passes.
func (f *Future) await(timeout time.Duration) error {
	if f.resolved.Load() {
		return nil
	}
	f.mu.Lock()
	if f.resolved.Load() {
		f.mu.Unlock()
		return nil
	}
	if f.wake == nil {
		f.wake = make(chan struct{})
	}
	wake := f.wake
	f.mu.Unlock()
	if timeout <= 0 {
		<-wake
		return nil
	}
	t := armTimer(timeout)
	defer disarmTimer(t)
	select {
	case <-wake:
		return nil
	case <-t.C:
		return ErrTimeout
	}
}

// Wait blocks until the future resolves; a non-positive timeout waits
// forever. Repeat waits return the same result.
func (f *Future) Wait(timeout time.Duration) ([]byte, error) {
	if err := f.await(timeout); err != nil {
		return nil, err
	}
	return f.data, f.err
}

// Value waits and returns the 64-bit payload of atomic-style futures.
func (f *Future) Value(timeout time.Duration) (uint64, error) {
	if err := f.await(timeout); err != nil {
		return 0, err
	}
	return f.value, f.err
}

// Locality is one rank's runtime instance.
type Locality struct {
	ph   *core.Photon
	cfg  Config
	rank int
	size int

	//photon:lock act 10
	actMu   sync.RWMutex
	actions map[ActionID]Handler
	names   map[ActionID]string

	//photon:lock fut 20
	futMu   sync.Mutex
	futures map[uint64]*Future
	nextFut uint64

	seq atomic.Uint64

	// enc recycles encode buffers for parcels of at most eager bytes,
	// the largest Photon sends packed (and so snapshots at post).
	enc   *mem.BufPool
	eager int

	// Handlers run on persistent workers. work is unbuffered, so a
	// send completes only into a worker that is idle right now; the
	// dispatcher alone starts workers and counts them in nWorkers.
	work     chan work
	nWorkers int
	handlers sync.WaitGroup

	stop    chan struct{}
	stopped atomic.Bool
	done    sync.WaitGroup

	// barrier state
	barrierGen atomic.Uint64
	//photon:lock bar 30
	barMu  sync.Mutex
	barGen map[uint64]*barState

	counters struct {
		sent, executed, resolved atomic.Int64
	}
}

// work is one decoded parcel on its way to a worker.
type work struct {
	h       Handler
	src     int
	cont    uint64
	payload []byte
}

type barState struct {
	count   int
	release chan struct{}
}

// Internal actions. Replies are not in the handler table: the
// dispatcher resolves them itself (see execParcel).
const (
	actReply   = "__runtime_reply"
	actBarrier = "__runtime_barrier"
)

var (
	replyID   = ActionIDFor(actReply)
	barrierID = ActionIDFor(actBarrier)
)

// NewLocality wraps a Photon instance. The caller registers actions,
// then calls Start; Start must be called on every rank before any rank
// sends parcels (a collective Barrier right after Start is idiomatic).
func NewLocality(ph *core.Photon, cfg Config) *Locality {
	cfg.setDefaults()
	l := &Locality{
		ph:      ph,
		cfg:     cfg,
		rank:    ph.Rank(),
		size:    ph.Size(),
		actions: make(map[ActionID]Handler),
		names:   map[ActionID]string{replyID: actReply},
		futures: make(map[uint64]*Future),
		nextFut: 1,
		eager:   ph.EagerThreshold(),
		work:    make(chan work),
		stop:    make(chan struct{}),
		barGen:  make(map[uint64]*barState),
	}
	l.enc = mem.NewBufPool(l.eager, 0)
	if _, err := l.RegisterAction(actBarrier, l.handleBarrier); err != nil {
		panic(err)
	}
	return l
}

// Rank returns the locality's rank.
func (l *Locality) Rank() int { return l.rank }

// Size returns the job size.
func (l *Locality) Size() int { return l.size }

// Counters returns an activity snapshot.
func (l *Locality) Counters() Counters {
	return Counters{
		ParcelsSent:     l.counters.sent.Load(),
		ParcelsExecuted: l.counters.executed.Load(),
		FuturesResolved: l.counters.resolved.Load(),
	}
}

// ActionIDFor computes the stable ID for an action name (32-bit
// FNV-1a, allocation-free).
func ActionIDFor(name string) ActionID {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return ActionID(h)
}

// RegisterAction installs a handler under the name's stable ID. Every
// rank must register the same actions before Start.
func (l *Locality) RegisterAction(name string, h Handler) (ActionID, error) {
	id := ActionIDFor(name)
	l.actMu.Lock()
	defer l.actMu.Unlock()
	if prev, ok := l.names[id]; ok && prev != name {
		return 0, fmt.Errorf("%w: %q vs %q", ErrActionConflict, prev, name)
	}
	l.names[id] = name
	l.actions[id] = h // re-registration replaces
	return id, nil
}

// Start launches the dispatcher.
func (l *Locality) Start() {
	l.done.Add(1)
	go l.dispatch()
}

// Shutdown stops the dispatcher, resolves unresolved futures with
// ErrStopped, and returns once every in-flight handler has finished
// and every worker has exited.
func (l *Locality) Shutdown() {
	if l.stopped.Swap(true) {
		return
	}
	close(l.stop)
	l.done.Wait()
	l.futMu.Lock()
	for id, f := range l.futures {
		delete(l.futures, id)
		f.set(nil, 0, ErrStopped)
	}
	l.futMu.Unlock()
	l.handlers.Wait()
}

// newFutureID registers a fresh future.
func (l *Locality) newFutureID() (uint64, *Future) {
	f := &Future{}
	l.futMu.Lock()
	id := l.nextFut
	l.nextFut++
	l.futures[id] = f
	l.futMu.Unlock()
	return id, f
}

func (l *Locality) takeFuture(id uint64) (*Future, bool) {
	l.futMu.Lock()
	f, ok := l.futures[id]
	if ok {
		delete(l.futures, id)
	}
	l.futMu.Unlock()
	return f, ok
}

// registerFutureForRID attaches a future to a local-completion RID (GAS
// operations use this). buf, when non-nil, becomes the future's data if
// the completion itself carries none (one-sided gets fill the caller's
// buffer directly).
func (l *Locality) registerFutureForRID(buf []byte) (uint64, *Future) {
	id, f := l.newFutureID()
	f.preset = buf
	return bitFuture | id, f
}

// Parcel wire fixed-part lengths shared by the encoder and the
// decode-side short-frame checks.
const (
	parcelHdrLen   = 4 + 8 // action4 | cont8; payload follows
	replyHdrLen    = 8 + 1 // cont8 | failed1; body follows
	barrierBodyLen = 8     // generation8
)

// putParcelHeader writes a parcel's header into b[:parcelHdrLen].
func putParcelHeader(b []byte, action ActionID, cont uint64) {
	binary.LittleEndian.PutUint32(b[0:], uint32(action))
	binary.LittleEndian.PutUint64(b[4:], cont)
}

// decodeParcel splits a parcel into its action, the continuation its
// result resolves (0 for none) and its payload, which aliases b. ok is
// false for a buffer shorter than the header.
func decodeParcel(b []byte) (action ActionID, cont uint64, payload []byte, ok bool) {
	if len(b) < parcelHdrLen {
		return 0, 0, nil, false
	}
	return ActionID(binary.LittleEndian.Uint32(b[0:])), binary.LittleEndian.Uint64(b[4:]), b[parcelHdrLen:], true
}

// putReplyHeader writes a reply parcel's header into b[:replyHdrLen].
func putReplyHeader(b []byte, cont uint64, failed bool) {
	binary.LittleEndian.PutUint64(b[0:], cont)
	b[8] = 0
	if failed {
		b[8] = 1
	}
}

// decodeReply splits a reply parcel's payload into the continuation it
// resolves, whether the handler failed (the body is then its error
// text) and the body, which aliases p. ok is false for a buffer shorter
// than the header or a failure flag other than 0 or 1.
func decodeReply(p []byte) (cont uint64, failed bool, body []byte, ok bool) {
	if len(p) < replyHdrLen || p[8] > 1 {
		return 0, false, nil, false
	}
	return binary.LittleEndian.Uint64(p[0:]), p[8] == 1, p[replyHdrLen:], true
}

// Apply sends a fire-and-forget parcel. payload is copied before Apply
// returns.
func (l *Locality) Apply(rank int, action ActionID, payload []byte) error {
	return l.send(rank, action, 0, nil, payload)
}

// Call sends a parcel whose handler's return value resolves the
// returned future. payload is copied before Call returns.
func (l *Locality) Call(rank int, action ActionID, payload []byte) (*Future, error) {
	id, f := l.newFutureID()
	if err := l.send(rank, action, id, nil, payload); err != nil {
		l.takeFuture(id)
		return nil, err
	}
	return f, nil
}

// send encodes [action4][cont8][head][payload] and posts it. A parcel
// that fits a packed send is encoded into a pooled buffer, recycled as
// soon as the post returns (packed sends snapshot their data at post);
// a larger one rides a rendezvous that reads the buffer until the
// receiver's FIN, so it gets a heap buffer nobody recycles.
func (l *Locality) send(rank int, action ActionID, cont uint64, head, payload []byte) error {
	if l.stopped.Load() {
		return ErrStopped
	}
	n := parcelHdrLen + len(head) + len(payload)
	pooled := n <= l.eager
	var b []byte
	if pooled {
		b = l.enc.Get(n)
	} else {
		b = make([]byte, n)
	}
	putParcelHeader(b, action, cont)
	copy(b[parcelHdrLen:], head)
	copy(b[parcelHdrLen+len(head):], payload)
	rid := bitParcel | (l.seq.Add(1) & ((1 << 48) - 1))
	// Try once before arming a deadline: a parcel that posts at once
	// reads no clock.
	err := l.ph.Send(rank, b, 0, rid)
	if errors.Is(err, core.ErrWouldBlock) {
		err = l.waitCredits(rank, b, rid)
	}
	if pooled {
		l.enc.Put(b)
	}
	if err != nil {
		return err
	}
	l.counters.sent.Add(1)
	return nil
}

// waitCredits retries a parcel refused for credits through core's
// retry loop until this locality stops (ErrStopped) or Config.Timeout
// passes (<=0 waits for as long as op deadlines allow). A rank whose
// locality has shut down returns no credits: without the stop check a
// handler sending to it would hold this locality's Shutdown for the
// whole Timeout, and without the bound for good.
func (l *Locality) waitCredits(rank int, b []byte, rid uint64) error {
	var spec core.WaitSpec
	if l.cfg.Timeout > 0 {
		spec.Deadline = time.Now().Add(l.cfg.Timeout)
	}
	w := core.NewWaiter(l.ph)
	defer w.Release()
	err := l.ph.Retry(w, &spec, func() error {
		if l.stopped.Load() {
			return ErrStopped
		}
		return l.ph.Send(rank, b, 0, rid)
	})
	if errors.Is(err, core.ErrTimeout) {
		return ErrTimeout
	}
	return err
}

// reply resolves continuation cont at rank with a handler's result, or
// fails it with the error's text.
func (l *Locality) reply(rank int, cont uint64, out []byte, err error) {
	var head [replyHdrLen]byte
	putReplyHeader(head[:], cont, err != nil)
	if err != nil {
		out = []byte(err.Error())
	}
	_ = l.send(rank, replyID, 0, head[:], out)
}

// dispatch is the progress/dispatch loop. After a round that found
// nothing it parks on the engine's wait pacer, which the backend wakes
// when a write lands or a completion is queued (see core.Waiter).
func (l *Locality) dispatch() {
	defer l.done.Done()
	w := core.NewWaiter(l.ph)
	defer w.Release()
	for !l.stopped.Load() {
		n := l.ph.Progress()
		for {
			c, ok := l.ph.PopRemote()
			if !ok {
				break
			}
			n++
			if c.RID&bitParcel != 0 {
				l.execParcel(c)
			}
			// Non-parcel remote completions are dropped: under a
			// running locality, all remote traffic is parcels.
		}
		for {
			c, ok := l.ph.PopLocal()
			if !ok {
				break
			}
			n++
			if c.RID&bitFuture != 0 {
				if f, ok := l.takeFuture(c.RID &^ bitFuture); ok {
					f.set(c.Data, c.Value, c.Err)
					l.counters.resolved.Add(1)
				}
			}
		}
		if n == 0 {
			w.Idle()
		}
	}
}

// execParcel decodes one parcel and hands it to a worker. c.Data is the
// dispatcher's to give away: the payload (and a reply body) alias it.
func (l *Locality) execParcel(c core.Completion) {
	action, cont, payload, ok := decodeParcel(c.Data)
	if !ok {
		return
	}
	// Replies resolve inline on the dispatcher: they only complete
	// futures and must never wait behind workers whose handlers are
	// themselves blocked on those futures.
	if action == replyID {
		l.counters.executed.Add(1)
		l.resolveReply(payload)
		return
	}
	l.actMu.RLock()
	h, ok := l.actions[action]
	l.actMu.RUnlock()
	if !ok {
		if cont != 0 {
			l.reply(c.Rank, cont, nil, fmt.Errorf("%w: id %d", ErrUnknownAction, action))
		}
		return
	}
	w := work{h: h, src: c.Rank, cont: cont, payload: payload}
	select {
	case l.work <- w: // an idle worker took it
		return
	default:
	}
	if l.nWorkers < maxWorkers {
		l.nWorkers++
		l.handlers.Add(1)
		go l.worker(w)
		return
	}
	// Every worker is busy: the dispatcher waits for one.
	select {
	case l.work <- w:
	case <-l.stop:
	}
}

// worker runs parcels until the locality stops, starting with first.
// Staying alive between parcels keeps the goroutine's grown stack.
func (l *Locality) worker(w work) {
	defer l.handlers.Done()
	ctx := &Context{Rt: l}
	for {
		ctx.Src, ctx.Payload = w.src, w.payload
		out, err := w.h(ctx)
		l.counters.executed.Add(1)
		if w.cont != 0 {
			l.reply(w.src, w.cont, out, err)
		}
		select {
		case w = <-l.work:
		case <-l.stop:
			return
		}
	}
}

// resolveReply resolves the continuation future a reply parcel names.
func (l *Locality) resolveReply(p []byte) {
	cont, failed, body, ok := decodeReply(p)
	if !ok {
		return
	}
	f, ok := l.takeFuture(cont)
	if !ok {
		return
	}
	switch {
	case failed:
		f.set(nil, 0, errors.New(string(body)))
	case len(body) == 0: // a handler that returned nothing resolves to nil
		f.set(nil, 0, nil)
	default:
		f.set(body, 0, nil)
	}
	l.counters.resolved.Add(1)
}

// Barrier blocks until every rank has entered (implemented as parcels
// to rank 0, whose handler holds each caller until the generation
// completes).
func (l *Locality) Barrier() error {
	var body [barrierBodyLen]byte
	binary.LittleEndian.PutUint64(body[:], l.barrierGen.Add(1))
	f, err := l.Call(0, barrierID, body[:])
	if err != nil {
		return err
	}
	_, err = f.Wait(l.cfg.Timeout)
	return err
}

// handleBarrier runs at rank 0: it blocks the worker until all ranks of
// the generation have arrived, then releases them all at once.
func (l *Locality) handleBarrier(ctx *Context) ([]byte, error) {
	if len(ctx.Payload) < barrierBodyLen {
		return nil, errors.New("runtime: short barrier parcel")
	}
	gen := binary.LittleEndian.Uint64(ctx.Payload)
	l.barMu.Lock()
	st, ok := l.barGen[gen]
	if !ok {
		st = &barState{release: make(chan struct{})}
		l.barGen[gen] = st
	}
	st.count++
	if st.count == l.size {
		close(st.release)
		delete(l.barGen, gen)
	}
	l.barMu.Unlock()
	var expire <-chan time.Time
	if l.cfg.Timeout > 0 {
		t := armTimer(l.cfg.Timeout)
		defer disarmTimer(t)
		expire = t.C
	}
	select {
	case <-st.release:
		return nil, nil
	case <-l.stop:
		return nil, ErrStopped
	case <-expire:
		return nil, ErrTimeout
	}
}

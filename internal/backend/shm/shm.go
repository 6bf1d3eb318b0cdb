// Package shm is Photon's intra-host shared-memory backend: the
// core.Backend transport contract for ranks that share one address
// space, with no simulated NIC or socket between a post and its apply.
// It models the paths high-performance runtimes select for same-node
// peers, where co-located ranks load and store straight into each
// other's registered windows (MPI-3 shared-memory windows, CMA/XPMEM)
// instead of going through a message agent.
//
// One applier rule. Every operation from rank s toward rank t runs
// under s's producer lock for t, in try mode against t's mem.RegTable:
// whoever holds that lock applies. A post toward t first drains s's
// backlog toward t, then applies the operation itself — a write, read,
// fetch-add or comp-swap, one copy — when the backlog is empty and the
// target region's DMA lock (and t's table lock) is free, pushing its
// own completion before it releases the producer lock. Otherwise the
// request joins the backlog (a write's payload is copied into the
// pair's ring at post time, PostWrite's snapshot-at-post contract).
// The backlog is drained by the next post toward t, by s's Poll and by
// t's Poll, each from the front and each in try mode, so a request
// queued behind a busy region lands even if s never posts or polls
// again. No goroutine is involved: a backend is driven entirely by its
// callers, and a poster never waits for a peer's lock, so two ranks
// that each hold their own DMA lock while posting to each other queue
// rather than deadlock. Each registration has its own DMA lock, so a
// write into a data region never waits for the target polling its
// ledger arena.
//
// Wake-ups. Appending a request kicks t's engine. A backlogged request
// that finds a lock of t's table held marks t refused, and every
// release of a lock of t's table kicks t's engine when the mark is
// set: an applier's, t's ApplyLocal, Register or Deregister, or a
// holder of a DMA lock Register handed out (the table runs t's
// released hook after each). So a parked engine polls again as soon
// as the lock is free, and not before: where a goroutine used to wait
// inside Lock, nothing waits or re-polls while another goroutine holds
// the DMA lock. Draining kicks s's engine, so posts it deferred for
// lack of ring space retry.
//
// The poster stores into the target's memory, and a target's Poll
// stores read and atomic results into the initiator's buffer: both rest
// on the ranks sharing one address space. Ranks in separate processes
// need a mapped segment instead.
//
// Ordering: one FIFO backlog per directed pair, applied only under the
// pair's producer lock, gives RC in-order-per-rank execution, and an
// operation is applied at post time only on an empty backlog, so it
// never overtakes a queued request. Completions are pushed in applying
// order, so a signaled completion fences everything posted earlier
// toward the same rank. A full ring surfaces as core.ErrWouldBlock
// (counted in shm_ring_full_spins) and the engine defers and retries,
// the same backpressure path as a full send queue. A post toward a
// closed rank fails with core.ErrPeerDown, and Close fails every
// request still queued toward the closing rank.
package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"photon/internal/core"
	"photon/internal/mem"
)

// Config tunes the cluster.
type Config struct {
	// RingBytes is the capacity of each directed per-pair ring
	// (default 1MiB, rounded up to a power of two). One operation may
	// use at most half the ring; larger payloads get ErrTooLarge.
	RingBytes int
}

func (c *Config) setDefaults() {
	if c.RingBytes <= 0 {
		c.RingBytes = 1 << 20
	}
	// Round up to a power of two (ring indexing masks).
	sz := 1
	for sz < c.RingBytes {
		sz <<= 1
	}
	c.RingBytes = sz
}

const (
	opWrite = iota
	opRead
	opFAdd
	opCSwap

	// atomicResultLen is the 8-byte word every fetch-add/comp-swap
	// result buffer must hold; the prior value is written back into
	// exactly this many bytes of the initiator's buffer.
	atomicResultLen = 8
)

// opCost is what a backlogged request is charged in ring bytes, a
// write's payload excluded: the size of its fixed fields as the ring
// once framed them (u32 length, u8 op, u64 token, then u64 raddr and
// u32 rkey, plus a write's u8 flags, a read's u32 length or an atomic's
// u64 operands).
var opCost = [...]int{opWrite: 26, opRead: 29, opFAdd: 33, opCSwap: 41}

// request is one operation toward a peer.
type request struct {
	op       byte
	signaled bool // opWrite
	token    uint64
	raddr    uint64
	rkey     uint32
	n        int    // opWrite payload length, opRead length
	operand  uint64 // opFAdd addend, opCSwap compare
	swap     uint64 // opCSwap
	dst      []byte // a backlogged read's or atomic's result destination
}

// cost is the ring bytes r is charged while it is backlogged.
func (r *request) cost() int {
	if r.op == opWrite {
		return opCost[opWrite] + r.n
	}
	return opCost[r.op]
}

// owesCompletion reports whether r's initiator awaits a completion.
func (r *request) owesCompletion() bool { return r.op != opWrite || r.signaled }

// backlog holds one directed pair's requests that could not be applied
// at post time, in posting order. The source rank's producer lock for
// the target guards it.
type backlog struct {
	reqs mem.Queue[request]
	ring ring
	// fullSpins counts posts refused for lack of ring space (surfaced
	// as ErrWouldBlock → engine defer/retry); TransportStats exports it
	// as shm_ring_full_spins.
	fullSpins atomic.Int64
}

// Cluster owns one shm backend per rank plus the bootstrap exchange
// state. All ranks live in the calling process.
type Cluster struct {
	backends []*Backend
	ag       *core.Allgather // bootstrap exchange
}

// NewCluster creates an n-rank shared-memory job. It starts no
// goroutine.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shm: cluster size %d", n)
	}
	cfg.setDefaults()
	c := &Cluster{backends: make([]*Backend, n), ag: core.NewAllgather(n)}
	for r := 0; r < n; r++ {
		b := &Backend{
			cluster: c,
			rank:    r,
			size:    n,
			prodMu:  make([]sync.Mutex, n),
			out:     make([]backlog, n),
			compq:   core.NewCompQueue(),
		}
		b.mem = mem.NewRegTable("shm", b.released)
		for t := range b.out {
			if t != r {
				b.out[t].ring = newRing(cfg.RingBytes)
			}
		}
		c.backends[r] = b
	}
	return c, nil
}

// Backends returns the per-rank backends, indexed by rank.
func (c *Cluster) Backends() []*Backend { return c.backends }

// Backend returns the backend for one rank.
func (c *Cluster) Backend(rank int) *Backend { return c.backends[rank] }

// Close shuts down every backend.
func (c *Cluster) Close() {
	for _, b := range c.backends {
		if b != nil {
			b.Close()
		}
	}
}

// Backend is one rank's shared-memory transport endpoint.
type Backend struct {
	cluster *Cluster
	rank    int
	size    int

	// prodMu[t] makes its holder the only applier of this rank's
	// operations toward rank t: posters, this rank's Poll and t's Poll
	// take it, so operations toward t run one at a time in posting
	// order, and an empty out[t] under it means everything posted
	// earlier has been applied.
	//photon:lock shmprod 20
	prodMu []sync.Mutex
	// out[t] is this rank's backlog toward rank t (unused at self).
	out []backlog
	// queued counts the requests in the backlogs this rank's Poll
	// drains, toward it and from it, so an idle Poll takes no lock.
	queued atomic.Int64

	// mem is the registration table every access is validated against
	// and applied through, under the target region's own DMA lock. It
	// calls released after every release of a lock it takes or hands
	// out.
	mem *mem.RegTable
	// refused is set when a backlogged request toward this rank found
	// a lock of its table held; whoever releases a lock of the table
	// then kicks this rank's engine (released), whose Poll applies the
	// request. A refused drain sets it and then tries once more, so a
	// release between the refusal and the mark is not missed.
	refused atomic.Bool

	// compq carries completions back to this rank's engine and doubles
	// as its wake event source.
	compq  *core.CompQueue
	closed atomic.Bool

	// Transport counters (TransportStats). They count only requests
	// that went through a backlog, not those applied at post time.
	framesIn  atomic.Int64
	framesOut atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
}

var (
	_ core.Backend      = (*Backend)(nil)
	_ core.StatsBackend = (*Backend)(nil)
)

// Rank returns this endpoint's rank.
func (b *Backend) Rank() int { return b.rank }

// Size returns the job size.
func (b *Backend) Size() int { return b.size }

// Register pins buf into the local registration table. The locker it
// returns is the registration's own DMA lock, and releasing it wakes
// this rank's engine when a request was refused while it was held.
func (b *Backend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	r, err := b.mem.Register(buf, mem.AccessAll)
	if err != nil {
		return mem.RemoteBuffer{}, nil, err
	}
	return r.Remote(), r.RLocker(), nil
}

// released follows every release of a lock of this rank's table: when
// a request toward this rank was refused while a lock was held, it
// kicks this rank's engine, so its Poll applies the request now rather
// than on some later wake-up.
func (b *Backend) released() {
	if b.refused.Load() && b.refused.Swap(false) {
		b.compq.Kick()
	}
}

// Deregister removes a registration.
func (b *Backend) Deregister(rb mem.RemoteBuffer) error { return b.mem.Deregister(rb) }

// ApplyLocal performs a loopback DMA write into this rank's own
// registered memory with full validation.
func (b *Backend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	return b.mem.Write(false, raddr, rkey, data, nil)
}

// WriteActivity counts the writes applied to one registration, whoever
// applies them.
func (b *Backend) WriteActivity(rb mem.RemoteBuffer) (func() uint64, bool) {
	return b.mem.WriteActivity(rb)
}

// Poll applies what it can of the backlogs toward and from this rank,
// then reaps completions. It never blocks.
func (b *Backend) Poll(dst []core.BackendCompletion) int {
	if b.queued.Load() > 0 {
		b.drainAll()
	}
	return b.compq.Drain(dst)
}

// drainAll drains every backlog this rank polls whose producer lock is
// free. What it leaves waits on a held lock: a producer lock's holder
// drains the backlog itself, and the holder of a lock of the target's
// table kicks the target when it releases (see refused).
func (b *Backend) drainAll() {
	for _, p := range b.cluster.backends {
		if p == b {
			continue
		}
		if b.prodMu[p.rank].TryLock() {
			b.drain(p)
			b.prodMu[p.rank].Unlock()
		}
		if p.prodMu[b.rank].TryLock() {
			p.drain(b)
			p.prodMu[b.rank].Unlock()
		}
	}
}

// Notify returns the channel signaled when a completion is queued or
// remote data lands in registered memory, for callers driving the bare
// transport without an engine. It goes idle once a wake sink is
// installed.
func (b *Backend) Notify() <-chan struct{} { return b.compq.Wake().Chan() }

// SetWakeSink redirects those events to fn.
func (b *Backend) SetWakeSink(fn func()) { b.compq.Wake().SetSink(fn) }

// TransportStats implements core.StatsBackend. shm_ring_full_spins
// sums producer-side backpressure on every ring this rank posts into.
func (b *Backend) TransportStats(yield func(name string, v int64)) {
	yield("shm_frames_in", b.framesIn.Load())
	yield("shm_frames_out", b.framesOut.Load())
	yield("shm_bytes_in", b.bytesIn.Load())
	yield("shm_bytes_out", b.bytesOut.Load())
	var spins int64
	for i := range b.out {
		spins += b.out[i].fullSpins.Load()
	}
	yield("shm_ring_full_spins", spins)
}

// ClockOffset is zero: every rank lives in one process, so all clocks
// are identical by construction.
func (b *Backend) ClockOffset(rank int) (offsetNS, rttNS int64, ok bool) {
	return 0, 0, rank >= 0 && rank < b.size
}

// Exchange performs the collective bootstrap allgather.
func (b *Backend) Exchange(local []byte) ([][]byte, error) {
	return b.cluster.ag.Exchange(b.rank, local), nil
}

// Close marks this rank closed and, holding each peer's producer lock
// toward it, fails every request still queued toward it with
// core.ErrPeerDown. A poster that checked before the mark has queued
// by the time Close holds its lock, and any later one fails at post.
// Idempotent.
func (b *Backend) Close() error {
	if !b.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, p := range b.cluster.backends {
		if p != b {
			p.prodMu[b.rank].Lock()
			p.drain(b)
			p.prodMu[b.rank].Unlock()
		}
	}
	return nil
}

func peerDown(rank int) error {
	return fmt.Errorf("shm: rank %d closed: %w", rank, core.ErrPeerDown)
}

func (b *Backend) checkRank(rank int) error {
	if rank < 0 || rank >= b.size {
		return core.ErrBadRank
	}
	if b.closed.Load() {
		return core.ErrClosed
	}
	return nil
}

// PostWrite writes local to (raddr, rkey) at rank. The payload is
// copied before PostWrite returns (applied at once, or into the
// backlog's ring), so the caller may recycle local as soon as this
// returns nil.
func (b *Backend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	return b.post(rank, &request{op: opWrite, signaled: signaled, token: token, raddr: raddr, rkey: rkey, n: len(local)}, local)
}

// PostWriteBatch posts a burst under one producer-lock acquisition,
// with one kick of the target when any of it was backlogged.
func (b *Backend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	if err := b.checkRank(rank); err != nil {
		return 0, err
	}
	if rank == b.rank {
		for i := range reqs {
			if err := b.PostWrite(rank, reqs[i].Local, reqs[i].RemoteAddr, reqs[i].RKey, reqs[i].Token, reqs[i].Signaled); err != nil {
				return i, err
			}
		}
		return len(reqs), nil
	}
	var frames, bytes int
	n := 0
	var err error
	b.prodMu[rank].Lock()
	for ; n < len(reqs); n++ {
		q := &reqs[n]
		r := request{op: opWrite, signaled: q.Signaled, token: q.Token, raddr: q.RemoteAddr, rkey: q.RKey, n: len(q.Local)}
		var used int
		if used, err = b.submit(rank, &r, q.Local); err != nil {
			break
		}
		if used > 0 {
			frames++
			bytes += used
		}
	}
	b.prodMu[rank].Unlock()
	b.appended(rank, frames, bytes)
	return n, err
}

// PostRead starts a one-sided read; local is owned by the backend
// until the completion is reported.
func (b *Backend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	return b.post(rank, &request{op: opRead, token: token, raddr: raddr, rkey: rkey, n: len(local)}, local)
}

// PostFetchAdd atomically adds to the 8-byte word at (raddr, rkey).
func (b *Backend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	if len(result) < atomicResultLen {
		return fmt.Errorf("shm: fetch-add result buffer too small")
	}
	return b.post(rank, &request{op: opFAdd, token: token, raddr: raddr, rkey: rkey, operand: add}, result)
}

// PostCompSwap atomically compare-and-swaps the 8-byte word.
func (b *Backend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	if len(result) < atomicResultLen {
		return fmt.Errorf("shm: comp-swap result buffer too small")
	}
	return b.post(rank, &request{op: opCSwap, token: token, raddr: raddr, rkey: rkey, operand: compare, swap: swap}, result)
}

// post submits one request toward rank. local is a write's payload, or
// a read's or atomic's result destination.
func (b *Backend) post(rank int, r *request, local []byte) error {
	if err := b.checkRank(rank); err != nil {
		return err
	}
	if rank == b.rank {
		b.apply(b, false, r, local, nil, local)
		return nil
	}
	b.prodMu[rank].Lock()
	used, err := b.submit(rank, r, local)
	b.prodMu[rank].Unlock()
	if used > 0 {
		b.appended(rank, 1, used)
	}
	return err
}

// submit runs r toward rank; the caller holds prodMu[rank]. It drains
// the backlog first; when that empties it and the target's locks are
// free, r is applied and completed at once. Otherwise r joins the
// backlog, and submit returns the ring bytes it was charged. The
// completion of an operation applied here is pushed under prodMu, so a
// later post cannot complete first; the wake sink that push calls is
// non-blocking by contract.
func (b *Backend) submit(rank int, r *request, local []byte) (int, error) {
	t := b.cluster.backends[rank]
	if t.closed.Load() {
		return 0, peerDown(rank)
	}
	bl := &b.out[rank]
	cost := r.cost()
	if cost > len(bl.ring.buf)/2 {
		return 0, core.ErrTooLarge
	}
	if bl.reqs.Len() > 0 {
		b.drain(t)
	}
	if bl.reqs.Len() == 0 && t.apply(b, true, r, local, nil, local) {
		return 0, nil
	}
	var payload []byte
	if r.op == opWrite {
		payload = local
	} else {
		r.dst = local
	}
	if !bl.ring.put(cost, payload) {
		bl.fullSpins.Add(1)
		return 0, core.ErrWouldBlock
	}
	bl.reqs.PushBack(*r)
	b.queued.Add(1)
	t.queued.Add(1)
	return cost, nil
}

// appended accounts requests backlogged toward rank and kicks its
// engine, whose Poll drains them.
func (b *Backend) appended(rank, frames, bytes int) {
	if frames == 0 {
		return
	}
	b.framesOut.Add(int64(frames))
	b.bytesOut.Add(int64(bytes))
	b.cluster.backends[rank].compq.Kick()
}

// drain applies b's backlog toward t from the front, in try mode, until
// it is empty or a lock of t's table is held; the caller holds
// b.prodMu[t.rank]. Toward a closed t it fails every request that owes
// a completion instead. Draining kicks b's engine, so posts it deferred
// for lack of ring space retry.
func (b *Backend) drain(t *Backend) {
	bl := &b.out[t.rank]
	var frames, bytes int64
	for bl.reqs.Len() > 0 {
		r := bl.reqs.At(0)
		if t.closed.Load() {
			if r.owesCompletion() {
				b.compq.Push(core.BackendCompletion{Token: r.token, Err: peerDown(t.rank)})
			}
		} else {
			var head, tail []byte
			if r.op == opWrite {
				head, tail = bl.ring.span(bl.ring.head, r.n)
			}
			if !t.apply(b, true, &r, head, tail, r.dst) {
				// Flag the refusal for the lock's holder, then look
				// once more: the holder may have released the lock
				// before it could see the flag.
				t.refused.Store(true)
				if !t.apply(b, true, &r, head, tail, r.dst) {
					break
				}
			}
		}
		bl.reqs.PopFront()
		cost := r.cost()
		bl.ring.head += uint64(cost)
		frames++
		bytes += int64(cost)
	}
	if frames == 0 {
		return
	}
	b.queued.Add(-frames)
	t.queued.Add(-frames)
	t.framesIn.Add(frames)
	t.bytesIn.Add(bytes)
	b.compq.Kick()
}

// apply executes r against b's registered memory on behalf of src and
// completes it into src's queue: a write's payload is head then tail,
// a read's or atomic's result lands in dst. With try set it gives up
// when a lock of b's table is held, doing nothing and returning false.
// Posts, drains and self-posts all run requests through it.
func (b *Backend) apply(src *Backend, try bool, r *request, head, tail, dst []byte) bool {
	var err error
	switch r.op {
	case opWrite:
		err = b.mem.Write(try, r.raddr, r.rkey, head, tail)
		if err == nil {
			// Data is visible: kick this rank's engine sweep even when
			// unsignaled (ledger writes are unsignaled by design).
			b.compq.Kick()
		}
	case opRead:
		err = b.mem.Read(try, dst[:r.n], r.raddr, r.rkey)
	default:
		var old uint64
		if r.op == opFAdd {
			old, err = b.mem.FetchAdd(try, r.raddr, r.rkey, r.operand)
		} else {
			old, err = b.mem.CompSwap(try, r.raddr, r.rkey, r.operand, r.swap)
		}
		if err == nil {
			binary.LittleEndian.PutUint64(dst, old)
		}
	}
	if errors.Is(err, mem.ErrBusy) {
		return false
	}
	if r.owesCompletion() {
		src.compq.Push(core.BackendCompletion{Token: r.token, OK: err == nil, Err: err})
	}
	return true
}

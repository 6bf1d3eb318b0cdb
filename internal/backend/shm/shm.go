// Package shm is Photon's intra-host shared-memory backend: the
// core.Backend transport contract for ranks that share one address
// space, with no simulated NIC or socket between a post and its apply.
// It models the paths high-performance runtimes select for same-node
// peers, where co-located ranks load and store straight into each
// other's registered windows (MPI-3 shared-memory windows, CMA/XPMEM)
// instead of going through a message agent.
//
// Two paths. A post toward rank t first looks, under this rank's
// producer lock for t, at the directed ring toward t. When the ring is
// drained (head == tail: every earlier request has been applied and
// completed) and t's registration table lock is free, the posting
// goroutine applies the operation itself — a write, read, fetch-add or
// comp-swap against t's mem.RegTable, one copy — kicks t's engine as
// the agent would, and pushes its own completion before releasing the
// producer lock. Otherwise the request is framed into the ring (the
// payload is copied at post time, PostWrite's snapshot-at-post
// contract), t's agent goroutine is woken, and the agent applies it,
// writing read and atomic results straight into the initiator's
// parked destination buffer and pushing the completion into the
// initiator's CompQueue. The ring and agent carry backlog and
// contention; the choice is made from state the poster observes, with
// no knob. A poster never waits for a peer's table lock (the
// RegTable accessors' try mode), so two ranks that each hold their
// own DMA lock while posting to each other fall back to the rings
// rather than deadlock.
//
// Both paths rest on the ranks sharing one address space: the poster
// stores into the target's memory and the agent into the initiator's.
// Ranks in separate processes need a mapped segment instead, and both
// shortcuts must be replaced along with the rings' Go slices.
//
// Ordering: one ring per directed pair, drained FIFO, gives RC
// in-order-per-rank execution, and the in-place path runs only on a
// drained ring under the producer lock, so it never overtakes a queued
// request. Completions are pushed in processing order, so a signaled
// completion fences everything posted earlier toward the same rank. A
// full ring surfaces as core.ErrWouldBlock (counted in
// shm_ring_full_spins) and the engine defers and retries, the same
// backpressure path as a full send queue. A post toward a closed rank
// fails with core.ErrPeerDown, and Close fails every request still
// queued toward the closing rank.
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

// Wire frame: u32 bodyLen | u8 op | u64 token | op-specific fields.
// The length prefix counts everything after itself. Producers publish
// whole frames only, so a consumer never observes a partial frame.
const (
	opWrite = 1 // u8 flags | u64 raddr | u32 rkey | payload
	opRead  = 2 // u64 raddr | u32 rkey | u32 n
	opFAdd  = 3 // u64 raddr | u32 rkey | u64 add
	opCSwap = 4 // u64 raddr | u32 rkey | u64 cmp | u64 swap

	flagSignaled = 1 << 0

	lenPrefix    = 4
	reqHdrLen    = 1 + 8                 // op, token: every body starts so
	writeBodyMin = reqHdrLen + 1 + 8 + 4 // through rkey; payload follows
	readBodyLen  = reqHdrLen + 8 + 4 + 4
	fAddBodyLen  = reqHdrLen + 8 + 4 + 8
	cSwapBodyLen = reqHdrLen + 8 + 4 + 8 + 8
	maxFixedLen  = lenPrefix + cSwapBodyLen // header scratch bound

	// atomicResultLen is the 8-byte word every fetch-add/comp-swap
	// result buffer must hold; the prior value is written back into
	// exactly this many bytes of the initiator's buffer.
	atomicResultLen = 8
)

// Cluster owns one shm backend per rank plus the bootstrap exchange
// state. All ranks live in the calling process.
type Cluster struct {
	backends []*Backend
	ag       *core.Allgather // bootstrap exchange
}

// NewCluster creates an n-rank shared-memory job.
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
			inRings: make([]*spscRing, n),
			prodMu:  make([]sync.Mutex, n),
			mem:     mem.NewRegTable("shm"),
			pend:    make(map[uint64][]byte),
			compq:   core.NewCompQueue(),
			wake:    core.NewWakeChan(),
			closed:  make(chan struct{}),
		}
		for s := 0; s < n; s++ {
			if s != r {
				b.inRings[s] = newRing(cfg.RingBytes)
			}
		}
		c.backends[r] = b
	}
	for _, b := range c.backends {
		b.agentWG.Add(1)
		go b.agent()
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

	// inRings[s] carries requests from rank s toward this rank (nil at
	// self). This rank's agent is the only consumer of all of them.
	inRings []*spscRing
	// prodMu[t] serializes this rank's posters toward rank t: the
	// directed ring is SPSC, so concurrent engine goroutines posting to
	// the same target take the producer role one at a time, and the
	// in-place path's drained-ring check holds only under it.
	//photon:lock shmprod 20
	prodMu []sync.Mutex

	// mem is the registration table every access is validated against
	// (shared with the TCP backend); its lock is the "DMA lock"
	// guarding registered memory.
	mem *mem.RegTable

	// pend parks the result destinations of reads and atomics that went
	// through the ring, by token, until the target's agent fills and
	// completes them.
	//photon:lock shmpend 40
	pendMu sync.Mutex
	pend   map[uint64][]byte

	// compq carries completions back to this rank's engine and doubles
	// as its wake event source.
	compq *core.CompQueue

	// wake parks the agent between bursts (futex analogue: producers
	// kick it after publishing into an inbound ring).
	wake    *core.WakeChan
	agentWG sync.WaitGroup
	closed  chan struct{}

	// Transport counters (TransportStats). framesOut and bytesOut count
	// only requests that went through a ring, not those applied in
	// place.
	framesIn   atomic.Int64
	framesOut  atomic.Int64
	bytesIn    atomic.Int64
	bytesOut   atomic.Int64
	agentParks atomic.Int64
	agentWakes atomic.Int64
}

var (
	_ core.Backend      = (*Backend)(nil)
	_ core.StatsBackend = (*Backend)(nil)
)

// Rank returns this endpoint's rank.
func (b *Backend) Rank() int { return b.rank }

// Size returns the job size.
func (b *Backend) Size() int { return b.size }

// Register pins buf into the local registration table.
func (b *Backend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	return b.mem.Register(buf)
}

// Deregister removes a registration.
func (b *Backend) Deregister(rb mem.RemoteBuffer) error { return b.mem.Deregister(rb) }

// ApplyLocal performs a loopback DMA write into this rank's own
// registered memory with full validation.
func (b *Backend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	return b.mem.Write(false, raddr, rkey, data, nil)
}

// WriteActivity counts applied writes with one counter for all
// registrations (every remote write, in place or by the agent, goes
// through the table).
func (b *Backend) WriteActivity(mem.RemoteBuffer) (func() uint64, bool) {
	return b.mem.Activity, true
}

// Poll reaps completions.
func (b *Backend) Poll(dst []core.BackendCompletion) int {
	return b.compq.Drain(dst)
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
	yield("shm_agent_parks", b.agentParks.Load())
	yield("shm_agent_wakes", b.agentWakes.Load())
	var spins int64
	for _, peer := range b.cluster.backends {
		if peer.rank != b.rank {
			spins += peer.inRings[b.rank].fullSpins.Load()
		}
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

// Close stops the agent, fails every request still queued toward this
// rank with core.ErrPeerDown, and releases the endpoint. Idempotent.
func (b *Backend) Close() error {
	b.pendMu.Lock()
	select {
	case <-b.closed:
		b.pendMu.Unlock()
		return nil
	default:
		close(b.closed)
	}
	b.pendMu.Unlock()
	b.wake.Kick()
	b.agentWG.Wait()
	// The agent is gone, so Close is the rings' consumer now. Holding
	// each producer lock fences posters that checked closed before it
	// was set: everything they published is in the ring, and anything
	// later sees closed and fails at post.
	var hdr [maxFixedLen]byte
	down := peerDown(b.rank)
	for src, r := range b.inRings {
		if r == nil {
			continue
		}
		peer := b.cluster.backends[src]
		peer.prodMu[b.rank].Lock()
		b.drainRing(src, r, hdr[:], down)
		peer.prodMu[b.rank].Unlock()
	}
	return nil
}

func peerDown(rank int) error {
	return fmt.Errorf("shm: rank %d closed: %w", rank, core.ErrPeerDown)
}

func (b *Backend) isClosed() bool {
	select {
	case <-b.closed:
		return true
	default:
		return false
	}
}

func (b *Backend) checkRank(rank int) error {
	if rank < 0 || rank >= b.size {
		return core.ErrBadRank
	}
	if b.isClosed() {
		return core.ErrClosed
	}
	return nil
}

// PostWrite writes local to (raddr, rkey) at rank. The payload is
// copied before PostWrite returns (applied in place, or framed into the
// ring), so the caller may recycle local as soon as this returns nil.
func (b *Backend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	return b.post(rank, &frame{op: opWrite, signaled: signaled, token: token, raddr: raddr, rkey: rkey, n: len(local)}, local)
}

// PostWriteBatch posts a burst under one producer-lock acquisition,
// with one doorbell kick when any of it went through the ring.
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
		f := frame{op: opWrite, signaled: q.Signaled, token: q.Token, raddr: q.RemoteAddr, rkey: q.RKey, n: len(q.Local)}
		var used int
		if used, err = b.submit(rank, &f, q.Local); err != nil {
			break
		}
		if used > 0 {
			frames++
			bytes += used
		}
	}
	b.prodMu[rank].Unlock()
	b.queued(rank, frames, bytes)
	return n, err
}

// PostRead starts a one-sided read; local is owned by the backend
// until the completion is reported.
func (b *Backend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	return b.post(rank, &frame{op: opRead, token: token, raddr: raddr, rkey: rkey, n: len(local)}, local)
}

// PostFetchAdd atomically adds to the 8-byte word at (raddr, rkey).
func (b *Backend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	if len(result) < atomicResultLen {
		return fmt.Errorf("shm: fetch-add result buffer too small")
	}
	return b.post(rank, &frame{op: opFAdd, token: token, raddr: raddr, rkey: rkey, operand: add}, result)
}

// PostCompSwap atomically compare-and-swaps the 8-byte word.
func (b *Backend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	if len(result) < atomicResultLen {
		return fmt.Errorf("shm: comp-swap result buffer too small")
	}
	return b.post(rank, &frame{op: opCSwap, token: token, raddr: raddr, rkey: rkey, operand: compare, swap: swap}, result)
}

// post submits one request toward rank. local is a write's payload, or
// a read's or atomic's result destination.
func (b *Backend) post(rank int, f *frame, local []byte) error {
	if err := b.checkRank(rank); err != nil {
		return err
	}
	if rank == b.rank {
		b.apply(b, false, f, local, nil, local)
		return nil
	}
	b.prodMu[rank].Lock()
	used, err := b.submit(rank, f, local)
	b.prodMu[rank].Unlock()
	if used > 0 {
		b.queued(rank, 1, used)
	}
	return err
}

// submit runs f toward rank; the caller holds prodMu[rank]. When the
// ring is drained and the target's table lock is free, f is applied in
// place and completed; otherwise it is framed into the ring, and submit
// returns the ring bytes it used. The in-place completion is pushed
// under prodMu, so a later post's ring frame cannot complete first;
// the wake sink that push calls is non-blocking by contract.
func (b *Backend) submit(rank int, f *frame, local []byte) (int, error) {
	t := b.cluster.backends[rank]
	if t.isClosed() {
		return 0, peerDown(rank)
	}
	r := t.inRings[b.rank]
	total := lenPrefix + f.bodyLen()
	if total > len(r.buf)/2 {
		return 0, core.ErrTooLarge
	}
	if r.pending() == 0 && t.apply(b, true, f, local, nil, local) {
		return 0, nil
	}
	pos, ok := r.tryReserve(total)
	if !ok {
		return 0, core.ErrWouldBlock
	}
	var hdr [maxFixedLen]byte
	h := f.encode(hdr[:])
	r.writeAt(pos, h)
	if f.op == opWrite {
		r.writeAt(pos+uint64(len(h)), local)
	} else {
		b.pendMu.Lock()
		b.pend[f.token] = local
		b.pendMu.Unlock()
	}
	r.publish(pos + uint64(total))
	return total, nil
}

// queued accounts frames published toward rank and wakes its agent.
func (b *Backend) queued(rank, frames, bytes int) {
	if frames == 0 {
		return
	}
	b.framesOut.Add(int64(frames))
	b.bytesOut.Add(int64(bytes))
	b.cluster.backends[rank].wake.Kick()
}

// apply executes f against b's registered memory on behalf of src and
// completes it into src's queue: a write's payload is head then tail,
// a read's or atomic's result lands in dst. With try set it gives up
// when b's table lock is held, doing nothing and returning false. The
// agent, the in-place path and self-posts all run requests through it.
func (b *Backend) apply(src *Backend, try bool, f *frame, head, tail, dst []byte) bool {
	switch f.op {
	case opWrite:
		return b.applyWrite(src, try, f, head, tail)
	case opRead:
		return b.applyRead(src, try, f, dst)
	default:
		return b.applyAtomic(src, try, f, dst)
	}
}

func (b *Backend) applyWrite(src *Backend, try bool, f *frame, head, tail []byte) bool {
	err := b.mem.Write(try, f.raddr, f.rkey, head, tail)
	if errors.Is(err, mem.ErrBusy) {
		return false
	}
	if err == nil {
		// Data is visible: kick this rank's engine sweep even when
		// unsignaled (ledger writes are unsignaled by design).
		b.compq.Kick()
	}
	if f.signaled {
		src.compq.Push(core.BackendCompletion{Token: f.token, OK: err == nil, Err: err})
	}
	return true
}

func (b *Backend) applyRead(src *Backend, try bool, f *frame, dst []byte) bool {
	var err error
	if len(dst) < f.n {
		err = fmt.Errorf("shm: read destination missing for token %d", f.token)
	} else if err = b.mem.Read(try, dst[:f.n], f.raddr, f.rkey); errors.Is(err, mem.ErrBusy) {
		return false
	}
	src.compq.Push(core.BackendCompletion{Token: f.token, OK: err == nil, Err: err})
	return true
}

func (b *Backend) applyAtomic(src *Backend, try bool, f *frame, dst []byte) bool {
	var old uint64
	var err error
	switch {
	case len(dst) < atomicResultLen:
		err = fmt.Errorf("shm: atomic destination missing for token %d", f.token)
	case f.op == opFAdd:
		old, err = b.mem.FetchAdd(try, f.raddr, f.rkey, f.operand)
	default:
		old, err = b.mem.CompSwap(try, f.raddr, f.rkey, f.operand, f.swap)
	}
	if errors.Is(err, mem.ErrBusy) {
		return false
	}
	if err == nil {
		binary.LittleEndian.PutUint64(dst, old)
	}
	src.compq.Push(core.BackendCompletion{Token: f.token, OK: err == nil, Err: err})
	return true
}

// takePend claims the parked destination for token.
func (b *Backend) takePend(token uint64) []byte {
	b.pendMu.Lock()
	buf := b.pend[token]
	delete(b.pend, token)
	b.pendMu.Unlock()
	return buf
}

// fail completes token with err, releasing its parked destination.
func (b *Backend) fail(token uint64, err error) {
	b.takePend(token)
	b.compq.Push(core.BackendCompletion{Token: token, Err: err})
}

// agent is this rank's consumer loop: it drains every inbound ring,
// applies operations against local registered memory, and completes
// them into the initiator's queue. One goroutine per rank; parked on
// the wake latch between bursts.
func (b *Backend) agent() {
	defer b.agentWG.Done()
	var hdr [maxFixedLen]byte
	for {
		busy := false
		for src, r := range b.inRings {
			if r == nil {
				continue
			}
			if n := b.drainRing(src, r, hdr[:], nil); n > 0 {
				busy = true
				// Ring space opened up: wake the producer's engine so
				// deferred (ErrWouldBlock) posts retry promptly.
				b.cluster.backends[src].compq.Kick()
			}
		}
		if b.isClosed() {
			return
		}
		if busy {
			continue
		}
		b.agentParks.Add(1)
		select {
		case <-b.wake.Chan():
			b.agentWakes.Add(1)
		case <-b.closed:
			return
		}
	}
}

// drainRing consumes the complete frames in r (requests from rank src)
// and returns their count. With down nil it applies each one and stops
// early once this rank closes; otherwise it fails each one that owes a
// completion with down.
func (b *Backend) drainRing(src int, r *spscRing, hdr []byte, down error) int {
	peer := b.cluster.backends[src]
	frames := 0
	for r.pending() >= lenPrefix {
		if down == nil && b.isClosed() {
			break
		}
		pos := r.head.Load()
		// Producers publish whole frames, so the body is present.
		bodyLen := int(binary.LittleEndian.Uint32(r.readAt(pos, hdr, lenPrefix)))
		pos += lenPrefix
		f, err := decodeFrame(r.readAt(pos, hdr, min(bodyLen, cSwapBodyLen)), bodyLen)
		if err == nil {
			err = down
		}
		switch {
		case err == nil && f.op == opWrite:
			// The payload goes straight from the ring into the target
			// registration (two segments across the wrap point at most).
			head, tail := r.span(pos+writeBodyMin, f.n)
			b.applyWrite(peer, false, &f, head, tail)
		case err == nil:
			b.apply(peer, false, &f, nil, nil, peer.takePend(f.token))
		case f.op != opWrite || f.signaled:
			peer.fail(f.token, err)
		}
		r.advance(uint64(lenPrefix + bodyLen))
		frames++
		b.framesIn.Add(1)
		b.bytesIn.Add(int64(lenPrefix + bodyLen))
	}
	return frames
}

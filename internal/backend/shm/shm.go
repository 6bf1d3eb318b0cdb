// Package shm is Photon's intra-host shared-memory backend: the
// core.Backend transport contract over per-peer-pair SPSC ring buffers
// instead of a NIC or a socket. It models the shared-memory transports
// high-performance runtimes select for same-node peers (process-shared
// rings under CMA/XPMEM-style copy agents): when every rank lives in
// one OS process, a put is two ring copies and a futex-style wake —
// no syscalls, no serialization beyond the wire frame, and latency set
// by cache-coherency traffic rather than the network stack.
//
// Topology: each rank owns one inbound spscRing per peer (the directed
// pair's request channel) and a single agent goroutine that drains all
// of them. A posted operation is framed and copied into the target's
// inbound ring at post time (PostWrite's snapshot-at-post contract for
// free), the target's agent is kicked through a WakeChan, and the
// agent applies the operation against the target's registration table
// and pushes the completion directly into the *initiator's* CompQueue.
// Responses never traverse a reverse ring: the agent writes read and
// atomic results straight into the initiator's parked destination
// buffer — legal because the ranks share an address space, and exactly
// the shortcut a CMA copy agent takes on real hardware.
//
// Ordering: one ring per directed pair, drained FIFO, gives RC
// in-order-per-rank execution; completions are pushed in processing
// order, so a signaled completion fences everything posted earlier
// toward the same rank. A full ring surfaces as core.ErrWouldBlock
// (counted in shm_ring_full_spins) and the engine defers and retries,
// the same backpressure path as a full send queue.
package shm

import (
	"encoding/binary"
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
	writeHdrLen  = lenPrefix + 1 + 8 + 1 + 8 + 4 // through rkey; payload follows
	readBodyLen  = 1 + 8 + 8 + 4 + 4
	fAddBodyLen  = 1 + 8 + 8 + 4 + 8
	cSwapBodyLen = 1 + 8 + 8 + 4 + 8 + 8
	maxFixedLen  = lenPrefix + cSwapBodyLen // agent header scratch bound

	// atomicResultLen is the 8-byte word every fetch-add/comp-swap
	// result buffer must hold; the agent writes exactly this many
	// bytes back into the initiator's pending buffer.
	atomicResultLen = 8
)

// Cluster owns one shm backend per rank plus the bootstrap exchange
// state. All ranks live in the calling process.
type Cluster struct {
	backends []*Backend

	//photon:lock shmcluster 10
	mu      sync.Mutex
	cond    *sync.Cond
	gen     int
	arrived int
	blobs   [][]byte
	outs    map[int][][]byte
	readers map[int]int
}

// NewCluster creates an n-rank shared-memory job.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shm: cluster size %d", n)
	}
	cfg.setDefaults()
	c := &Cluster{
		backends: make([]*Backend, n),
		blobs:    make([][]byte, n),
		outs:     make(map[int][][]byte),
		readers:  make(map[int]int),
	}
	c.cond = sync.NewCond(&c.mu)
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

// exchange implements the collective allgather barrier (same protocol
// as the vsim cluster: arrive, last rank publishes, everyone reads).
func (c *Cluster) exchange(rank int, blob []byte) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gen
	c.blobs[rank] = append([]byte(nil), blob...)
	c.arrived++
	n := len(c.backends)
	if c.arrived == n {
		out := make([][]byte, n)
		copy(out, c.blobs)
		c.outs[gen] = out
		c.readers[gen] = n
		c.blobs = make([][]byte, n)
		c.arrived = 0
		c.gen++
		c.cond.Broadcast()
	} else {
		for c.gen == gen {
			c.cond.Wait()
		}
	}
	out := c.outs[gen]
	c.readers[gen]--
	if c.readers[gen] == 0 {
		delete(c.outs, gen)
		delete(c.readers, gen)
	}
	return out, nil
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
	// the same target take the producer role one at a time.
	//photon:lock shmprod 20
	prodMu []sync.Mutex

	// mem is the registration table every access is validated against
	// (shared with the TCP backend); its lock is the "DMA lock"
	// guarding registered memory.
	mem *mem.RegTable

	// pend parks read/atomic result destinations by token until the
	// target's agent fills and completes them.
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

	// Transport counters (TransportStats).
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
	return b.mem.Write(raddr, rkey, data, nil)
}

// WriteActivity counts applied writes with one counter for all
// registrations (the agent applies every remote write).
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
	return b.cluster.exchange(b.rank, local)
}

// Close stops the agent and releases the endpoint. Idempotent.
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
	return nil
}

func (b *Backend) checkRank(rank int) error {
	if rank < 0 || rank >= b.size {
		return core.ErrBadRank
	}
	select {
	case <-b.closed:
		return core.ErrClosed
	default:
		return nil
	}
}

// outRing returns the directed ring from this rank toward rank t.
func (b *Backend) outRing(t int) *spscRing {
	return b.cluster.backends[t].inRings[b.rank]
}

// PostWrite frames local into rank's inbound ring. The payload is
// copied at post time (snapshot-at-post), so the caller may recycle
// local as soon as this returns nil.
func (b *Backend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	if err := b.checkRank(rank); err != nil {
		return err
	}
	if rank == b.rank {
		if err := b.ApplyLocal(raddr, rkey, local); err != nil {
			return err
		}
		if signaled {
			b.compq.Push(core.BackendCompletion{Token: token, OK: true})
		}
		return nil
	}
	r := b.outRing(rank)
	total := writeHdrLen + len(local)
	if total > len(r.buf)/2 {
		return core.ErrTooLarge
	}
	var hdr [writeHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(total-lenPrefix))
	hdr[4] = opWrite
	binary.LittleEndian.PutUint64(hdr[5:], token)
	if signaled {
		hdr[13] = flagSignaled
	}
	binary.LittleEndian.PutUint64(hdr[14:], raddr)
	binary.LittleEndian.PutUint32(hdr[22:], rkey)

	b.prodMu[rank].Lock()
	pos, ok := r.tryReserve(total)
	if !ok {
		b.prodMu[rank].Unlock()
		return core.ErrWouldBlock
	}
	r.writeAt(pos, hdr[:])
	r.writeAt(pos+writeHdrLen, local)
	r.publish(pos + uint64(total))
	b.prodMu[rank].Unlock()

	b.framesOut.Add(1)
	b.bytesOut.Add(int64(total))
	b.cluster.backends[rank].wake.Kick()
	return nil
}

// PostWriteBatch takes one producer-lock acquisition and one doorbell
// kick for the whole burst.
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
	r := b.outRing(rank)
	var hdr [writeHdrLen]byte
	n := 0
	var frames, bytes int64
	b.prodMu[rank].Lock()
	for i := range reqs {
		total := writeHdrLen + len(reqs[i].Local)
		if total > len(r.buf)/2 {
			b.prodMu[rank].Unlock()
			if frames > 0 {
				b.flushBatchStats(rank, frames, bytes)
			}
			return n, core.ErrTooLarge
		}
		pos, ok := r.tryReserve(total)
		if !ok {
			b.prodMu[rank].Unlock()
			if frames > 0 {
				b.flushBatchStats(rank, frames, bytes)
			}
			return n, core.ErrWouldBlock
		}
		binary.LittleEndian.PutUint32(hdr[0:], uint32(total-lenPrefix))
		hdr[4] = opWrite
		binary.LittleEndian.PutUint64(hdr[5:], reqs[i].Token)
		hdr[13] = 0
		if reqs[i].Signaled {
			hdr[13] = flagSignaled
		}
		binary.LittleEndian.PutUint64(hdr[14:], reqs[i].RemoteAddr)
		binary.LittleEndian.PutUint32(hdr[22:], reqs[i].RKey)
		r.writeAt(pos, hdr[:])
		r.writeAt(pos+writeHdrLen, reqs[i].Local)
		r.publish(pos + uint64(total))
		frames++
		bytes += int64(total)
		n++
	}
	b.prodMu[rank].Unlock()
	b.flushBatchStats(rank, frames, bytes)
	return n, nil
}

func (b *Backend) flushBatchStats(rank int, frames, bytes int64) {
	b.framesOut.Add(frames)
	b.bytesOut.Add(bytes)
	b.cluster.backends[rank].wake.Kick()
}

// postFixed frames a payload-free request (read/atomic) after parking
// the result destination under the token.
func (b *Backend) postFixed(rank int, local []byte, body []byte, token uint64) error {
	b.pendMu.Lock()
	b.pend[token] = local
	b.pendMu.Unlock()

	r := b.outRing(rank)
	total := lenPrefix + len(body)
	b.prodMu[rank].Lock()
	pos, ok := r.tryReserve(total)
	if !ok {
		b.prodMu[rank].Unlock()
		b.pendMu.Lock()
		delete(b.pend, token)
		b.pendMu.Unlock()
		return core.ErrWouldBlock
	}
	var lenBuf [lenPrefix]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(body)))
	r.writeAt(pos, lenBuf[:])
	r.writeAt(pos+lenPrefix, body)
	r.publish(pos + uint64(total))
	b.prodMu[rank].Unlock()

	b.framesOut.Add(1)
	b.bytesOut.Add(int64(total))
	b.cluster.backends[rank].wake.Kick()
	return nil
}

// PostRead starts a one-sided read; local is owned by the backend
// until the completion is reported.
func (b *Backend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	if err := b.checkRank(rank); err != nil {
		return err
	}
	if rank == b.rank {
		err := b.mem.Read(local, raddr, rkey)
		b.compq.Push(core.BackendCompletion{Token: token, OK: err == nil, Err: err})
		return nil
	}
	var body [readBodyLen]byte
	body[0] = opRead
	binary.LittleEndian.PutUint64(body[1:], token)
	binary.LittleEndian.PutUint64(body[9:], raddr)
	binary.LittleEndian.PutUint32(body[17:], rkey)
	binary.LittleEndian.PutUint32(body[21:], uint32(len(local)))
	return b.postFixed(rank, local, body[:], token)
}

// PostFetchAdd atomically adds to the 8-byte word at (raddr, rkey).
func (b *Backend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	if err := b.checkRank(rank); err != nil {
		return err
	}
	if len(result) < atomicResultLen {
		return fmt.Errorf("shm: fetch-add result buffer too small")
	}
	if rank == b.rank {
		old, err := b.mem.FetchAdd(raddr, rkey, add)
		b.compq.Push(atomicComp(token, result, old, err))
		return nil
	}
	var body [fAddBodyLen]byte
	body[0] = opFAdd
	binary.LittleEndian.PutUint64(body[1:], token)
	binary.LittleEndian.PutUint64(body[9:], raddr)
	binary.LittleEndian.PutUint32(body[17:], rkey)
	binary.LittleEndian.PutUint64(body[21:], add)
	return b.postFixed(rank, result, body[:], token)
}

// PostCompSwap atomically compare-and-swaps the 8-byte word.
func (b *Backend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	if err := b.checkRank(rank); err != nil {
		return err
	}
	if len(result) < atomicResultLen {
		return fmt.Errorf("shm: comp-swap result buffer too small")
	}
	if rank == b.rank {
		old, err := b.mem.CompSwap(raddr, rkey, compare, swap)
		b.compq.Push(atomicComp(token, result, old, err))
		return nil
	}
	var body [cSwapBodyLen]byte
	body[0] = opCSwap
	binary.LittleEndian.PutUint64(body[1:], token)
	binary.LittleEndian.PutUint64(body[9:], raddr)
	binary.LittleEndian.PutUint32(body[17:], rkey)
	binary.LittleEndian.PutUint64(body[21:], compare)
	binary.LittleEndian.PutUint64(body[29:], swap)
	return b.postFixed(rank, result, body[:], token)
}

// atomicComp builds an atomic's completion, placing the prior value in
// the initiator's result buffer when the operation applied.
func atomicComp(token uint64, result []byte, old uint64, err error) core.BackendCompletion {
	if err == nil {
		binary.LittleEndian.PutUint64(result, old)
	}
	return core.BackendCompletion{Token: token, OK: err == nil, Err: err}
}

// takePend claims the parked destination for token.
func (b *Backend) takePend(token uint64) []byte {
	b.pendMu.Lock()
	buf := b.pend[token]
	delete(b.pend, token)
	b.pendMu.Unlock()
	return buf
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
			if n := b.drainRing(src, r, hdr[:]); n > 0 {
				busy = true
				// Ring space opened up: wake the producer's engine so
				// deferred (ErrWouldBlock) posts retry promptly.
				b.cluster.backends[src].compq.Kick()
			}
		}
		if busy {
			continue
		}
		select {
		case <-b.closed:
			return
		default:
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

// drainRing consumes every complete frame currently in r (requests
// from rank src), returning the frame count.
func (b *Backend) drainRing(src int, r *spscRing, hdr []byte) int {
	frames := 0
	for {
		if r.pending() < lenPrefix {
			return frames
		}
		pos := r.head.Load()
		lb := r.readAt(pos, hdr[:lenPrefix], lenPrefix)
		bodyLen := int(binary.LittleEndian.Uint32(lb))
		// Producers publish whole frames, so the body is present.
		b.applyFrame(src, r, pos+lenPrefix, bodyLen, hdr)
		r.advance(uint64(lenPrefix + bodyLen))
		frames++
		b.framesIn.Add(1)
		b.bytesIn.Add(int64(lenPrefix + bodyLen))
	}
}

// applyFrame decodes and executes one request body at ring position
// pos, pushing the completion into the initiator's queue.
func (b *Backend) applyFrame(src int, r *spscRing, pos uint64, bodyLen int, hdr []byte) {
	peer := b.cluster.backends[src]
	fixed := bodyLen
	if fixed > len(hdr) {
		fixed = len(hdr)
	}
	h := r.readAt(pos, hdr[:fixed], fixed)
	op := h[0]
	token := binary.LittleEndian.Uint64(h[1:])
	switch op {
	case opWrite:
		signaled := h[9]&flagSignaled != 0
		raddr := binary.LittleEndian.Uint64(h[10:])
		rkey := binary.LittleEndian.Uint32(h[18:])
		n := bodyLen - (writeHdrLen - lenPrefix)
		// The payload goes straight from the ring into the target
		// registration (two segments across the wrap point at most).
		head, tail := r.span(pos+writeHdrLen-lenPrefix, n)
		err := b.mem.Write(raddr, rkey, head, tail)
		if err == nil {
			// Data is visible: kick the target engine's sweep even when
			// unsignaled (ledger writes are unsignaled by design).
			b.compq.Kick()
			if signaled {
				peer.compq.Push(core.BackendCompletion{Token: token, OK: true})
			}
		} else if signaled {
			peer.compq.Push(core.BackendCompletion{Token: token, OK: false, Err: err})
		}
	case opRead:
		raddr := binary.LittleEndian.Uint64(h[9:])
		rkey := binary.LittleEndian.Uint32(h[17:])
		n := int(binary.LittleEndian.Uint32(h[21:]))
		dst := peer.takePend(token)
		var err error
		if dst == nil || len(dst) < n {
			err = fmt.Errorf("shm: read destination missing for token %d", token)
		} else {
			err = b.mem.Read(dst[:n], raddr, rkey)
		}
		peer.compq.Push(core.BackendCompletion{Token: token, OK: err == nil, Err: err})
	case opFAdd, opCSwap:
		raddr := binary.LittleEndian.Uint64(h[9:])
		rkey := binary.LittleEndian.Uint32(h[17:])
		operand := binary.LittleEndian.Uint64(h[21:]) // add, or compare
		dst := peer.takePend(token)
		var old uint64
		var err error
		switch {
		case dst == nil:
			err = fmt.Errorf("shm: atomic destination missing for token %d", token)
		case op == opFAdd:
			old, err = b.mem.FetchAdd(raddr, rkey, operand)
		default:
			old, err = b.mem.CompSwap(raddr, rkey, operand, binary.LittleEndian.Uint64(h[29:]))
		}
		peer.compq.Push(atomicComp(token, dst, old, err))
	default:
		peer.compq.Push(core.BackendCompletion{Token: token, OK: false,
			Err: fmt.Errorf("shm: unknown opcode %d", op)})
	}
}

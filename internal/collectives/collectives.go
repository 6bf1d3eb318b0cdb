// Package collectives provides the group operations runtime systems
// need at startup and synchronization points — barrier, broadcast,
// reduce, allreduce, gather, allgather, and all-to-all — implemented
// purely over Photon's one-sided primitives, the way the original
// middleware layers its collective support over PWC.
//
// Collectives compile into reusable per-Comm schedules (see
// schedule.go): each call posts a round's edges nonblocking and reaps
// the round's completions together, so a round costs one network
// latency regardless of fan-out. Algorithms are selected by vector
// size and job size:
//
//	barrier     radix-k dissemination, ceil(log_k N) rounds
//	bcast       k-nomial tree, segmented and pipelined above segmentBytes
//	reduce      k-nomial tree combine with pre-posted child receives
//	allreduce   recursive doubling over a registered PWC arena (small),
//	            ring reduce-scatter + allgather (large, bandwidth-
//	            optimal), tree reduce + bcast (in between)
//	gather      flat, all sends in flight at once
//	allgather   ring, zero-copy forwarding
//	alltoall    pairwise, all N-1 sends posted before any wait
//
// Steady state allocates nothing on the barrier and in-place small
// allreduce paths: schedules, wait scratch, and the RD arena are
// per-Comm state, and payloads move through posted receives or the
// registered arena.
//
// Every rank of the job must call each collective, with the same
// arguments where semantics require it, in the same order (MPI-style
// collective semantics). A Comm is not safe for concurrent use by
// multiple goroutines. Completion identifiers used internally live in
// the reserved RID space (top bit set); user RIDs must keep the top
// bit clear.
//
// # Failure awareness
//
// Collectives are failure-aware end to end (see failure.go): every
// wait and post-retry loop observes the engine's peer-health latches,
// a dead member turns the whole collective into a prompt
// ErrCommRevoked on every surviving rank (ULFM-style revocation
// notices flood the dissemination edges so ranks not adjacent to the
// corpse abort in one network latency), and Comm.Shrink rebuilds a
// working communicator over the survivors with a bumped epoch that
// fences stale-generation traffic.
package collectives

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"

	"photon/internal/core"
	"photon/internal/errs"
	"photon/internal/mem"
	"photon/internal/metrics"
)

// ErrSizeMismatch is returned when ranks disagree on vector lengths.
var ErrSizeMismatch = errors.New("collectives: vector length mismatch across ranks")

// ErrCommRevoked is the communicator-revocation sentinel: a member of
// the Comm died (observed directly through the health plane or via a
// peer's revocation notice) and this epoch of the communicator is
// permanently unusable — every collective on it, current and future,
// fails fast with an error matching this sentinel (and ErrPeerDown,
// naming the failed rank when known). Recover with Comm.Shrink.
// Aliases errs.ErrRevoked.
var ErrCommRevoked = errs.ErrRevoked

// Op is a reduction operator over float64.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMin
	OpMax
	OpProd
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	case OpProd:
		return a * b
	}
	panic(fmt.Sprintf("collectives: unknown op %d", o))
}

// Config tunes a communicator. The zero value of every field selects a
// sensible default.
type Config struct {
	// Timeout bounds each whole collective call with one monotonic
	// deadline armed at entry (<=0 waits forever): however many rounds
	// and internal waits the schedule runs, the call returns ErrTimeout
	// within Timeout of entering. Production runs use a generous bound
	// so a wedged peer surfaces as an error instead of a hang even
	// when the failure detector cannot see it.
	Timeout time.Duration

	// Radix is the tree/dissemination fan-out k (default 2). Higher
	// radix trades more messages per round for fewer rounds — with
	// nonblocking rounds the extra messages overlap, so radix 4 barriers
	// halve the round count at the same per-round latency.
	Radix int

	// SmallAllreduceMax is the largest encoded vector (bytes) served by
	// the recursive-doubling arena path, and the arena slot size.
	// Default 4096.
	SmallAllreduceMax int

	// ForceAllreduce pins the allreduce algorithm for benchmarking:
	// "rd", "ring", "tree", or "" for size-based selection. Forced
	// choices that the vector cannot satisfy (rd beyond the arena slot,
	// ring with fewer elements than ranks) fall back to selection.
	ForceAllreduce string
}

func (cfg Config) withDefaults() Config {
	if cfg.Radix < 2 {
		cfg.Radix = 2
	}
	if cfg.Radix > 16 {
		cfg.Radix = 16
	}
	if cfg.SmallAllreduceMax <= 0 {
		cfg.SmallAllreduceMax = 4096
	}
	return cfg
}

// segmentBytes is the bcast/ring pipeline segment size. Payloads larger
// than one segment are split and streamed so transfer overlaps
// forwarding down the tree. Segments at or below the eager threshold
// ride the doorbell-batched eager path; larger segments go rendezvous.
const segmentBytes = 32 << 10

// numCollKinds sizes the per-kind counters (metrics.CollKind domain).
const numCollKinds = int(metrics.CollAlltoall) + 1

// Allreduce algorithm counters.
const (
	algoRD = iota
	algoRing
	algoTree
	numAlgos
)

var algoNames = [numAlgos]string{"rd", "ring", "tree"}

// commStats is the coll_* counter block. It is shared by a root Comm
// and every communicator Shrink derives from it, so one gauge source
// covers the whole lineage without duplicate registrations.
type commStats struct {
	calls [numCollKinds]atomic.Int64
	algos [numAlgos]atomic.Int64

	aborts      atomic.Int64 // collectives revoked on this lineage
	revokesSent atomic.Int64 // revocation notices fanned out
	shrinks     atomic.Int64 // successful Shrink agreements
}

// gauges contributes coll_* counters to Photon.Metrics snapshots.
func (s *commStats) gauges(set func(name string, v int64)) {
	for k := 0; k < numCollKinds; k++ {
		if n := s.calls[k].Load(); n > 0 {
			set("coll_"+metrics.CollKind(k).String()+"_calls", n)
		}
	}
	for a := 0; a < numAlgos; a++ {
		if n := s.algos[a].Load(); n > 0 {
			set("coll_allreduce_"+algoNames[a], n)
		}
	}
	set("coll_aborts", s.aborts.Load())
	set("coll_revokes_sent", s.revokesSent.Load())
	set("coll_shrinks", s.shrinks.Load())
}

// Comm is a collective communicator bound to one Photon instance. All
// ranks construct their Comm over their own instance; the generation
// counters advance in lockstep because collectives are called
// collectively. Ranks are comm ranks: positions in the membership
// table, equal to engine ranks for a root Comm and remapped by Shrink.
//
// A Comm is not safe for concurrent use: its wait pacer and scratch
// buffers are per-instance state. Create one Comm per calling
// goroutine (they share the Photon instance safely).
type Comm struct {
	ph      *core.Photon
	rank    int // comm rank (index into group)
	size    int
	cfg     Config
	timeout time.Duration

	// Membership and epoch (see failure.go / shrink.go).
	group   []int  // comm rank -> engine rank
	epoch   uint64 // bumped by Shrink; fences stale RIDs via genBase
	genBase uint64 // epoch bits pre-shifted into the RID gen field

	gen   atomic.Uint64 // shared collective generation (RID uniqueness)
	rdGen atomic.Uint64 // RD-allreduce call counter (arena banking)

	w *core.Waiter

	// Failure plane (failure.go): the whole-collective deadline, the
	// revocation latch, and the precomputed revoke flood edges.
	deadline   time.Time
	revoked    atomic.Bool
	deadRank   atomic.Int64 // first known-dead comm rank; -1 unknown
	revokeOut  []int        // dissemination out-neighbors (comm ranks)
	revokeIn   []int        // dissemination in-neighbors (comm ranks)
	revokeRIDs []uint64     // epoch-scoped notice RIDs, one per in-neighbor
	spec       core.WaitSpec
	watch      []int // engine-rank watch scratch, derived per wait

	// Compiled schedules (schedule.go), built on first use.
	barSched *barrierSched
	trees    map[int]*treeSched
	rd       *rdSched
	arena    *collArena

	// Wait scratch, reused across calls.
	rids  []uint64
	lrids []uint64
	comps []core.Completion
	rid1  [1]uint64
	comp1 [1]core.Completion

	// Payload scratch, grown on demand and retained.
	accF []float64
	scrB []byte // send-side staging (encoded vectors, banked ring chunks)
	rcvB []byte // receive-side staging (posted ring/tree buffers)
	vec1 [1]float64

	st *commStats
}

// New creates a communicator with default tuning. timeout bounds each
// whole collective call (<=0 waits forever).
func New(ph *core.Photon, timeout time.Duration) *Comm {
	return NewWithConfig(ph, Config{Timeout: timeout})
}

// NewWithConfig creates a tuned communicator over the whole job. Ranks
// must agree on the algorithm-affecting fields (Radix,
// SmallAllreduceMax, ForceAllreduce) — schedules are compiled locally
// and must match. Panics if the job exceeds MaxRanks (the collective
// RID layout).
func NewWithConfig(ph *core.Photon, cfg Config) *Comm {
	if ph.Size() > MaxRanks {
		panic(fmt.Sprintf("collectives: job size %d exceeds MaxRanks %d", ph.Size(), MaxRanks))
	}
	group := make([]int, ph.Size())
	for i := range group {
		group[i] = i
	}
	st := &commStats{}
	c := newComm(ph, cfg, group, 0, st)
	ph.AddGaugeSource(st.gauges)
	return c
}

// newComm builds a communicator over an explicit membership table.
// group maps comm rank to engine rank and must contain ph.Rank().
func newComm(ph *core.Photon, cfg Config, group []int, epoch uint64, st *commStats) *Comm {
	rank := -1
	for i, er := range group {
		if er == ph.Rank() {
			rank = i
			break
		}
	}
	if rank < 0 {
		panic(fmt.Sprintf("collectives: engine rank %d not in membership table", ph.Rank()))
	}
	c := &Comm{
		ph:      ph,
		rank:    rank,
		size:    len(group),
		cfg:     cfg.withDefaults(),
		timeout: cfg.Timeout,
		group:   group,
		epoch:   epoch,
		genBase: (epoch % maxEpochs) << callGenBits,
		w:       core.NewWaiter(ph),
		trees:   make(map[int]*treeSched),
		st:      st,
	}
	c.deadRank.Store(-1)
	c.compileRevokeEdges()
	return c
}

// cgen maps a per-Comm call counter into the RID generation field: the
// high bits carry the epoch (fencing stale-generation traffic across
// Shrink), the low callGenBits the call number. The low bit — which
// drives arena banking — is preserved.
func (c *Comm) cgen(g uint64) uint64 {
	return c.genBase | (g & (1<<callGenBits - 1))
}

// Rank returns the caller's comm rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// Epoch returns the membership epoch (0 for a root Comm, bumped by
// every Shrink).
func (c *Comm) Epoch() uint64 { return c.epoch }

// obsStart opens a latency observation when metrics are on.
func (c *Comm) obsStart(k metrics.CollKind) time.Time {
	c.st.calls[k].Add(1)
	if c.ph.MetricsRegistry().Enabled() {
		return time.Now()
	}
	return time.Time{}
}

// obsEnd records the whole-collective latency opened by obsStart.
func (c *Comm) obsEnd(k metrics.CollKind, t0 time.Time) {
	if !t0.IsZero() {
		c.ph.MetricsRegistry().RecordColl(k, int64(time.Since(t0)))
	}
}

// ---------------------------------------------------------------------
// Nonblocking post + wait helpers
// ---------------------------------------------------------------------

// sendNB posts a message, driving progress through transient
// backpressure (ErrWouldBlock). The retry loop is failure-aware: a
// destination latched down, an arrived revocation notice, or the
// whole-collective deadline ends the spin instead of livelocking
// against a dead peer. dst is a comm rank.
func (c *Comm) sendNB(dst int, data []byte, localRID, remoteRID uint64) error {
	for {
		err := c.ph.Send(c.group[dst], data, localRID, remoteRID)
		if err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrWouldBlock) {
			return c.filterPost(err, dst)
		}
		if err := c.stall(dst); err != nil {
			return err
		}
		if c.ph.Progress() == 0 {
			c.w.Idle()
		}
	}
}

// putNB posts a one-sided put the same way.
func (c *Comm) putNB(dst int, data []byte, rb mem.RemoteBuffer, off uint64, localRID, remoteRID uint64) error {
	for {
		err := c.ph.PutWithCompletion(c.group[dst], data, rb, off, localRID, remoteRID)
		if err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrWouldBlock) {
			return c.filterPost(err, dst)
		}
		if err := c.stall(dst); err != nil {
			return err
		}
		if c.ph.Progress() == 0 {
			c.w.Idle()
		}
	}
}

// waitAll is the failure-aware batched reap behind every collective
// wait: the engine-rank watch set is derived from the awaited RIDs'
// source fields, the comm's revocation-notice RIDs abort the wait from
// out-of-band, and the whole-collective deadline bounds it. Abort
// conditions are converted into the comm's revocation (filterWait).
func (c *Comm) waitAll(rids []uint64, out []core.Completion, local bool) error {
	return c.filterWait(c.waitAllRaw(rids, out, local))
}

// waitAllRaw is waitAll without the revocation conversion: Shrink's
// agreement rounds use it to observe further failures (raw ErrPeerDown
// with c.spec.DownRank set, or core.ErrWaitAborted with c.spec.Aborted
// carrying the notice) without condemning its own retry loop.
func (c *Comm) waitAllRaw(rids []uint64, out []core.Completion, local bool) error {
	c.watch = c.watch[:0]
	for _, r := range rids {
		if r == 0 {
			continue
		}
		src := int(r & (MaxRanks - 1))
		if src == c.rank || src >= c.size {
			continue
		}
		er := c.group[src]
		dup := false
		for _, w := range c.watch {
			if w == er {
				dup = true
				break
			}
		}
		if !dup {
			c.watch = append(c.watch, er)
		}
	}
	c.spec.Deadline = c.deadline
	c.spec.Watch = c.watch
	c.spec.AbortRIDs = c.revokeRIDs
	return c.ph.WaitAll(c.w, rids, out, &c.spec, local)
}

// wait1 reaps a single completion through the shared waiter scratch.
func (c *Comm) wait1(r uint64, local bool) (core.Completion, error) {
	c.rid1[0] = r
	c.comp1[0] = core.Completion{}
	err := c.waitAll(c.rid1[:], c.comp1[:], local)
	return c.comp1[0], err
}

// compsFor returns the completion scratch sized for n entries.
func (c *Comm) compsFor(n int) []core.Completion {
	if cap(c.comps) < n {
		c.comps = make([]core.Completion, n)
	}
	s := c.comps[:n]
	for i := range s {
		s[i] = core.Completion{}
	}
	return s
}

// needFIN reports whether a send of n bytes goes rendezvous, in which
// case the engine references the buffer until the FIN arrives and the
// sender must carry a local RID and drain it before reusing or
// returning the memory.
func (c *Comm) needFIN(n int) bool { return n > c.ph.EagerThreshold() }

// trackSend posts a send, attaching a local RID (collected for
// drainLocal) only when the payload size requires FIN tracking.
func (c *Comm) trackSend(dst int, data []byte, localRID, remoteRID uint64) error {
	if !c.needFIN(len(data)) {
		localRID = 0
	} else {
		c.lrids = append(c.lrids, localRID)
	}
	return c.sendNB(dst, data, localRID, remoteRID)
}

// drainLocal reaps every local RID collected by trackSend, releasing
// the engine's hold on the corresponding buffers.
func (c *Comm) drainLocal() error {
	if len(c.lrids) == 0 {
		return nil
	}
	out := c.compsFor(len(c.lrids))
	err := c.waitAll(c.lrids, out, true)
	c.lrids = c.lrids[:0]
	for i := range out {
		out[i] = core.Completion{}
	}
	return err
}

// ---------------------------------------------------------------------
// Payload scratch
// ---------------------------------------------------------------------

func (c *Comm) sendScratch(n int) []byte {
	if cap(c.scrB) < n {
		c.scrB = make([]byte, n)
	}
	return c.scrB[:n]
}

func (c *Comm) recvScratch(n int) []byte {
	if cap(c.rcvB) < n {
		c.rcvB = make([]byte, n)
	}
	return c.rcvB[:n]
}

func (c *Comm) accFor(n int) []float64 {
	if cap(c.accF) < n {
		c.accF = make([]float64, n)
	}
	return c.accF[:n]
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

// Barrier blocks until every rank has entered it: radix-k dissemination
// with every round's notifications posted nonblocking and reaped in one
// wait, so the critical path is ceil(log_k N) network latencies.
func (c *Comm) Barrier() error {
	if err := c.enter(); err != nil {
		return err
	}
	gen := c.cgen(c.gen.Add(1))
	t0 := c.obsStart(metrics.CollBarrier)
	defer c.obsEnd(metrics.CollBarrier, t0)
	if c.size == 1 {
		return nil
	}
	return c.barrier(gen)
}

// Bcast distributes root's data to every rank (k-nomial tree, segmented
// above SegmentBytes) and returns each rank's copy. The root's return
// value is data itself; non-roots receive into buffers the delivery
// lands in directly — no rank copies the payload more than once.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if root < 0 || root >= c.size {
		return nil, core.ErrBadRank
	}
	if err := c.enter(); err != nil {
		return nil, err
	}
	gen := c.cgen(c.gen.Add(1))
	t0 := c.obsStart(metrics.CollBcast)
	defer c.obsEnd(metrics.CollBcast, t0)
	if c.size == 1 {
		return data, nil
	}
	return c.bcast(gen, root, data)
}

// BcastInto distributes the root's buf into every rank's buf, which
// must have the same length on all ranks. Unlike Bcast there is no
// length header round and no allocation: deliveries are posted straight
// into buf. The root's buf is the payload; other ranks' contents are
// overwritten.
func (c *Comm) BcastInto(root int, buf []byte) error {
	if root < 0 || root >= c.size {
		return core.ErrBadRank
	}
	if err := c.enter(); err != nil {
		return err
	}
	gen := c.cgen(c.gen.Add(1))
	t0 := c.obsStart(metrics.CollBcast)
	defer c.obsEnd(metrics.CollBcast, t0)
	if c.size == 1 {
		return nil
	}
	return c.bcastInto(gen, root, buf)
}

// Reduce combines each rank's vector elementwise with op; the result is
// returned at root (nil elsewhere). K-nomial tree combine with child
// contributions received into pre-posted buffers.
func (c *Comm) Reduce(root int, data []float64, op Op) ([]float64, error) {
	if root < 0 || root >= c.size {
		return nil, core.ErrBadRank
	}
	if err := c.enter(); err != nil {
		return nil, err
	}
	gen := c.cgen(c.gen.Add(1))
	t0 := c.obsStart(metrics.CollReduce)
	defer c.obsEnd(metrics.CollReduce, t0)
	acc := c.accFor(len(data))
	copy(acc, data)
	if c.size > 1 {
		if err := c.reduceVec(gen, kindReduce, root, acc, op); err != nil {
			return nil, err
		}
	}
	if c.rank == root {
		out := make([]float64, len(acc))
		copy(out, acc)
		return out, nil
	}
	return nil, nil
}

// Allreduce combines every rank's vector and distributes the result to
// all ranks, returning a fresh slice. The algorithm is chosen by
// encoded size: recursive doubling over the registered arena below
// SmallAllreduceMax, bandwidth-optimal ring reduce-scatter + allgather
// when the vector has at least one element per rank, tree reduce +
// broadcast in between. Use AllreduceInPlace to avoid the result
// allocation.
func (c *Comm) Allreduce(data []float64, op Op) ([]float64, error) {
	out := make([]float64, len(data))
	copy(out, data)
	if err := c.AllreduceInPlace(out, op); err != nil {
		return nil, err
	}
	return out, nil
}

// AllreduceInPlace is Allreduce overwriting vec with the result. On the
// small-vector path this allocates nothing after warmup.
func (c *Comm) AllreduceInPlace(vec []float64, op Op) error {
	if err := c.enter(); err != nil {
		return err
	}
	t0 := c.obsStart(metrics.CollAllreduce)
	defer c.obsEnd(metrics.CollAllreduce, t0)
	if c.size == 1 {
		c.gen.Add(1)
		return nil
	}
	switch c.pickAllreduce(len(vec)) {
	case algoRD:
		c.st.algos[algoRD].Add(1)
		return c.allreduceRD(c.cgen(c.rdGen.Add(1)), vec, op)
	case algoRing:
		c.st.algos[algoRing].Add(1)
		return c.allreduceRing(c.cgen(c.gen.Add(1)), vec, op)
	default:
		c.st.algos[algoTree].Add(1)
		return c.allreduceTree(c.cgen(c.gen.Add(1)), vec, op)
	}
}

// pickAllreduce selects the allreduce algorithm. Pure in (vector
// length, size, config), so every rank picks the same schedule.
func (c *Comm) pickAllreduce(n int) int {
	fitsRD := 8*n <= c.cfg.SmallAllreduceMax
	fitsRing := n >= c.size
	switch c.cfg.ForceAllreduce {
	case "rd":
		if fitsRD {
			return algoRD
		}
	case "ring":
		if fitsRing {
			return algoRing
		}
	case "tree":
		return algoTree
	}
	if fitsRD {
		return algoRD
	}
	if fitsRing {
		return algoRing
	}
	return algoTree
}

// AllreduceScalar is Allreduce for one value; it allocates nothing
// after warmup.
func (c *Comm) AllreduceScalar(x float64, op Op) (float64, error) {
	c.vec1[0] = x
	if err := c.AllreduceInPlace(c.vec1[:], op); err != nil {
		return 0, err
	}
	return c.vec1[0], nil
}

// Gather collects every rank's blob at root, indexed by rank (nil
// elsewhere). Flat gather with the root reaping all N-1 transfers in
// one wait.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if root < 0 || root >= c.size {
		return nil, core.ErrBadRank
	}
	if err := c.enter(); err != nil {
		return nil, err
	}
	gen := c.cgen(c.gen.Add(1))
	t0 := c.obsStart(metrics.CollGather)
	defer c.obsEnd(metrics.CollGather, t0)
	return c.gather(gen, root, data)
}

// Allgather collects every rank's blob at every rank (ring algorithm
// with zero-copy forwarding: each received blob is relayed as-is).
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	if err := c.enter(); err != nil {
		return nil, err
	}
	gen := c.cgen(c.gen.Add(1))
	t0 := c.obsStart(metrics.CollAllgather)
	defer c.obsEnd(metrics.CollAllgather, t0)
	return c.allgather(gen, data)
}

// Alltoall delivers blobs[i] from each rank to rank i, returning the
// blobs addressed to the caller, indexed by source. All N-1 sends are
// posted before any wait, so the exchange is limited by link bandwidth
// and ledger credits, not round-trip latency.
func (c *Comm) Alltoall(blobs [][]byte) ([][]byte, error) {
	if len(blobs) != c.size {
		return nil, fmt.Errorf("collectives: alltoall needs %d blobs, got %d", c.size, len(blobs))
	}
	if err := c.enter(); err != nil {
		return nil, err
	}
	gen := c.cgen(c.gen.Add(1))
	t0 := c.obsStart(metrics.CollAlltoall)
	defer c.obsEnd(metrics.CollAlltoall, t0)
	return c.alltoall(gen, blobs)
}

// ---------------------------------------------------------------------
// Float encoding
// ---------------------------------------------------------------------

// The wire format of a float vector is little-endian IEEE 754. On a
// little-endian host that is the in-memory layout, so an 8-byte-aligned
// buffer is viewed as []float64 and moved with one copy (or folded
// directly) instead of converting element by element. Big-endian hosts
// and unaligned buffers take the portable loops.

// hostLE reports whether the host stores a float64 in wire order.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64View returns the first n float64s of b viewed in place, or ok
// false when the host byte order or b's alignment rules the view out.
// b must hold 8*n bytes.
func f64View(b []byte, n int) (v []float64, ok bool) {
	b = b[:8*n]
	if !hostLE || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), n), true
}

// encodeF64Into writes v into b, which must hold 8*len(v) bytes.
func encodeF64Into(b []byte, v []float64) {
	if w, ok := f64View(b, len(v)); ok {
		copy(w, v)
		return
	}
	encodeF64Portable(b, v)
}

// decodeF64Into overwrites v from b; len(b) must be 8*len(v).
func decodeF64Into(v []float64, b []byte) {
	if w, ok := f64View(b, len(v)); ok {
		copy(v, w)
		return
	}
	decodeF64Portable(v, b)
}

// decodeCombineF64 folds the encoded vector in b into v elementwise.
func decodeCombineF64(v []float64, b []byte, op Op) {
	w, ok := f64View(b, len(v))
	if !ok {
		decodeCombinePortable(v, b, op)
		return
	}
	// Each arm is exactly Op.apply's expression, so results are
	// bit-identical to the portable path (NaN payloads and signed zeros
	// included).
	switch op {
	case OpSum:
		for i := range v {
			v[i] = v[i] + w[i]
		}
	case OpMin:
		for i := range v {
			v[i] = math.Min(v[i], w[i])
		}
	case OpMax:
		for i := range v {
			v[i] = math.Max(v[i], w[i])
		}
	case OpProd:
		for i := range v {
			v[i] = v[i] * w[i]
		}
	default:
		for i := range v {
			v[i] = op.apply(v[i], w[i])
		}
	}
}

func encodeF64Portable(b []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
}

func decodeF64Portable(v []float64, b []byte) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

func decodeCombinePortable(v []float64, b []byte, op Op) {
	for i := range v {
		x := math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		v[i] = op.apply(v[i], x)
	}
}

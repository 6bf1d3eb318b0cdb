package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/errs"
	"photon/internal/metrics"
	"photon/internal/trace"
)

// ErrTimeout is returned by the Wait helpers when the deadline passes.
// It aliases the shared root sentinel, so errors.Is against it also
// matches timeouts surfaced by the msg and runtime layers.
var ErrTimeout = errs.ErrTimeout

// engine is the progress engine's state: one per instance, owned by
// Photon and entered through a try-lock, so concurrent Progress
// callers coalesce (one runs the round, the others return at once) —
// the paper's caller-driven progress model with no progress thread.
//
// Ordering: every completion is harvested by the one engine into one
// local/remote ring pair, so each stream pops in harvest order (global
// FIFO across peers, not only per peer). Completions are still keyed
// by RID, never by position; callers waiting by RID do not depend on
// the order.
type engine struct {
	//photon:lock engine 20
	mu sync.Mutex // serializes the engine (try-lock entry)

	// Harvested completions, split so producers and consumers do not
	// share a lock (see ring.go).
	localCQ  *compRing
	remoteCQ *compRing

	// parked mirrors the sum of the peers' deferred counts and
	// creditHintTotal the sum of their consumedHint counters, so a
	// fully idle round returns after two atomic loads without touching
	// any per-peer state.
	parked          atomic.Int64
	creditHintTotal atomic.Int64

	lastAct uint64 // arena activity counter at last ledger sweep (mu)

	// Reusable sweep scratch, serialized by mu.
	pollScratch []polledEvent
	reapScratch [64]BackendCompletion
	wireScratch []wireOp
	reqScratch  []WriteReq

	// Activity gauges (engine_reaps/engine_sweeps).
	reaps  atomic.Int64 // backend completions reaped
	sweeps atomic.Int64 // productive progress rounds
}

// cq returns the local or the remote completion ring.
func (e *engine) cq(local bool) *compRing {
	if local {
		return e.localCQ
	}
	return e.remoteCQ
}

// Progress drives the engine: it reaps backend completions, polls the
// peers' ledgers, retries deferred work, and performs credit
// maintenance, returning the number of events it handled. Progress is
// safe to call from multiple goroutines; entry is a try-lock, so the
// engine is either advanced by this caller or already being advanced
// by another (which returns 0 immediately), mirroring Photon's
// caller-driven progress model.
//
// The ledger sweep is skipped entirely while the backend's DMA
// write-activity counter is unchanged. A fully idle round — no ledger
// activity, no parked work anywhere, no credits owed — additionally
// skips the per-peer loop: a spinning prober then costs two atomic
// loads beyond the backend poll, independent of job size.
//
//photon:hotpath
func (p *Photon) Progress() int {
	p.stats.progress.Add(1)
	eng := &p.eng
	if !eng.mu.TryLock() {
		return 0
	}
	defer eng.mu.Unlock()
	// Phase timing: reap is the backend-CQ drain, sweep the per-peer
	// ledger/deferred/credit pass; a round that handled nothing is
	// charged to idle instead. Gated on the registry so the disabled
	// cost is one atomic load. All three phase distributions are
	// 1-in-64 sampled: rounds — idle ones especially — are the
	// engine's innermost loop, and even a clock read per round shows
	// up on a spin-driven caller. An unsampled round costs one atomic
	// add; the sampled 1/64 keeps every distribution's shape.
	var t0, t1 int64
	sample := false
	if p.obs.reg.Enabled() {
		sample = p.obs.idleSeq.Add(1)&63 == 0
		if sample {
			t0 = nowNanos()
		}
	}
	n := 0
	nReap := p.reapBackend()
	n += nReap
	if sample {
		t1 = nowNanos()
		if nReap > 0 {
			p.obs.reg.RecordPhase(metrics.PhaseReap, t1-t0)
		}
	}
	// Fault sweep: one int64 comparison when OpTimeout and liveness
	// are both off; otherwise rate-limited inside pollFaults. It must
	// run before the idle early-out — a wedged op toward a dead peer
	// produces no ledger activity and parks nothing.
	if p.faultPollNS != 0 {
		n += p.pollFaults()
	}
	cur := p.activity()
	sweep := cur != eng.lastAct
	eng.lastAct = cur
	if !sweep && eng.parked.Load() == 0 && eng.creditHintTotal.Load() == 0 {
		if sample && n == 0 {
			p.obs.reg.RecordPhase(metrics.PhaseIdle, nowNanos()-t0)
		}
		return n
	}
	for _, ps := range p.peers {
		n += p.retryDeferred(ps)
		if sweep {
			n += p.pollPeer(ps)
		}
		p.returnCredits(ps, false)
	}
	if sample {
		if n == 0 {
			p.obs.reg.RecordPhase(metrics.PhaseIdle, nowNanos()-t0)
		} else {
			p.obs.reg.RecordPhase(metrics.PhaseSweep, nowNanos()-t1)
		}
	}
	if n > 0 {
		eng.sweeps.Add(1)
	}
	return n
}

// reapBackend harvests transport completions and resolves their
// tokens (the token table routes each to its op).
//
//photon:hotpath
func (p *Photon) reapBackend() int {
	buf := p.eng.reapScratch[:]
	n := 0
	for {
		k := p.be.Poll(buf)
		for i := 0; i < k; i++ {
			p.handleBackend(buf[i])
		}
		n += k
		if k < len(buf) {
			if n > 0 {
				p.eng.reaps.Add(int64(n))
			}
			return n
		}
	}
}

//photon:hotpath
func (p *Photon) handleBackend(bc BackendCompletion) {
	op, ok := p.takeToken(bc.Token)
	if !ok {
		return // unsignaled op surfaced an error CQE, or stale token
	}
	if !bc.OK {
		err := bc.Err
		if err == nil {
			err = fmt.Errorf("photon: transport error on op kind %d", op.kind) //photon:allow hotpathalloc -- cold error path; transport failures are not per-op cost
		}
		if op.postNS != 0 {
			p.traceEv(trace.KindComplete, op.rid, "backend.err")
		}
		p.pushLocal(Completion{Rank: op.rank, RID: op.rid, Err: err, traced: op.postNS != 0})
		if op.block != nil {
			_ = p.slab.Release(op.block)
		}
		if op.result != nil {
			p.pool.Put(op.result)
		}
		return
	}
	switch op.kind {
	case opPutLocal:
		p.opDone(&op, "put.done")
		if op.rid != 0 {
			p.pushLocal(Completion{Rank: op.rank, RID: op.rid, traced: op.postNS != 0})
		}
	case opGetLocal:
		p.opDone(&op, "get.done")
		if op.rid != 0 {
			p.pushLocal(Completion{Rank: op.rank, RID: op.rid, traced: op.postNS != 0})
		}
		if op.remoteRID != 0 {
			p.notifyRemote(op.rank, op.remoteRID)
		}
	case opRdzvGet:
		// Data staged: copy out, release the block, FIN the sender,
		// surface the delivery. The copy is owned by the caller from
		// here on (Completion.Data contract), so it must not come
		// from the recycling pool. With a posted receive the read
		// already landed in the caller's buffer: no block, no copy.
		data := op.postedBuf
		if data == nil {
			data = p.pool.CopyOwned(op.block.Buf[:op.size])
			_ = p.slab.Release(op.block)
		}
		p.traceEv(trace.KindProtocol, op.rdzvID, "rdzv.read.done")
		p.sendFIN(op.rank, op.rdzvID)
		p.stats.rdzvRecvd.Add(1)
		p.pushRemote(Completion{Rank: op.rank, RID: op.remoteRID, Data: data, traced: op.traced})
	case opAtomic:
		p.opDone(&op, "atomic.done")
		if op.rid != 0 {
			p.pushLocal(Completion{
				Rank:   op.rank,
				RID:    op.rid,
				Value:  binary.LittleEndian.Uint64(op.result),
				traced: op.postNS != 0,
			})
		}
		// The backend wrote the result before reporting the
		// completion; the scratch word can be recycled now.
		p.pool.Put(op.result)
	}
}

// notifyRemote writes a bare completion entry (tCompletion) into the
// peer's PWC ledger, deferring on credit exhaustion.
//
//photon:hotpath
func (p *Photon) notifyRemote(rank int, rid uint64) {
	p.postEntryOrDefer(p.peers[rank], classPWC, p.newEntry(tCompletion, rid, 0, 0))
}

// sendFIN writes a rendezvous-complete entry carrying the sender's
// token into the peer's sys ledger.
//
//photon:hotpath
func (p *Photon) sendFIN(rank int, tok uint64) {
	p.postEntryOrDefer(p.peers[rank], classSys, p.newEntry(tFIN, tok, 0, 0))
}

// postEntryOrDefer reserves a slot in the peer's class ledger and posts
// the pooled entry ent, parking it for Progress when out of credits.
//
//photon:hotpath
func (p *Photon) postEntryOrDefer(ps *peerState, class int, ent []byte) {
	res, err := p.reserve(ps, class)
	if err != nil {
		ps.mu.Lock() //photon:allow hotpathalloc -- credit-exhaustion slow path; the fast path never takes this branch
		ps.pendingEntry.PushBack(entryOp{class: class, ent: ent})
		ps.mu.Unlock()
		ps.deferred.Add(1)
		p.eng.parked.Add(1)
		p.stats.deferred.Add(1)
		return
	}
	sealEntry(ent, res)
	p.postOrPark(ps, ps.rank, ent, res.RemoteAddr, res.RKey, 0, false, true)
}

// retryDeferred drains a peer's parked work in dependency-safe order:
// first fully-specified wire writes (FIFO; slots already reserved),
// then unreserved ledger entries, then queued inbound rendezvous.
// Wire writes drain in doorbell batches.
func (p *Photon) retryDeferred(ps *peerState) int {
	if ps.deferred.Load() == 0 {
		return 0
	}
	eng := &p.eng
	n := 0
	// Wire writes. Snapshot a batch under the lock, post it outside,
	// then pop what was accepted. Only the engine (serialized by its
	// mutex, under which the fault plane also drops these queues)
	// removes from pendingWire, and producers push at the back, so
	// the snapshot stays valid.
	for {
		ps.mu.Lock()
		k := min(ps.pendingWire.Len(), wireBatchMax)
		if k == 0 {
			ps.mu.Unlock()
			break
		}
		batch := eng.wireScratch[:0]
		for i := 0; i < k; i++ {
			batch = append(batch, ps.pendingWire.At(i))
		}
		ps.mu.Unlock()

		reqs := eng.reqScratch[:0]
		for _, w := range batch {
			reqs = append(reqs, WriteReq{Local: w.local, RemoteAddr: w.raddr, RKey: w.rkey, Token: w.token, Signaled: w.signaled})
		}
		posted, perr := p.be.PostWriteBatch(ps.rank, reqs)
		for i := range reqs {
			reqs[i] = WriteReq{}
		}
		if posted > 0 {
			p.stats.batchPosts.Add(1)
			p.stats.batchedOps.Add(int64(posted))
			ps.mu.Lock()
			for i := 0; i < posted; i++ {
				ps.pendingWire.PopFront()
			}
			ps.mu.Unlock()
			for i := 0; i < posted; i++ {
				if batch[i].pooled {
					p.pool.Put(batch[i].local)
				}
			}
			ps.deferred.Add(-int64(posted))
			eng.parked.Add(-int64(posted))
			n += posted
		}
		if perr != nil && !errors.Is(perr, ErrWouldBlock) {
			// Hard rejection (peer down, transport closed): every
			// remaining parked write toward this peer would fail the
			// same way, so fail them now instead of wedging the FIFO.
			n += p.failDeferredWire(ps, perr)
			break
		}
		if posted < k {
			break // transport still busy; keep FIFO order
		}
	}
	// Ledger entries awaiting credits.
	for {
		ps.mu.Lock()
		if ps.pendingEntry.Len() == 0 {
			ps.mu.Unlock()
			break
		}
		e := ps.pendingEntry.At(0)
		ps.mu.Unlock()
		res, err := p.reserve(ps, e.class)
		if err != nil {
			break
		}
		sealEntry(e.ent, res)
		p.postOrPark(ps, ps.rank, e.ent, res.RemoteAddr, res.RKey, 0, false, true)
		ps.mu.Lock()
		ps.pendingEntry.PopFront()
		ps.mu.Unlock()
		ps.deferred.Add(-1)
		eng.parked.Add(-1)
		n++
	}
	// Inbound rendezvous awaiting slab space.
	for {
		ps.mu.Lock()
		if ps.pendingRTS.Len() == 0 {
			ps.mu.Unlock()
			break
		}
		r := ps.pendingRTS.At(0)
		ps.mu.Unlock()
		reaped, ok := p.startRdzvGet(r)
		n += reaped
		if !ok {
			break
		}
		ps.mu.Lock()
		ps.pendingRTS.PopFront()
		ps.mu.Unlock()
		ps.deferred.Add(-1)
		eng.parked.Add(-1)
		n++
	}
	return n
}

// polledEvent is one decoded ledger arrival (see decodeEntry),
// collected under the arena read-lock and dispatched after it is
// released (dispatch may need to re-acquire arena-guarded state, and
// RWMutex read locks must not nest).
type polledEvent struct {
	kind   entryType
	rid    uint64 // remote RID, or a rendezvous send's token (RTS, FIN)
	raddr  uint64
	rkey   uint32
	data   []byte // copied out of the ledger slot
	pooled bool   // data is pool scratch to recycle after dispatch
	rts    rtsOp
	hasCtx bool  // entry carried a wire trace context
	origin int   // initiator rank from the context
	ctxNS  int64 // initiator post timestamp from the context
}

// pollOrder is the order pollPeer drains a peer's ledgers in.
var pollOrder = [numClasses]int{classSys, classPWC, classEager}

// pollPeer drains this peer's three receive ledgers: one arena lock
// acquisition for the whole batch, then dispatch outside the lock.
//
//photon:hotpath
func (p *Photon) pollPeer(ps *peerState) int {
	eng := &p.eng
	eng.pollScratch = eng.pollScratch[:0]
	n := 0           // ledger entries consumed: the credit hint
	reaped := 0      // backend completions the rendezvous reads reaped
	p.arenaLk.Lock() //photon:allow hotpathalloc -- one arena lock per sweep batch covers every ledger poll; taking it once here is the optimization
	ready := false
	for _, cl := range pollOrder {
		ready = ready || ps.recv[cl].ReadyLocked()
	}
	if !ready {
		p.arenaLk.Unlock()
		return 0
	}
	for _, cl := range pollOrder {
		for {
			e, ok := ps.recv[cl].PollLocked()
			if !ok {
				break
			}
			ps.consumed[cl]++
			n++
			ev, body, ok := decodeEntry(cl, e.Payload)
			if !ok {
				continue
			}
			switch ev.kind {
			case tPacked:
				// The payload copy becomes Completion.Data, owned by
				// the caller forever — never pool scratch. A posted
				// receive supplies the destination instead (one atomic
				// load when none are posted; recvtab rank 35 nests
				// above arena 30).
				if data, posted := p.recvs.take(ev.rid, len(body)); posted {
					copy(data, body)
					ev.data = data
				} else {
					ev.data = p.pool.CopyOwned(body)
				}
			case tPackedPut:
				// Copy the payload out and place it after the arena
				// lock is released: ApplyLocal takes registration locks
				// that may be the very lock guarding this sweep (the
				// TCP backend uses one table-wide RWMutex), so it must
				// never run under it. This copy only lives until
				// ApplyLocal places it, so it can come from the
				// recycling pool.
				data := p.pool.Get(len(body))
				copy(data, body)
				//photon:allow bufretain -- parked in pollScratch only until dispatch below; ApplyLocal consumes it and Put recycles it in the same sweep
				ev.data, ev.pooled = data, true
			case tRTS:
				ev.rts.rank = ps.rank
			}
			eng.pollScratch = append(eng.pollScratch, ev) //photon:allow hotpathalloc -- amortized scratch growth; reset to length 0 each sweep, capacity is reused
		}
	}
	p.arenaLk.Unlock()

	for i := range eng.pollScratch {
		ev := &eng.pollScratch[i]
		// Ledger-delivery trace events carry the RID the initiator
		// posted (its remote RID), correlating both sides of the op.
		// Sampling is the initiator's choice, carried by the wire trace
		// context: entries with a context become span-link events
		// holding the initiator's rank and post timestamp; the rest
		// record plain ledger events. A disabled ring keeps the cost to
		// one atomic load per entry either way.
		switch ev.kind {
		case tCompletion:
			p.traceDelivery(ps.rank, ev, ev.rid, "ledger.pwc")
			p.pushRemote(Completion{Rank: ps.rank, RID: ev.rid, traced: ev.hasCtx})
		case tPacked:
			p.traceDelivery(ps.rank, ev, ev.rid, "ledger.eager")
			p.pushRemote(Completion{Rank: ps.rank, RID: ev.rid, Data: ev.data, traced: ev.hasCtx})
		case tPackedPut:
			p.traceDelivery(ps.rank, ev, ev.rid, "ledger.put")
			err := p.be.ApplyLocal(ev.raddr, ev.rkey, ev.data)
			if ev.rid != 0 || err != nil {
				p.pushRemote(Completion{Rank: ps.rank, RID: ev.rid, Err: err, traced: ev.hasCtx})
			}
		case tRTS:
			p.traceDelivery(ps.rank, ev, ev.rts.remoteRID, "ledger.rts")
			k, ok := p.startRdzvGet(ev.rts)
			reaped += k
			if !ok {
				ps.mu.Lock() //photon:allow hotpathalloc -- staging-exhaustion slow path; only reached when the slab is full
				ps.pendingRTS.PushBack(ev.rts)
				ps.mu.Unlock()
				ps.deferred.Add(1)
				eng.parked.Add(1)
			}
		case tFIN:
			p.traceEv(trace.KindProtocol, ev.rid, "fin.rx")
			p.handleFIN(ps, ev.rid)
		}
		if ev.pooled {
			p.pool.Put(ev.data)
		}
		ev.data = nil // release payload reference for GC
	}
	if n > 0 {
		ps.consumedHint.Add(int64(n))
		eng.creditHintTotal.Add(int64(n))
	}
	return n + reaped
}

// handleFIN completes the rendezvous send whose token the FIN carries.
// The token must name a send toward the FIN's sender: any other FIN —
// stale, forged, or naming another peer's send or a backend op — is
// dropped and leaves that op alone.
func (p *Photon) handleFIN(ps *peerState, tok uint64) {
	op, ok := p.tok.takeIf(tok, opRdzvSend, ps.rank)
	if !ok {
		return
	}
	_ = p.be.Deregister(op.rb)
	// FIN closes the rendezvous: the target has read the data and
	// surfaced its delivery, so one latency closes both the initiator
	// and the remote-delivery distributions (remoteVis).
	p.opDone(&op, "send.rdzv.done")
	if op.rid != 0 {
		p.pushLocal(Completion{Rank: op.rank, RID: op.rid, traced: op.postNS != 0})
	}
}

// startRdzvGet allocates staging space and posts the rendezvous read.
// ok is false when it must be retried later (no slab space / SQ full).
// When the delivery RID has a posted receive, the read lands in the
// posted buffer directly — no slab block, no copy-out at completion.
//
// An accepted read is reaped at once: a transport that applies a read
// at post (shm on a free region, vsim on a drained zero-delay link)
// has already queued its completion, so the copy-out, FIN and delivery
// happen in this round instead of the next. n counts what that reap
// handled. Callers hold the engine lock.
func (p *Photon) startRdzvGet(r rtsOp) (n int, ok bool) {
	if buf, ok := p.recvs.take(r.remoteRID, r.size); ok {
		tok := p.newToken(pendingOp{
			kind: opRdzvGet, rank: r.rank, remoteRID: r.remoteRID,
			postedBuf: buf, size: r.size, rdzvID: r.rdzvID, traced: r.traced,
		})
		if err := p.be.PostRead(r.rank, buf, r.addr, r.rkey, tok); err != nil {
			p.takeToken(tok)
			p.recvs.restore(r.remoteRID, buf)
			return 0, false
		}
		return p.reapBackend(), true
	}
	block, err := p.slab.Alloc(r.size)
	if err != nil {
		return 0, false
	}
	tok := p.newToken(pendingOp{
		kind: opRdzvGet, rank: r.rank, remoteRID: r.remoteRID,
		block: block, size: r.size, rdzvID: r.rdzvID, traced: r.traced,
	})
	if err := p.be.PostRead(r.rank, block.Buf[:r.size], r.addr, r.rkey, tok); err != nil {
		p.takeToken(tok)
		_ = p.slab.Release(block)
		return 0, false
	}
	return p.reapBackend(), true
}

// returnCredits publishes consumed-entry counts to the peer's mailbox
// when the batch threshold is reached (or force is set). The write is a
// cumulative counter, so it is idempotent and needs no flow control.
func (p *Photon) returnCredits(ps *peerState, force bool) {
	h := ps.consumedHint.Swap(0)
	if h != 0 {
		p.eng.creditHintTotal.Add(-h)
	} else if !force {
		return
	}
	for cl := 0; cl < numClasses; cl++ {
		total := ps.consumed[cl] // engine-owned; no ledger locks
		ps.mu.Lock()
		due := total-ps.lastReturned[cl] >= int64(p.cfg.CreditBatch) || (force && total > ps.lastReturned[cl])
		if due {
			ps.lastReturned[cl] = total
		}
		ps.mu.Unlock()
		if !due {
			continue
		}
		word := p.pool.Get(8)
		binary.LittleEndian.PutUint64(word, uint64(total))
		raddr := ps.remoteArena.Addr + uint64(p.mailSlotOffset(p.rank, cl))
		p.postOrPark(ps, ps.rank, word, raddr, ps.remoteArena.RKey, 0, false, true)
		p.stats.creditWrites.Add(1)
	}
}

// mailSlotOffset is the arena offset of the mailbox word that `peer`
// writes about ledger class cl it consumes from me. In my arena the
// word for (peer, cl) lives at mailOff + (peer*numClasses+cl)*8; in the
// peer's arena, my word lives at the same formula with my rank.
func (p *Photon) mailSlotOffset(rank, class int) int {
	return p.mailOff + (rank*numClasses+class)*8
}

// refreshCredits folds the local mailbox word for (peer, class) into
// the sender's credit balance.
func (p *Photon) refreshCredits(ps *peerState, class int) {
	off := p.mailSlotOffset(ps.rank, class)
	p.arenaLk.Lock()
	val := binary.LittleEndian.Uint64(p.arena[off : off+8])
	p.arenaLk.Unlock()
	ps.mu.Lock()
	delta := int64(val) - int64(ps.lastMail[class])
	if delta > 0 {
		ps.lastMail[class] = val
	}
	ps.mu.Unlock()
	if delta > 0 {
		_ = ps.send[class].AddCredits(int(delta))
	}
}

// ---------------------------------------------------------------------
// Completion harvesting
// ---------------------------------------------------------------------

// Probe drives one round of progress and pops a completion from the
// selected stream(s), local first. ok is false when nothing is pending.
func (p *Photon) Probe(flags ProbeFlags) (Completion, bool) {
	p.Progress()
	if flags&ProbeLocal != 0 {
		if c, ok := p.PopLocal(); ok {
			return c, true
		}
	}
	if flags&ProbeRemote != 0 {
		if c, ok := p.PopRemote(); ok {
			return c, true
		}
	}
	return Completion{}, false
}

// PopLocal pops the oldest harvested local completion without driving
// progress.
func (p *Photon) PopLocal() (Completion, bool) {
	return p.popRing(true)
}

// PopRemote pops the oldest harvested remote completion.
func (p *Photon) PopRemote() (Completion, bool) {
	return p.popRing(false)
}

//photon:hotpath
func (p *Photon) popRing(local bool) (Completion, bool) {
	c, ok := p.eng.cq(local).pop()
	if ok && c.traced {
		p.traceEv(trace.KindReap, c.RID, "reap.pop")
	}
	return c, ok
}

// WaitLocal drives progress until the local completion with the given
// RID arrives, removing it from the stream; other completions are left
// queued. A completion that carries an error is still a completion: it
// is returned with a nil error and its Err set. A non-positive timeout
// waits forever (bounded by 2×OpTimeout when op deadlines are armed).
// rid must be non-zero: zero names no completion, as in the post calls,
// and the wait returns at once.
func (p *Photon) WaitLocal(rid uint64, timeout time.Duration) (Completion, error) {
	return p.waitOne(rid, timeout, true)
}

// WaitRemote is WaitLocal for the remote completion stream.
func (p *Photon) WaitRemote(rid uint64, timeout time.Duration) (Completion, error) {
	return p.waitOne(rid, timeout, false)
}

// waitOne is a one-RID waitAll on stack scratch (no allocation).
func (p *Photon) waitOne(rid uint64, timeout time.Duration, local bool) (Completion, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	var (
		rids = [1]uint64{rid}
		out  [1]Completion
		pend [1]int
	)
	w := Waiter{p: p}
	defer w.Release()
	err := p.waitAll(&w, pend[:0], rids[:], out[:], deadline, nil, local)
	return out[0], err
}

// parkGrace caps how long an idle waiter stays parked on its notify
// channel before re-polling. It bounds the staleness of the timeout
// and Close checks, and backstops the (already lossless) notification
// protocol; the common wakeup path is the channel send, which arrives
// at goroutine-handoff latency.
const parkGrace = time.Millisecond

// BackendNotify exposes an engine-maintained activity latch. External
// progress loops — benchmark harnesses, application-level pollers —
// should park on it between dry Progress rounds instead of
// yield-spinning; see Waiter for why spinning is actively harmful on
// few-core hosts. The latch is fanned out alongside (not instead of)
// the engine's own waiter wakeups, so parking on it cannot starve
// them.
func (p *Photon) BackendNotify() <-chan struct{} { return p.nfy.extern }

// Flush forces pending credit returns out (used before quiescing, e.g.
// by barriers, so peers are never left starved of credits). It is
// skipped while the engine is being driven elsewhere, like Progress.
func (p *Photon) Flush() {
	if !p.eng.mu.TryLock() {
		return
	}
	for _, ps := range p.peers {
		p.retryDeferred(ps)
		p.returnCredits(ps, true)
	}
	p.eng.mu.Unlock()
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"photon/internal/ledger"
	"photon/internal/mem"
	"photon/internal/metrics"
	"photon/internal/trace"
)

// PutWithCompletion performs Photon's signature operation: a one-sided
// write of local into rank's memory at dst+off, with a local completion
// (localRID) surfaced here when the transfer is done and, when
// remoteRID is non-zero, a remote completion (remoteRID) surfaced at
// the target once the data is visible there. Either RID may be zero to
// suppress that side's event.
//
// The caller must not modify local until the local completion arrives
// (or, with localRID == 0, until a later completion on the same rank).
// Returns ErrWouldBlock when the target's completion ledger is out of
// credits; drive Progress and retry, or use PutBlocking.
//
//photon:hotpath
func (p *Photon) PutWithCompletion(rank int, local []byte, dst mem.RemoteBuffer, off uint64, localRID, remoteRID uint64) error {
	if err := p.checkRank(rank); err != nil {
		return err
	}
	if p.closed.Load() {
		return ErrClosed
	}
	if !dst.Contains(off, len(local)) {
		return fmt.Errorf("%w: put of %d bytes at offset %d into buffer of %d", ErrTooLarge, len(local), off, dst.Len) //photon:allow hotpathalloc -- cold error path; the op was rejected before any work
	}
	if p.peerDown(rank) {
		return ErrPeerDown
	}
	ps := p.peers[rank]
	ts := p.obsStamp()

	// A zero-byte put is a pure completion notification: one entry in
	// the target's PWC ledger, no data movement at all.
	if len(local) == 0 {
		if remoteRID == 0 {
			if localRID != 0 {
				p.pushLocal(Completion{Rank: rank, RID: localRID, traced: ts != 0})
			}
			return nil
		}
		res, err := p.reserve(ps, classPWC)
		if err != nil {
			return err
		}
		ent := p.newEntry(tCompletion, remoteRID, 0, ts)
		sealEntry(ent, res)
		p.postEntry(ps, rank, ent, res, localRID, remoteRID, ts, metrics.OpPut, "put.notify")
		p.stats.putsDirect.Add(1)
		return nil
	}

	// Small puts that carry a remote completion fold payload,
	// destination, and completion identifier into a single ledger
	// write; the target's middleware places the payload while probing
	// (Photon's packed small-put optimization) — one wire operation
	// instead of two. Puts without a remote RID stay strictly
	// one-sided (placement must not depend on target progress), so
	// they always use the direct write.
	if remoteRID != 0 &&
		len(local) <= p.cfg.EagerEntrySize-ledger.HeaderSize-packedPutHdrSize {
		return p.putPacked(ps, rank, local, dst.Addr+off, dst.RKey, localRID, remoteRID, ts)
	}

	if remoteRID == 0 {
		// Lone data write, signaled to surface the local completion.
		tok := p.newToken(pendingOp{
			kind: opPutLocal, rank: rank, rid: localRID,
			postNS: ts, mkind: metrics.OpPut,
		})
		if ts != 0 {
			p.tracePost(rank, localRID, localRID, "put.direct")
		}
		p.postOrPark(ps, rank, local, dst.Addr+off, dst.RKey, tok, true, false)
		p.stats.putsDirect.Add(1)
		return nil
	}

	res, err := p.reserve(ps, classPWC)
	if err != nil {
		return err
	}
	ent := p.newEntry(tCompletion, remoteRID, 0, ts)
	sealEntry(ent, res)
	tok := p.newToken(pendingOp{
		kind: opPutLocal, rank: rank, rid: localRID,
		postNS: ts, mkind: metrics.OpPut, remoteVis: true,
	})
	if ts != 0 {
		p.tracePost(rank, remoteRID, localRID, "put.direct")
	}
	// Data write first, then the notification entry: RC ordering makes
	// the entry's arrival imply the data is visible. Both writes leave
	// in one doorbell batch when the backend supports it.
	p.postPair(ps, rank,
		wireOp{local: local, raddr: dst.Addr + off, rkey: dst.RKey},
		wireOp{local: ent, raddr: res.RemoteAddr, rkey: res.RKey, token: tok, signaled: true, pooled: true})
	p.stats.putsDirect.Add(1)
	return nil
}

// GetWithCompletion performs a one-sided read of len(local) bytes from
// rank's memory at src+off into local. localRID is surfaced here when
// the data has landed; when remoteRID is non-zero the target is
// additionally notified (its completion carries remoteRID) after the
// read completes — Photon's "get with remote completion".
//
//photon:hotpath
func (p *Photon) GetWithCompletion(rank int, local []byte, src mem.RemoteBuffer, off uint64, localRID, remoteRID uint64) error {
	if err := p.checkRank(rank); err != nil {
		return err
	}
	if p.closed.Load() {
		return ErrClosed
	}
	if len(local) == 0 {
		return fmt.Errorf("%w: zero-length get", ErrTooLarge) //photon:allow hotpathalloc -- cold error path; the op was rejected before any work
	}
	if !src.Contains(off, len(local)) {
		return fmt.Errorf("%w: get of %d bytes at offset %d from buffer of %d", ErrTooLarge, len(local), off, src.Len) //photon:allow hotpathalloc -- cold error path; the op was rejected before any work
	}
	if p.peerDown(rank) {
		return ErrPeerDown
	}
	ts := p.obsStamp()
	tok := p.newToken(pendingOp{
		kind: opGetLocal, rank: rank, rid: localRID, remoteRID: remoteRID,
		postNS: ts, mkind: metrics.OpGet,
	})
	if ts != 0 {
		p.tracePost(rank, localRID, localRID, "get")
	}
	if err := p.be.PostRead(rank, local, src.Addr+off, src.RKey, tok); err != nil {
		p.takeToken(tok)
		return err
	}
	p.stats.gets.Add(1)
	return nil
}

// Send delivers data to rank as a message: the target harvests a remote
// completion carrying remoteRID and the payload. Payloads up to
// EagerThreshold() are packed into a single ledger write; larger ones use
// the rendezvous protocol (sender-side registration, target-side RDMA
// read, FIN). localRID, when non-zero, is surfaced here once data is
// safely out of the caller's buffer (packed: immediately on transport
// completion; rendezvous: on FIN).
//
//photon:hotpath
func (p *Photon) Send(rank int, data []byte, localRID, remoteRID uint64) error {
	if err := p.checkRank(rank); err != nil {
		return err
	}
	if p.closed.Load() {
		return ErrClosed
	}
	if p.peerDown(rank) {
		return ErrPeerDown
	}
	ps := p.peers[rank]
	ts := p.obsStamp()
	if len(data) <= p.cfg.packedCap() && !p.cfg.ForceRendezvous {
		return p.sendPacked(ps, rank, data, localRID, remoteRID, ts)
	}
	return p.sendRendezvous(ps, rank, data, localRID, remoteRID, ts)
}

// postEntry posts the pooled ledger entry that carries a whole put or
// send (zero-byte put, packed put, eager send) into the slot res. A
// sampled op is posted signaled even when the caller suppressed the
// local completion: the backend completion closes the latency
// measurement and is dropped before delivery (rid 0). This is the
// plane's only observer effect; TraceSampleShift bounds it.
//
//photon:hotpath
func (p *Photon) postEntry(ps *peerState, rank int, ent []byte, res ledger.Reservation, localRID, remoteRID uint64, ts int64, mkind metrics.OpKind, msg string) {
	signaled := localRID != 0 || ts != 0
	var tok uint64
	if signaled {
		tok = p.newToken(pendingOp{
			kind: opPutLocal, rank: rank, rid: localRID,
			postNS: ts, mkind: mkind, remoteVis: true,
		})
	}
	if ts != 0 {
		p.tracePost(rank, remoteRID, localRID, msg)
	}
	p.postOrPark(ps, rank, ent, res.RemoteAddr, res.RKey, tok, signaled, true)
}

// putPacked folds a small put into one eager-ledger write
// (tPackedPut). The target validates and places the payload before
// surfacing the remote completion, so the "remote RID implies data
// visible" invariant holds unchanged.
//
//photon:hotpath
func (p *Photon) putPacked(ps *peerState, rank int, local []byte, raddr uint64, rkey uint32, localRID, remoteRID uint64, ts int64) error {
	res, err := p.reserve(ps, classEager)
	if err != nil {
		return err
	}
	ent := p.newEntry(tPackedPut, remoteRID, len(local), ts)
	b := ent[ledger.HeaderSize:]
	binary.LittleEndian.PutUint64(b[9:], raddr)
	binary.LittleEndian.PutUint32(b[17:], rkey)
	copy(b[packedPutHdrSize:], local)
	sealEntry(ent, res)
	p.postEntry(ps, rank, ent, res, localRID, remoteRID, ts, metrics.OpPut, "put.packed")
	p.stats.putsPacked.Add(1)
	return nil
}

// sendPacked copies data into an eager ledger entry: one RDMA write.
// Only the used prefix of the slot travels on the wire; the receiver
// reads the payload length from the entry header.
//
//photon:hotpath
func (p *Photon) sendPacked(ps *peerState, rank int, data []byte, localRID, remoteRID uint64, ts int64) error {
	res, err := p.reserve(ps, classEager)
	if err != nil {
		return err
	}
	ent := p.newEntry(tPacked, remoteRID, len(data), ts)
	copy(ent[ledger.HeaderSize+packedHdrSize:], data)
	sealEntry(ent, res)
	p.postEntry(ps, rank, ent, res, localRID, remoteRID, ts, metrics.OpSend, "send.eager")
	p.stats.putsPacked.Add(1)
	return nil
}

// sendRendezvous registers data and writes an RTS control entry
// carrying the send's token; the target pulls the payload with an RDMA
// read and FINs the token back (handleFIN).
func (p *Photon) sendRendezvous(ps *peerState, rank int, data []byte, localRID, remoteRID uint64, ts int64) error {
	if len(data) == 0 {
		// Rendezvous of nothing degenerates to a packed send.
		return p.sendPacked(ps, rank, data, localRID, remoteRID, ts)
	}
	res, err := p.reserve(ps, classSys)
	if err != nil {
		return err
	}
	rb, _, err := p.be.Register(data)
	if err != nil {
		return err
	}
	tok := p.newToken(pendingOp{
		kind: opRdzvSend, rank: rank, rid: localRID, rb: rb,
		postNS: ts, mkind: metrics.OpSend, remoteVis: true,
	})
	if ts != 0 {
		p.tracePost(rank, remoteRID, localRID, "send.rdzv")
		p.traceEv(trace.KindProtocol, tok, "rts.tx")
	}
	ent := p.newEntry(tRTS, tok, 0, ts)
	b := ent[ledger.HeaderSize:]
	binary.LittleEndian.PutUint64(b[9:], remoteRID)
	binary.LittleEndian.PutUint64(b[17:], uint64(len(data)))
	binary.LittleEndian.PutUint64(b[25:], rb.Addr)
	binary.LittleEndian.PutUint32(b[33:], rb.RKey)
	sealEntry(ent, res)
	p.postOrPark(ps, rank, ent, res.RemoteAddr, res.RKey, 0, false, true)
	p.stats.rdzvSent.Add(1)
	return nil
}

// Atomic opcodes for the shared post path. Passing the opcode and its
// operands directly (rather than a per-call closure) keeps FetchAdd and
// CompSwap allocation-free.
const (
	atomicFetchAdd = iota
	atomicCompSwap
)

// FetchAdd atomically adds `add` to the 8-byte word at dst+off on rank.
// The prior value is surfaced in the local completion's Value field
// under localRID.
//
//photon:hotpath
func (p *Photon) FetchAdd(rank int, dst mem.RemoteBuffer, off uint64, add uint64, localRID uint64) error {
	return p.atomic(rank, dst, off, localRID, atomicFetchAdd, add, 0)
}

// CompSwap atomically compare-and-swaps the 8-byte word at dst+off on
// rank (swap stored iff current == compare). The prior value is
// surfaced in the local completion's Value field under localRID.
//
//photon:hotpath
func (p *Photon) CompSwap(rank int, dst mem.RemoteBuffer, off uint64, compare, swap uint64, localRID uint64) error {
	return p.atomic(rank, dst, off, localRID, atomicCompSwap, compare, swap)
}

//photon:hotpath
func (p *Photon) atomic(rank int, dst mem.RemoteBuffer, off uint64, localRID uint64, op int, arg0, arg1 uint64) error {
	if err := p.checkRank(rank); err != nil {
		return err
	}
	if p.closed.Load() {
		return ErrClosed
	}
	if !dst.Contains(off, 8) {
		return fmt.Errorf("%w: atomic at offset %d of buffer len %d", ErrTooLarge, off, dst.Len) //photon:allow hotpathalloc -- cold error path; the op was rejected before any work
	}
	if p.peerDown(rank) {
		return ErrPeerDown
	}
	// The result word is pool scratch; the backend owns it until the
	// completion is reaped, where handleBackend recycles it.
	result := p.pool.Get(8)
	ts := p.obsStamp()
	// An atomic's signaled completion implies the remote word was
	// updated, so one timestamp closes both latency stages.
	tok := p.newToken(pendingOp{
		kind: opAtomic, rank: rank, rid: localRID, result: result,
		postNS: ts, mkind: metrics.OpAtomic, remoteVis: true,
	})
	if ts != 0 {
		p.tracePost(rank, localRID, localRID, "atomic")
	}
	var err error
	if op == atomicFetchAdd {
		err = p.be.PostFetchAdd(rank, result, dst.Addr+off, dst.RKey, arg0, tok)
	} else {
		err = p.be.PostCompSwap(rank, result, dst.Addr+off, dst.RKey, arg0, arg1, tok)
	}
	if err != nil {
		p.takeToken(tok)
		p.pool.Put(result)
		return err
	}
	p.stats.atomics.Add(1)
	return nil
}

// reserve claims a ledger slot toward a peer, refreshing credits from
// the mailbox once before giving up with ErrWouldBlock.
//
//photon:hotpath
func (p *Photon) reserve(ps *peerState, class int) (ledger.Reservation, error) {
	res, err := ps.send[class].Reserve()
	if err == nil {
		return res, nil
	}
	p.refreshCredits(ps, class)
	res, err = ps.send[class].Reserve()
	if err != nil {
		return ledger.Reservation{}, ErrWouldBlock
	}
	return res, nil
}

// postOrPark posts a one-sided write, parking it on the peer's deferred
// queue if the transport is busy. Parked writes are retried in FIFO
// order by Progress, preserving the data-before-notification order
// within each operation. Pooled entry scratch is recycled as soon as
// the write is accepted (the Backend contract guarantees PostWrite has
// snapshotted it by then). Hard transport errors — anything other
// than ErrWouldBlock, e.g. ErrPeerDown or ErrClosed — fail the op
// immediately instead of parking it: a write the transport has
// rejected outright would otherwise wedge the deferred FIFO forever.
//
//photon:hotpath
func (p *Photon) postOrPark(ps *peerState, rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled, pooled bool) {
	ps.mu.Lock() //photon:allow hotpathalloc -- per-peer lock held for one length check; uncontended on the single-threaded fast path
	parked := ps.pendingWire.Len() > 0
	ps.mu.Unlock()
	if !parked {
		err := p.be.PostWrite(rank, local, raddr, rkey, token, signaled)
		if err == nil {
			if pooled {
				p.pool.Put(local)
			}
			return
		}
		if !errors.Is(err, ErrWouldBlock) {
			w := wireOp{local: local, token: token, signaled: signaled, pooled: pooled}
			p.failWire(&w, err)
			return
		}
	}
	p.parkWire(ps, wireOp{local: local, raddr: raddr, rkey: rkey, token: token, signaled: signaled, pooled: pooled})
}

// parkWire appends one write to the peer's deferred FIFO.
//
//photon:hotpath
func (p *Photon) parkWire(ps *peerState, w wireOp) {
	ps.mu.Lock() //photon:allow hotpathalloc -- per-peer lock guarding the deferred FIFO; only taken once the transport pushed back
	ps.pendingWire.PushBack(w)
	ps.mu.Unlock()
	ps.deferred.Add(1)
	p.eng.parked.Add(1)
	p.stats.deferred.Add(1)
}

// postPair posts two ordered writes toward one rank — the direct-put
// data+notification pair — as a single doorbell batch. FIFO with
// already-parked work is preserved: if the peer has a deferred backlog
// both writes join its tail.
//
//photon:hotpath
func (p *Photon) postPair(ps *peerState, rank int, a, b wireOp) {
	ps.mu.Lock() //photon:allow hotpathalloc -- per-peer lock held for one length check; uncontended on the single-threaded fast path
	parked := ps.pendingWire.Len() > 0
	ps.mu.Unlock()
	if parked {
		p.parkWire(ps, a)
		p.parkWire(ps, b)
		return
	}
	rp := p.reqPool.Get().(*[]WriteReq)
	reqs := append((*rp)[:0],
		WriteReq{Local: a.local, RemoteAddr: a.raddr, RKey: a.rkey, Token: a.token, Signaled: a.signaled},
		WriteReq{Local: b.local, RemoteAddr: b.raddr, RKey: b.rkey, Token: b.token, Signaled: b.signaled})
	n, err := p.be.PostWriteBatch(rank, reqs)
	reqs[0], reqs[1] = WriteReq{}, WriteReq{}
	*rp = reqs[:0]
	p.reqPool.Put(rp)
	if n > 0 {
		p.stats.batchPosts.Add(1)
		p.stats.batchedOps.Add(int64(n))
	}
	ops := [2]wireOp{a, b}
	for i := 0; i < n; i++ {
		if ops[i].pooled {
			p.pool.Put(ops[i].local)
		}
	}
	for i := n; i < 2; i++ {
		if err != nil && !errors.Is(err, ErrWouldBlock) {
			// Hard rejection (peer down, closed): fail instead of
			// parking a write that can never be retried successfully.
			p.failWire(&ops[i], err)
			continue
		}
		p.parkWire(ps, ops[i])
	}
}

// PutBlocking wraps PutWithCompletion, retrying it through Retry while
// it is refused for backpressure. With op deadlines armed it gives up
// with ErrTimeout after 2×OpTimeout (a peer that never returns credits),
// else it waits for as long as the post is refused.
func (p *Photon) PutBlocking(rank int, local []byte, dst mem.RemoteBuffer, off uint64, localRID, remoteRID uint64) error {
	w := Waiter{p: p}
	defer w.Release()
	return p.Retry(&w, nil, func() error {
		return p.PutWithCompletion(rank, local, dst, off, localRID, remoteRID)
	})
}

// SendBlocking wraps Send the same way as PutBlocking.
func (p *Photon) SendBlocking(rank int, data []byte, localRID, remoteRID uint64) error {
	w := Waiter{p: p}
	defer w.Release()
	return p.Retry(&w, nil, func() error { return p.Send(rank, data, localRID, remoteRID) })
}

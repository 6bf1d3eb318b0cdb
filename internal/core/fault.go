package core

import (
	"fmt"
	"time"

	"photon/internal/mem"
	"photon/internal/trace"
)

// Fault-tolerance plane: the peer health state machine driven by the
// backend's failure detector, the OpTimeout deadline sweep, and the
// shared op-failure plumbing used by peer-down, Close, and hard post
// errors.
//
// Everything here is cold: Progress gates the whole plane behind one
// int64 comparison (faultPollNS == 0 when neither OpTimeout nor
// liveness is configured), and an armed sweep runs at most every
// faultPollNS nanoseconds. Allocation on these paths is acceptable —
// a fault is never per-op cost.
//
// Buffer ownership during sweeps follows the Backend contract: a
// swept read/atomic's result buffer (and a rendezvous get's slab
// block) may still be written by the transport if the op completes
// late, so the sweep must LEAK them rather than recycle — the token
// generation bump guarantees the late completion is dropped, but not
// that the DMA into the buffer never happens. Deferred wire ops are
// the opposite: they never reached the backend, so their pooled
// scratch is recycled immediately.

// errOpTimeout is the error carried by deadline-swept completions.
var errOpTimeout = fmt.Errorf("photon: operation exceeded OpTimeout: %w", ErrTimeout)

// initFaultPoll derives the sweep cadence from the armed features:
// OpTimeout sweeps want ~4 checks per timeout, health polls ~4 per
// suspect window. Zero leaves the plane disabled.
func (p *Photon) initFaultPoll() {
	poll := int64(0)
	if p.opTimeoutNS > 0 {
		poll = p.opTimeoutNS / 4
	}
	if p.hbe != nil {
		if h := int64(p.cfg.SuspectAfter) / 4; poll == 0 || (h > 0 && h < poll) {
			poll = h
		}
	}
	if poll < 1 && (p.opTimeoutNS > 0 || p.hbe != nil) {
		poll = 1
	}
	p.faultPollNS = poll
}

// pollFaults is the Progress-driven fault sweep: peer health
// transitions first (a down peer fails everything toward it at
// once), then op deadlines. It runs under the engine mutex (the
// caller), which also quiesces retryDeferred while a down peer's
// deferred queues are dropped.
func (p *Photon) pollFaults() int {
	now := nowNanos()
	if now < p.nextFaultNS {
		return 0
	}
	p.nextFaultNS = now + p.faultPollNS
	n := 0
	if p.hbe != nil {
		n += p.pollHealth()
	}
	if p.opTimeoutNS > 0 {
		n += p.sweepDeadlines(now)
	}
	return n
}

// pollHealth advances the per-peer state machine
// (healthy → suspect → down, with recovering while the transport
// redials) from the backend's failure detector. Down is terminal:
// once latched, the engine never resurrects the peer even if the
// detector later reports it healthy.
func (p *Photon) pollHealth() int {
	n := 0
	for _, ps := range p.peers {
		if ps.rank == p.rank {
			continue
		}
		cur := PeerHealth(ps.health.Load())
		if cur == PeerDown {
			continue
		}
		got := p.hbe.PeerHealth(ps.rank)
		if got == cur {
			continue
		}
		ps.health.Store(int32(got))
		ps.lastTransitionNS.Store(time.Now().UnixNano())
		if cur == PeerHealthy && got != PeerHealthy {
			p.suspectTransitions.Add(1)
		}
		// Black-box capture at degradation onset and at the terminal
		// down latch — before failPeer sweeps the in-flight state away,
		// so the record shows the engine as it was at detection time.
		if (cur == PeerHealthy && got != PeerHealthy) || got == PeerDown {
			p.captureFlight(ps, cur, got)
		}
		switch got {
		case PeerSuspect:
			p.traceEv(trace.KindProtocol, uint64(ps.rank), "peer.suspect")
		case PeerRecovering:
			p.traceEv(trace.KindProtocol, uint64(ps.rank), "peer.recovering")
		case PeerHealthy:
			p.traceEv(trace.KindProtocol, uint64(ps.rank), "peer.healthy")
		case PeerDown:
			p.traceEv(trace.KindProtocol, uint64(ps.rank), "peer.down")
			p.peersDown.Add(1)
			n += p.failPeer(ps)
		}
		n++
	}
	return n
}

// sweepDeadlines converts ops past their deadline — backend ops and
// rendezvous sends awaiting their FIN alike — into ErrTimeout error
// completions.
func (p *Photon) sweepDeadlines(now int64) int {
	p.faultScratch = p.tok.sweepExpired(now, p.faultScratch[:0])
	for i := range p.faultScratch {
		p.completeFailed(&p.faultScratch[i], errOpTimeout)
		p.opsTimedOut.Add(1)
		p.faultScratch[i] = pendingOp{}
	}
	return len(p.faultScratch)
}

// failPeer fails everything in flight toward a peer that has been
// declared down: its pending tokens (rendezvous sends included) and
// the parked deferred queues.
func (p *Photon) failPeer(ps *peerState) int {
	err := fmt.Errorf("photon: rank %d: %w", ps.rank, ErrPeerDown)
	p.faultScratch = p.tok.sweepRank(ps.rank, p.faultScratch[:0])
	n := len(p.faultScratch)
	for i := range p.faultScratch {
		p.completeFailed(&p.faultScratch[i], err)
		p.faultScratch[i] = pendingOp{}
	}
	n += p.failDeferred(ps, err)
	return n
}

// failAllInflight is the Close drain: every pending token (rendezvous
// sends included) and every peer's deferred queues complete with
// ErrClosed. Caller holds the engine mutex with p.closed already set,
// so no new work can be posted concurrently and the engine is
// quiescent.
func (p *Photon) failAllInflight() {
	err := fmt.Errorf("photon: instance closed: %w", ErrClosed)
	p.faultScratch = p.tok.sweepAll(p.faultScratch[:0])
	for i := range p.faultScratch {
		p.completeFailed(&p.faultScratch[i], err)
		p.faultScratch[i] = pendingOp{}
	}
	for _, ps := range p.peers {
		p.failDeferred(ps, err)
	}
}

// failDeferred drops a peer's parked queues, failing the signaled
// wire ops among them. Parked writes never reached the backend, so
// their pooled scratch is recycled here (unlike token-swept ops).
func (p *Photon) failDeferred(ps *peerState, err error) int {
	ps.mu.Lock()
	dropped := ps.pendingEntry.Len() + ps.pendingRTS.Len()
	ps.pendingEntry = mem.Queue[entryOp]{}
	ps.pendingRTS = mem.Queue[rtsOp]{}
	ps.mu.Unlock()
	ps.deferred.Add(-int64(dropped))
	p.eng.parked.Add(-int64(dropped))
	return dropped + p.failDeferredWire(ps, err)
}

// failDeferredWire drops only the parked wire queue (retryDeferred's
// hard-error path; entry/RTS queues stay parked — they are retried via
// reserve, which fails soft).
func (p *Photon) failDeferredWire(ps *peerState, err error) int {
	ps.mu.Lock()
	wire := ps.pendingWire
	ps.pendingWire = mem.Queue[wireOp]{}
	ps.mu.Unlock()
	n := wire.Len()
	ps.deferred.Add(-int64(n))
	p.eng.parked.Add(-int64(n))
	for w, ok := wire.PopFront(); ok; w, ok = wire.PopFront() {
		p.failWire(&w, err)
	}
	return n
}

// failWire fails one wire op that never reached the transport.
func (p *Photon) failWire(w *wireOp, err error) {
	if w.signaled {
		if op, ok := p.takeToken(w.token); ok {
			p.completeFailed(&op, err)
		}
	}
	if w.pooled {
		p.pool.Put(w.local)
	}
	w.local = nil
}

// completeFailed surfaces one failed op as an error completion. Result
// buffers and slab blocks are intentionally leaked (see the ownership
// note at the top of this file).
func (p *Photon) completeFailed(op *pendingOp, err error) {
	switch {
	case op.kind == opRdzvGet:
		// Target-side staging read: the waiter is whoever waits for
		// the message delivery, keyed by the initiator's remote RID.
		p.pushRemote(Completion{Rank: op.rank, RID: op.remoteRID, Err: err, traced: op.traced})
		return
	case op.kind == opRdzvSend:
		// The target may no longer read the send's buffer once the
		// send has been reported failed.
		_ = p.be.Deregister(op.rb)
		p.traceEv(trace.KindComplete, op.rid, "rdzv.fail")
	case op.postNS != 0:
		p.traceEv(trace.KindComplete, op.rid, "fault.fail")
	}
	p.pushLocal(Completion{Rank: op.rank, RID: op.rid, Err: err, traced: op.postNS != 0})
}

// peerDown reports whether the engine has latched a peer down; op
// fast paths fail fast on it (one atomic load).
//
//photon:hotpath
func (p *Photon) peerDown(rank int) bool {
	return PeerHealth(p.peers[rank].health.Load()) == PeerDown
}

// PeerHealthState returns the engine's view of a peer's liveness. It
// is PeerHealthy for backends without a failure detector (or when
// Config.HeartbeatInterval is zero) unless the peer was latched down.
func (p *Photon) PeerHealthState(rank int) PeerHealth {
	if rank < 0 || rank >= p.size {
		return PeerDown
	}
	return PeerHealth(p.peers[rank].health.Load())
}

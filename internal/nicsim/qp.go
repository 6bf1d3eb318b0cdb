package nicsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"photon/internal/fabric"
	"photon/internal/mem"
)

// SendWR is a send-side work request. The fields used depend on Op:
//
//	OpSend:            Local (payload)
//	OpRDMAWrite:       Local (payload), RemoteAddr, RKey
//	OpRDMARead:        Local (destination), RemoteAddr, RKey
//	OpAtomicFetchAdd:  Local (8-byte result), RemoteAddr, RKey, Add
//	OpAtomicCompSwap:  Local (8-byte result), RemoteAddr, RKey, Compare, Swap
//
// Signaled selects whether a CQE is generated on the send CQ when the
// request completes; errors always generate a CQE.
type SendWR struct {
	WRID       uint64
	Op         Opcode
	Local      []byte
	RemoteAddr uint64
	RKey       uint32
	Signaled   bool
	Add        uint64
	Compare    uint64
	Swap       uint64
}

// RecvWR is a receive-side work request: a buffer for one incoming SEND.
type RecvWR struct {
	WRID uint64
	Buf  []byte
}

// pendingRecvLimit bounds SENDs queued while no receive buffer is posted
// (infinite-RNR-retry emulation); past it the responder NAKs with
// StatusRNRExceeded.
const pendingRecvLimit = 1024

type qpState uint8

const (
	qpReset qpState = iota
	qpRTS
	qpError
	qpClosed
)

// wqe is an in-flight send work request. The wire frame is encoded at
// post time (see PostSend), so payload-carrying requests do not retain
// the caller's Local buffer; byteLen preserves the payload length for
// the CQE after Local is dropped.
type wqe struct {
	wr      SendWR
	byteLen int
}

// wqePool recycles send work-queue entries. A post refused for a full
// link returns its wqe at once; every accepted one terminates in
// completeSend exactly once (local transmit failure or response match),
// which returns it here. Wire frames recycle through
// mem.GetFrame/PutFrame on the same lifecycle.
var wqePool = sync.Pool{New: func() any { return new(wqe) }}

func wqeGet() *wqe {
	return wqePool.Get().(*wqe)
}

func wqePut(w *wqe) {
	*w = wqe{}
	wqePool.Put(w)
}

// inbound is a SEND awaiting a posted receive buffer (infinite
// RNR-retry emulation).
type inbound struct {
	h       header
	payload []byte
	srcNode int
}

// QP is a reliable connected queue pair.
type QP struct {
	nic    *NIC
	qpn    uint32
	sendCQ *CQ
	recvCQ *CQ

	//photon:lock qp 40
	mu          sync.Mutex
	state       qpState
	remoteNode  int
	remoteQPN   uint32
	nextPSN     uint64
	pending     map[uint64]*wqe
	rq          mem.Queue[RecvWR]
	pendingRecv mem.Queue[inbound]
}

// CreateQP creates a queue pair bound to the given completion queues.
// The QP must be connected with Connect before posting sends.
func (n *NIC) CreateQP(sendCQ, recvCQ *CQ) (*QP, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if sendCQ == nil || recvCQ == nil {
		return nil, fmt.Errorf("%w: nil CQ", ErrBadWR)
	}
	var qp *QP
	n.updateQPs(func(qps []*QP) []*QP {
		qp = &QP{
			nic:     n,
			qpn:     uint32(len(qps) + 1),
			sendCQ:  sendCQ,
			recvCQ:  recvCQ,
			pending: make(map[uint64]*wqe),
		}
		return append(qps, qp)
	})
	return qp, nil
}

// updateQPs publishes fn's edit of a copy of the QP table.
func (n *NIC) updateQPs(fn func([]*QP) []*QP) {
	for {
		old := n.qps.Load()
		var cur []*QP
		if old != nil {
			cur = *old
		}
		next := fn(append([]*QP(nil), cur...))
		if n.qps.CompareAndSwap(old, &next) {
			return
		}
	}
}

// lookupQP returns the live QP numbered qpn, or nil.
func (n *NIC) lookupQP(qpn uint32) *QP {
	if qps := n.qps.Load(); qps != nil && qpn-1 < uint32(len(*qps)) {
		return (*qps)[qpn-1]
	}
	return nil
}

// QPN returns the queue pair number, unique per NIC.
func (qp *QP) QPN() uint32 { return qp.qpn }

// Connect transitions the QP to ready-to-send, bound to the remote
// node's QP. Both sides must connect (to each other) before traffic
// flows; the address exchange itself is out of band, as in verbs.
func (qp *QP) Connect(remoteNode int, remoteQPN uint32) error {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.state == qpClosed || qp.state == qpError {
		return ErrQPState
	}
	qp.remoteNode = remoteNode
	qp.remoteQPN = remoteQPN
	qp.state = qpRTS
	return nil
}

// RemoteNode returns the connected peer node, or -1 if unconnected.
func (qp *QP) RemoteNode() int {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	if qp.state != qpRTS {
		return -1
	}
	return qp.remoteNode
}

// Errored reports whether the QP is in the error state.
func (qp *QP) Errored() bool {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return qp.state == qpError
}

// PostSend posts a send work request and puts its frame onto the
// fabric on the caller's goroutine; no goroutine stands between the
// doorbell and the wire. On a drained zero-delay link the fabric runs
// the responder on this goroutine too, and then its ACK or response,
// so a request may complete — its CQE queued, a READ's or atomic's
// Local filled — before PostSend returns (see the package comment).
// It never blocks: the responder only tries its locks on this
// goroutine, and when SQDepth requests are already outstanding, or
// the link toward the peer has no room, PostSend returns ErrSQFull,
// and the caller is expected to reap completions and retry (Photon's
// progress engine does exactly that under ledger backpressure). One
// goroutine's posts reach the wire in call order; concurrent posters'
// posts interleave as their calls do.
//
// The wire frame — including any payload — is encoded here, before
// PostSend returns, mirroring a real NIC's DMA-at-doorbell model
// closely enough for middleware purposes: the caller may reuse the
// Local buffer of a SEND/WRITE as soon as PostSend returns. READ and
// atomic requests still retain Local (the result destination) until
// completion. The PSN is also assigned here, and the request enters
// the pending map before its frame exists. A post refused for a full
// link leaves a PSN hole, and concurrent posters may put PSNs on the
// wire out of order; both are harmless, because responders echo the
// PSN and the initiator matches responses through the pending map
// rather than by sequence. A frame the fabric refuses for any other
// reason completes the request with StatusLocalError and moves the QP
// to the error state.
func (qp *QP) PostSend(wr SendWR) error {
	if err := qp.validateSend(&wr); err != nil {
		return err
	}
	qp.mu.Lock()
	if qp.state != qpRTS {
		qp.mu.Unlock()
		return ErrQPState
	}
	if len(qp.pending) >= qp.nic.cfg.SQDepth {
		qp.mu.Unlock()
		return ErrSQFull
	}
	psn := qp.nextPSN
	qp.nextPSN++
	w := wqeGet()
	w.wr, w.byteLen = wr, len(wr.Local)
	if wr.Op == OpSend || wr.Op == OpRDMAWrite {
		w.wr.Local = nil // the frame carries the payload
	}
	qp.pending[psn] = w
	dstNode, dstQPN := qp.remoteNode, qp.remoteQPN
	qp.mu.Unlock()

	// w belongs to the response path from here on: once the frame is
	// on the link, its answer may complete and recycle w at any time.
	h := header{srcQPN: qp.qpn, dstQPN: dstQPN, psn: psn}
	var frame []byte
	switch wr.Op {
	case OpSend:
		h.typ = fSend
		frame = encodeSend(h, wr.Local)
	case OpRDMAWrite:
		h.typ = fWrite
		frame = encodeWrite(h, wr.RemoteAddr, wr.RKey, wr.Local)
	case OpRDMARead:
		h.typ = fRead
		frame = encodeRead(h, wr.RemoteAddr, wr.RKey, len(wr.Local))
	case OpAtomicFetchAdd:
		h.typ = fAtomic
		frame = encodeAtomic(h, atomicFAdd, wr.RemoteAddr, wr.RKey, wr.Add, 0)
	case OpAtomicCompSwap:
		h.typ = fAtomic
		frame = encodeAtomic(h, atomicCSwap, wr.RemoteAddr, wr.RKey, wr.Swap, wr.Compare)
	}
	// Count before the send: its completion may be queued before
	// TrySend returns.
	c := &qp.nic.counters
	c.sendsPosted.Add(1)
	c.wireFrames.Add(1)
	c.wireBytes.Add(int64(len(frame)))
	err := qp.nic.fab.TrySend(qp.nic.node, dstNode, frame)
	if err == nil {
		return nil
	}
	c.wireFrames.Add(-1)
	c.wireBytes.Add(-int64(len(frame)))
	mem.PutFrame(frame)
	if errors.Is(err, fabric.ErrFull) {
		c.sendsPosted.Add(-1)
		qp.dropPending(psn, StatusOK)
		wqePut(w)
		return ErrSQFull
	}
	qp.dropPending(psn, StatusLocalError)
	qp.completeSend(w, StatusLocalError)
	return nil
}

func (qp *QP) validateSend(wr *SendWR) error {
	switch wr.Op {
	case OpSend:
	case OpRDMAWrite:
		if wr.RemoteAddr == 0 {
			return fmt.Errorf("%w: zero remote address", ErrBadWR)
		}
	case OpRDMARead:
		if wr.RemoteAddr == 0 {
			return fmt.Errorf("%w: zero remote address", ErrBadWR)
		}
		if len(wr.Local) == 0 {
			return fmt.Errorf("%w: read needs a destination buffer", ErrBadWR)
		}
	case OpAtomicFetchAdd, OpAtomicCompSwap:
		if len(wr.Local) < 8 {
			return fmt.Errorf("%w: atomic needs an 8-byte result buffer", ErrBadWR)
		}
		if wr.RemoteAddr%8 != 0 {
			return fmt.Errorf("%w: atomic address must be 8-byte aligned", ErrBadWR)
		}
	default:
		return fmt.Errorf("%w: opcode %v", ErrBadWR, wr.Op)
	}
	return nil
}

// PostRecv posts a receive buffer. Buffers complete in FIFO order as
// SENDs arrive.
func (qp *QP) PostRecv(wr RecvWR) error {
	qp.mu.Lock()
	if qp.state == qpClosed || qp.state == qpError {
		qp.mu.Unlock()
		return ErrQPState
	}
	if qp.rq.Len() >= qp.nic.cfg.RQDepth {
		qp.mu.Unlock()
		return ErrRQFull
	}
	ib, deliver := qp.pendingRecv.PopFront()
	if !deliver {
		qp.rq.PushBack(wr)
	}
	qp.mu.Unlock()
	qp.nic.counters.recvsPosted.Add(1)
	if deliver {
		qp.consumeRecv(wr, ib)
	}
	return nil
}

// dropPending removes a request from the pending map; a request that
// ends with an error status moves the QP to the error state.
func (qp *QP) dropPending(psn uint64, st Status) {
	qp.mu.Lock()
	delete(qp.pending, psn)
	qp.failLocked(st)
	qp.mu.Unlock()
}

// failLocked moves a ready QP to the error state when st is an error.
// qp.mu is held.
func (qp *QP) failLocked(st Status) {
	if st != StatusOK && qp.state == qpRTS {
		qp.state = qpError
	}
}

// completeSend finishes a WQE: errors always produce a CQE; success
// produces one only when the request was signaled. This is the single
// terminal for every accepted WQE (response match or local transmit
// failure), so the WQE returns to its pool here. The caller has taken
// w out of the pending map and, for an error, failed the QP.
func (qp *QP) completeSend(w *wqe, st Status) {
	if st == StatusOK && !w.wr.Signaled {
		wqePut(w)
		return
	}
	qp.nic.counters.completions.Add(1)
	cqe := CQE{
		WRID:    w.wr.WRID,
		Status:  st,
		Op:      w.wr.Op,
		ByteLen: w.byteLen,
		QPN:     qp.qpn,
	}
	wqePut(w)
	qp.sendCQ.push(cqe)
}

// close tears the QP down without completing pending requests: those
// already on the wire never complete.
func (qp *QP) close() {
	qp.mu.Lock()
	qp.state = qpClosed
	qp.mu.Unlock()
}

// Close transitions the QP to the closed state; later posts fail with
// ErrQPState.
func (qp *QP) Close() {
	qp.close()
	qp.nic.updateQPs(func(qps []*QP) []*QP {
		qps[qp.qpn-1] = nil
		return qps
	})
}

// ---------------------------------------------------------------------
// Receive-side processing: NIC frame dispatch.
// ---------------------------------------------------------------------

// onFrame is the fabric delivery handler: it executes remote operations
// against local memory and routes responses/ACKs back to initiators.
// With inline set it runs on the sending goroutine and must not wait:
// each handler only tries its locks, and returns false, before any
// side effect, when one is held elsewhere, so the fabric's delivery
// goroutine offers the frame again with inline clear.
//
// Delivery is the end of a frame's life: every handler either copies
// payload bytes out (posted receives, MR writes, read/atomic results,
// the pendingRecv staging copy) or finishes with them before returning,
// so the buffer goes back to the frame pool once the frame is accepted.
func (n *NIC) onFrame(fr fabric.Frame, inline bool) bool {
	if !n.dispatch(fr, inline) {
		return false
	}
	mem.PutFrame(fr.Data)
	return true
}

// dispatch applies one frame; false means refused (inline only).
func (n *NIC) dispatch(fr fabric.Frame, inline bool) bool {
	if n.closed.Load() {
		return true
	}
	h, body, err := parseHeader(fr.Data)
	if err != nil {
		n.counters.protErrs.Add(1)
		return true
	}
	qp := n.lookupQP(h.dstQPN)
	if qp == nil {
		n.counters.protErrs.Add(1)
		return true
	}
	switch h.typ {
	case fSend:
		return qp.handleInbound(inbound{h: h, payload: body, srcNode: fr.Src}, inline)
	case fWrite:
		return qp.handleWrite(h, body, fr.Src, inline)
	case fRead:
		return qp.handleRead(h, body, fr.Src, inline)
	case fAtomic:
		return qp.handleAtomic(h, body, fr.Src, inline)
	case fAck, fNak:
		st, err := decodeStatus(body)
		if err != nil {
			st = StatusLocalError
		}
		if h.typ == fNak && st == StatusOK {
			st = StatusRemoteAccessError
		}
		return qp.handleResponse(h.psn, st, nil, inline)
	case fReadResp, fAtomicResp:
		return qp.handleResponse(h.psn, StatusOK, body, inline)
	}
	n.counters.protErrs.Add(1)
	return true
}

// respond sends an ACK/NAK or response frame back to the initiator.
func (qp *QP) respond(to int, frame []byte) {
	qp.nic.counters.wireFrames.Add(1)
	qp.nic.counters.wireBytes.Add(int64(len(frame)))
	_ = qp.nic.fab.Send(qp.nic.node, to, frame)
}

// handleInbound delivers a SEND into a posted receive buffer, queueing
// it if none is posted yet. In try mode it refuses (false) when the QP
// lock is held elsewhere.
func (qp *QP) handleInbound(ib inbound, try bool) bool {
	if !qp.mu.TryLock() {
		if try {
			return false
		}
		qp.mu.Lock()
	}
	if qp.state == qpClosed {
		qp.mu.Unlock()
		return true
	}
	wr, ok := qp.rq.PopFront()
	if !ok {
		if qp.pendingRecv.Len() >= pendingRecvLimit {
			qp.mu.Unlock()
			// RNR retries exhausted: NAK the sender.
			h := header{typ: fNak, srcQPN: qp.qpn, dstQPN: ib.h.srcQPN, psn: ib.h.psn}
			qp.respond(ib.srcNode, encodeStatus(h, StatusRNRExceeded))
			return true
		}
		// Copy the payload: the fabric frame buffer is reused by
		// upper layers' lifetimes, and we must hold it until a
		// receive is posted.
		cp := ib
		cp.payload = append([]byte(nil), ib.payload...)
		qp.pendingRecv.PushBack(cp)
		qp.mu.Unlock()
		return true
	}
	qp.mu.Unlock()
	qp.consumeRecv(wr, ib)
	return true
}

// consumeRecv finishes delivery of an inbound SEND into the given
// receive WR and ACKs the initiator.
func (qp *QP) consumeRecv(wr RecvWR, ib inbound) {
	st, byteLen := StatusOK, len(ib.payload)
	if byteLen > len(wr.Buf) {
		st, byteLen = StatusLengthError, 0
	} else {
		copy(wr.Buf, ib.payload)
	}
	qp.nic.counters.recvDelivered.Add(1)
	qp.nic.counters.completions.Add(1)
	qp.recvCQ.push(CQE{
		WRID:    wr.WRID,
		Status:  st,
		Op:      OpRecv,
		ByteLen: byteLen,
		QPN:     qp.qpn,
		SrcQPN:  ib.h.srcQPN,
		SrcNode: ib.srcNode,
	})
	h := header{srcQPN: qp.qpn, dstQPN: ib.h.srcQPN, psn: ib.h.psn}
	if st == StatusOK {
		h.typ = fAck
		qp.respond(ib.srcNode, encodeStatus(h, StatusOK))
	} else {
		h.typ = fNak
		qp.respond(ib.srcNode, encodeStatus(h, st))
	}
}

// handleWrite executes an RDMA WRITE against local registered memory.
// In try mode it refuses (false) when a lock it needs is held elsewhere.
func (qp *QP) handleWrite(h header, body []byte, src int, try bool) bool {
	raddr, rkey, payload, err := decodeWrite(body)
	nak := func(st Status) {
		rh := header{typ: fNak, srcQPN: qp.qpn, dstQPN: h.srcQPN, psn: h.psn}
		qp.respond(src, encodeStatus(rh, st))
	}
	if err != nil {
		qp.nic.counters.protErrs.Add(1)
		nak(StatusLocalError)
		return true
	}
	err = qp.nic.counted(qp.nic.mem.Write(try, raddr, rkey, payload, nil))
	if errors.Is(err, mem.ErrBusy) {
		return false
	}
	if err != nil {
		nak(StatusRemoteAccessError)
		return true
	}
	qp.nic.counters.remoteWrites.Add(1)
	qp.nic.kickWriteHook()
	rh := header{typ: fAck, srcQPN: qp.qpn, dstQPN: h.srcQPN, psn: h.psn}
	qp.respond(src, encodeStatus(rh, StatusOK))
	return true
}

// handleRead executes an RDMA READ against local registered memory.
// In try mode it refuses (false) when a lock it needs is held elsewhere.
func (qp *QP) handleRead(h header, body []byte, src int, try bool) bool {
	raddr, rkey, length, err := decodeRead(body)
	rh := header{srcQPN: qp.qpn, dstQPN: h.srcQPN, psn: h.psn}
	if err != nil {
		rh.typ = fNak
		qp.respond(src, encodeStatus(rh, StatusLocalError))
		return true
	}
	// Encode the response directly into a pooled frame: the MR bytes
	// are copied exactly once, under the read lock, into the buffer
	// that goes on the wire. The frame is sized only once the range
	// has passed the region's bounds check.
	var resp []byte
	err = qp.nic.counted(qp.nic.mem.Access(try, raddr, rkey, length, AccessRemoteRead, func(b []byte) {
		resp = mem.GetFrame(hdrLen + len(b))
		copy(resp[hdrLen:], b)
	}))
	if errors.Is(err, mem.ErrBusy) {
		return false
	}
	if err != nil {
		rh.typ = fNak
		qp.respond(src, encodeStatus(rh, StatusRemoteAccessError))
		return true
	}
	qp.nic.counters.remoteReads.Add(1)
	rh.typ = fReadResp
	putHeader(resp, rh)
	qp.respond(src, resp)
	return true
}

// handleAtomic executes a 64-bit remote atomic against local memory.
// In try mode it refuses (false) when a lock it needs is held elsewhere.
func (qp *QP) handleAtomic(h header, body []byte, src int, try bool) bool {
	kind, raddr, rkey, operand, compare, err := decodeAtomic(body)
	rh := header{srcQPN: qp.qpn, dstQPN: h.srcQPN, psn: h.psn}
	if err != nil || (kind != atomicFAdd && kind != atomicCSwap) {
		rh.typ = fNak
		qp.respond(src, encodeStatus(rh, StatusLocalError))
		return true
	}
	var orig uint64
	if kind == atomicFAdd {
		orig, err = qp.nic.mem.FetchAdd(try, raddr, rkey, operand)
	} else {
		orig, err = qp.nic.mem.CompSwap(try, raddr, rkey, compare, operand)
	}
	if errors.Is(qp.nic.counted(err), mem.ErrBusy) {
		return false
	}
	if err != nil {
		rh.typ = fNak
		qp.respond(src, encodeStatus(rh, StatusRemoteAccessError))
		return true
	}
	qp.nic.counters.remoteAt.Add(1)
	qp.nic.kickWriteHook()
	rh.typ = fAtomicResp
	qp.respond(src, encodeAtomicResp(rh, orig))
	return true
}

// handleResponse matches an ACK/NAK/read/atomic response to its pending
// work request and completes it. In try mode it refuses (false) when
// the QP lock is held elsewhere.
func (qp *QP) handleResponse(psn uint64, st Status, payload []byte, try bool) bool {
	if !qp.mu.TryLock() {
		if try {
			return false
		}
		qp.mu.Lock()
	}
	w, ok := qp.pending[psn]
	var v uint64
	if ok {
		delete(qp.pending, psn)
		if st == StatusOK && (w.wr.Op == OpAtomicFetchAdd || w.wr.Op == OpAtomicCompSwap) {
			var err error
			if v, err = decodeAtomicResp(payload); err != nil {
				st = StatusLocalError
			}
		}
		qp.failLocked(st)
	}
	qp.mu.Unlock()
	if !ok {
		qp.nic.counters.protErrs.Add(1)
		return true
	}
	if st == StatusOK {
		switch w.wr.Op {
		case OpRDMARead:
			copy(w.wr.Local, payload)
		case OpAtomicFetchAdd, OpAtomicCompSwap:
			binary.LittleEndian.PutUint64(w.wr.Local, v)
		}
	}
	qp.completeSend(w, st)
	return true
}

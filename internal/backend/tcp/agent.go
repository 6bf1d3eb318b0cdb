package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"photon/internal/core"
	"photon/internal/mem"
)

// replyFrame is one queued response (or nack) with the cumulative ack
// it carries in its frame header. The stamp is captured at push time —
// the applied-write count from this peer at that moment — so
// a response frame also acknowledges every write applied before the
// operation it answers, which is what keeps cross-kind completions in
// posting order at the initiator.
type replyFrame struct {
	data  []byte
	stamp uint64
	// nackSeq is non-zero when data is a write-failure nack for
	// signaled write #nackSeq; the writer tracks the highest drained
	// value to keep later stamps from overtaking a queued nack.
	nackSeq uint64
}

// replyQueue is the unbounded per-peer response queue. Readers push
// (never blocking) and the writer loop drains it ahead of requests;
// keeping the reader non-blocking breaks the bidirectional-saturation
// deadlock that bounded reply channels would allow.
type replyQueue struct {
	//photon:lock tcpreply 60
	mu   sync.Mutex
	q    mem.Queue[replyFrame]
	wake chan struct{}
}

func newReplyQueue() *replyQueue {
	return &replyQueue{wake: make(chan struct{}, 1)}
}

func (r *replyQueue) push(f replyFrame) {
	r.mu.Lock()
	r.q.PushBack(f)
	r.mu.Unlock()
	r.notify()
}

// notify nudges the writer loop (used by push, and by the reader when
// acks are owed after a socket drain).
func (r *replyQueue) notify() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *replyQueue) pop() (replyFrame, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.q.PopFront()
}

// requeue returns popped frames to the FRONT of the queue in their
// original order: a flush that failed (or whose delivery is unknown
// after the connection was replaced mid-write) re-sends its replies on
// the next connection. Duplicate delivery is safe — acks are
// cumulative, nacks are idempotent at the receiver's window, and a
// re-delivered response resolves to a stale token at the initiator.
func (r *replyQueue) requeue(fs []replyFrame) {
	if len(fs) == 0 {
		return
	}
	r.mu.Lock()
	for i := len(fs) - 1; i >= 0; i-- {
		r.q.PushFront(fs[i])
	}
	r.mu.Unlock()
	r.notify()
}

// Window bounds. Every opWrite is numbered in the cumulative-ack
// sequence space, signaled or not, so a stamp on traffic that already
// flows the other way (credit returns, responses) retires unsignaled
// writes too. A pure one-way stream has no such traffic: its receiver
// forces a standalone ack once ackEvery applied writes are
// unacknowledged, and the writer admits no new request while winMax
// writes are unacknowledged. Together they bound the window, and so
// what a reconnect replays, without a knob.
const (
	ackEvery = 128
	winMax   = 2 * ackEvery
)

// winEntry is one outbound opWrite frame held in the send window. The
// frame bytes themselves are retained (not just the completion token)
// so a reconnect can replay everything the dead connection may have
// lost. Its sequence number is implicit: the window holds writes
// done+1, done+2, ... in order.
type winEntry struct {
	frame    []byte
	tok      uint64
	signaled bool
}

// sendWindow is the per-peer retransmit window: every opWrite frame in
// wire order, trimmed by the peer's cumulative acks. done is the
// highest sequence resolved (acked, nacked or drained), which makes
// every path idempotent — a duplicated ack or a replayed nack after a
// reconnect is a no-op.
type sendWindow struct {
	//photon:lock tcpwin 50
	mu      sync.Mutex
	ents    mem.Queue[winEntry]
	done    uint64 // highest seq resolved
	stalled bool   // the writer found the window full; wake it on retire
	hiwat   int    // deepest the window has been

	// freed is kicked when a retire reopens a window the writer found
	// full (cap 1).
	freed chan struct{}
}

func newSendWindow() *sendWindow {
	return &sendWindow{freed: make(chan struct{}, 1)}
}

// add appends a frame in wire order (called while building a flush,
// before the bytes hit the wire, so the peer's ack can never race it)
// and reports whether the window is now full.
func (w *sendWindow) add(frame []byte, tok uint64, signaled bool) (full bool) {
	w.mu.Lock()
	w.ents.PushBack(winEntry{frame: frame, tok: tok, signaled: signaled})
	d := w.ents.Len()
	if d > w.hiwat {
		w.hiwat = d
	}
	w.mu.Unlock()
	return d >= winMax
}

// room reports whether the writer may admit another request. A full
// window marks itself stalled, so the retire that reopens it kicks
// freed.
func (w *sendWindow) room() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ents.Len() < winMax {
		return true
	}
	w.stalled = true
	return false
}

// retire pops the n oldest entries, appending the tokens of the
// signaled ones to dst and recycling their frames: an acked or nacked
// frame is never replayed, and the writer copied its bytes into a
// flush before the peer could see it. Caller holds w.mu.
func (w *sendWindow) retire(n int, dst []uint64) []uint64 {
	for i := 0; i < n; i++ {
		e, _ := w.ents.PopFront()
		if e.signaled {
			dst = append(dst, e.tok)
		}
		mem.PutFrame(e.frame)
	}
	w.done += uint64(n)
	if w.stalled && w.ents.Len() < winMax {
		w.stalled = false
		nudge(w.freed)
	}
	return dst
}

// ackTo resolves writes 1..k: every entry through seq k leaves the
// window, and the tokens of the signaled ones are appended to dst.
// k <= done is a no-op, so duplicate and handshake acks are safe.
func (w *sendWindow) ackTo(k uint64, dst []uint64) []uint64 {
	w.mu.Lock()
	if k > w.done {
		n := w.ents.Len()
		if k-w.done < uint64(n) {
			n = int(k - w.done)
		}
		dst = w.retire(n, dst)
	}
	w.mu.Unlock()
	return dst
}

// takeNack resolves write #seq as failed, returning its token. The
// caller acked 1..seq-1 first, so #seq is the head. A replayed nack
// (seq already resolved) is a no-op.
func (w *sendWindow) takeNack(seq uint64) (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq != w.done+1 || w.ents.Len() == 0 || !w.ents.At(0).signaled {
		return 0, false
	}
	var tok [1]uint64
	w.retire(1, tok[:0])
	return tok[0], true
}

// pending snapshots the retained frames in wire order (retransmit
// after a reconnect).
func (w *sendWindow) pending(dst []winEntry) []winEntry {
	w.mu.Lock()
	for i := 0; i < w.ents.Len(); i++ {
		dst = append(dst, w.ents.At(i))
	}
	w.mu.Unlock()
	return dst
}

// drainAll empties the window, returning the tokens of unresolved
// signaled writes (peer declared down: fail them all). Its frames are
// left to the GC, not recycled: the writer may still be copying them
// into a flush toward the dead connection.
func (w *sendWindow) drainAll(dst []uint64) []uint64 {
	w.mu.Lock()
	for e, ok := w.ents.PopFront(); ok; e, ok = w.ents.PopFront() {
		if e.signaled {
			dst = append(dst, e.tok)
		}
		w.done++
	}
	w.mu.Unlock()
	return dst
}

// peak reports the deepest the window has been.
func (w *sendWindow) peak() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hiwat
}

// safeStamp computes the cumulative ack a request or standalone-ack
// frame toward peer may carry. The plain answer is recvSeqW (writes
// applied from peer), but a stamp must never overtake a queued
// nack: if write #k failed, a data frame stamped >= k that passes the
// nack on the wire would complete #k as OK at the initiator. The
// writer passes the highest nack seq it has already drained into a
// flush; while any nack is still queued we fall back to that drained
// bound (under-acking is always safe — the real stamp follows once the
// nack drains).
//
// Load order matters: recvSeqW first, then lastNack. The reader
// advances them in the opposite order (push nack, store lastNack,
// then advance recvSeqW), so a stamp that sees the new recvSeqW is
// guaranteed to also see the nack that precedes it.
func (b *Backend) safeStamp(peer int, drainedNack uint64) uint64 {
	applied := b.recvSeqW[peer].Load()
	if ln := b.lastNack[peer].Load(); ln != drainedNack {
		return drainedNack
	}
	return applied
}

// writerState is the cross-connection writer context: drainedNack and
// a popped-but-unwritten request item both survive a reconnect (the
// item must go out, in order, on the next connection).
type writerState struct {
	drainedNack uint64
	pending     outItem
	hasPending  bool
}

// writer owns a peer's outbound side for the life of the backend: it
// waits for a connection, replays the unacknowledged window after a
// reconnect, and runs the gather/flush loop until the connection dies
// or is replaced. A peer declared down turns the writer into a drain
// that fails whatever is still queued toward it. For the self rank it
// applies requests locally instead.
func (b *Backend) writer(peer int) {
	defer b.sendWG.Done()
	if peer == b.rank {
		b.loopbackWriter()
		return
	}
	var (
		lk   = b.links[peer]
		rq   = b.replyQueueFor(peer)
		win  = b.windows[peer]
		ws   writerState
		retx []winEntry
	)
	for {
		conn, gen, needRetx, conveyed, ok := lk.awaitConn(b)
		if !ok {
			if lk.down.Load() && !b.isClosed() {
				b.drainDown(peer, lk, rq, &ws)
			}
			return
		}
		if needRetx {
			retx = win.pending(retx[:0])
			if len(retx) > 0 && !b.retransmit(conn, peer, gen, retx) {
				continue
			}
		}
		if !b.writeLoop(peer, lk, conn, gen, rq, win, conveyed, &ws) {
			return
		}
	}
}

// retransmit replays the unacknowledged window after a reconnect, in
// original wire order, stamped 0 ("no ack information") so a replayed
// frame can never overtake a queued nack. The window was trimmed to the
// peer's reported applied count at install, and every write, signaled
// or not, is in that count, so each write is applied exactly once.
func (b *Backend) retransmit(conn net.Conn, peer int, gen uint64, ents []winEntry) bool {
	st := &b.cstats[peer]
	flush := make([]byte, 0, flushBytes+frameHdrLen)
	frames := 0
	emit := func() bool {
		if len(flush) == 0 {
			return true
		}
		n := len(flush)
		if _, err := conn.Write(flush); err != nil {
			b.lostConn(peer, gen, err)
			return false
		}
		st.flushes.Add(1)
		st.framesOut.Add(int64(frames))
		st.bytesOut.Add(int64(n))
		flush = flush[:0]
		frames = 0
		return true
	}
	for i := range ents {
		e := &ents[i]
		var hdr [frameHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(e.frame)))
		flush = append(flush, hdr[:]...)
		flush = append(flush, e.frame...)
		frames++
		st.retxFrames.Add(1)
		if len(flush) >= flushBytes {
			if !emit() {
				return false
			}
		}
	}
	if !emit() {
		return false
	}
	b.links[peer].lastTx.Store(nowNano())
	return true
}

// writeLoop drains a peer's request channel and reply queue into a
// gather buffer and flushes it with one Write: a burst of frames costs
// one syscall instead of one each. It flushes immediately when the
// queues run dry — latency never waits on a timer — and keeps filling
// up to flushBytes while more work is queued. It returns false when
// the backend closed (the writer exits) and true when the connection
// died or was replaced (the writer re-enters awaitConn).
func (b *Backend) writeLoop(peer int, lk *link, conn net.Conn, gen uint64, rq *replyQueue, win *sendWindow, conveyed uint64, ws *writerState) bool {
	var (
		st       = &b.cstats[peer]
		flush    = make([]byte, 0, flushBytes+frameHdrLen)
		maxStamp uint64
		respToks []uint64
		popped   []replyFrame // replies in the flush being built (requeued on loss)
		full     = true       // the window may be full: check before admitting
	)
	b.ackSent[peer].Store(conveyed)

	appendFrame := func(body []byte, stamp uint64) {
		var hdr [frameHdrLen]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
		binary.LittleEndian.PutUint64(hdr[4:], stamp)
		flush = append(flush, hdr[:]...)
		flush = append(flush, body...)
		if stamp > maxStamp {
			maxStamp = stamp
		}
	}
	// appendReq stages one request frame: every opWrite enters the send
	// window (before the flush is written, so the peer's ack can never
	// beat the append); response-keyed ops are remembered so a dead
	// connection can fail them (they are never replayed).
	appendReq := func(f outFrame, stamp uint64) {
		if len(f.data) > 0 && f.data[0] == opWrite {
			full = win.add(f.data, f.token, f.signaled)
		} else if f.signaled {
			respToks = append(respToks, f.token)
		}
		appendFrame(f.data, stamp)
	}

	for {
		if lk.genA.Load() != gen {
			return true // replaced: the new connection's retransmit covers the window
		}
		frames, reqFrames := 0, 0
		soloAck := false
		maxStamp = 0
		popped = popped[:0]
		// Replies first: they unblock the peer, and FIFO order keeps a
		// nack ahead of any later response whose stamp covers it.
		for len(flush) < flushBytes {
			rf, ok := rq.pop()
			if !ok {
				break
			}
			if rf.nackSeq > ws.drainedNack {
				ws.drainedNack = rf.nackSeq
			}
			popped = append(popped, rf)
			appendFrame(rf.data, rf.stamp)
			frames++
		}
		// One stamp covers every request frame in this flush.
		stamp := b.safeStamp(peer, ws.drainedNack)
		for len(flush) < flushBytes {
			var it outItem
			if ws.hasPending {
				it, ws.hasPending = ws.pending, false
				ws.pending = outItem{}
			} else {
				// A full window admits nothing until an ack retires
				// part of it; replies and acks above still flow.
				if full {
					if full = !win.room(); full {
						break
					}
				}
				select {
				case it = <-b.outs[peer]:
				default:
				}
				if it.many == nil && it.one.data == nil {
					break
				}
			}
			if it.many != nil {
				for _, f := range it.many {
					appendReq(f, stamp)
					frames++
					reqFrames++
				}
			} else {
				appendReq(it.one, stamp)
				frames++
				reqFrames++
			}
		}
		if reqFrames > 0 && stamp > maxStamp {
			maxStamp = stamp
		}
		// Standalone cumulative ack: no frame above carries the fresh
		// stamp, and either replies are flushing anyway (12 bytes on
		// the same syscall) or the reader marked an ack owed — a
		// signaled write, or ackEvery writes gone unacknowledged.
		owed := b.ackDue[peer].Load() > conveyed
		if stamp > conveyed && stamp > maxStamp && reqFrames == 0 && (frames > 0 || owed) {
			appendFrame(nil, stamp)
			frames++
			soloAck = true
			st.ackFrames.Add(1)
		}
		if frames == 0 {
			// Idle: flush buffer is empty; block until work arrives
			// (requests only while the window has room).
			var reqs chan outItem
			if !full {
				reqs = b.outs[peer]
			}
			select {
			case <-b.closed:
				return false
			case <-lk.reconn: // conn replaced or link down
				continue
			case <-rq.wake:
			case <-win.freed:
			case it := <-reqs:
				ws.pending, ws.hasPending = it, true
			}
			continue
		}
		if maxStamp > conveyed {
			adv := maxStamp - conveyed
			if soloAck && frames == 1 {
				st.acksSolo.Add(int64(adv))
			} else {
				st.acksPiggy.Add(int64(adv))
			}
			conveyed = maxStamp
			b.ackSent[peer].Store(conveyed)
		}
		if len(respToks) > 0 {
			// Registered before the Write: if the flush fails (or its
			// delivery is unknown), these non-idempotent ops must fail.
			b.markSentResp(peer, respToks)
			respToks = respToks[:0]
		}
		n := len(flush)
		if _, err := conn.Write(flush); err != nil {
			rq.requeue(popped)
			b.lostConn(peer, gen, fmt.Errorf("tcp: connection to rank %d lost: %w", peer, err))
			return true
		}
		lk.lastTx.Store(nowNano())
		if lk.genA.Load() != gen {
			// Replaced mid-write: delivery of this flush is unknown.
			// Window frames are covered by the new connection's
			// retransmit; replies are re-sent (duplicates are safe).
			rq.requeue(popped)
			return true
		}
		st.flushes.Add(1)
		st.framesOut.Add(int64(frames))
		st.bytesOut.Add(int64(n))
		flush = flush[:0]
		// An oversized frame (rendezvous payload beyond the cap) may
		// have grown the buffer; don't pin that memory forever.
		if cap(flush) > 4*(flushBytes+frameHdrLen) {
			flush = make([]byte, 0, flushBytes+frameHdrLen)
		}
	}
}

// drainDown is the writer's terminal mode for a down peer: keep
// consuming the request channel (so posters racing the down latch
// never wedge) and fail everything with the peer's down error.
func (b *Backend) drainDown(peer int, lk *link, rq *replyQueue, ws *writerState) {
	lk.mu.Lock()
	err := lk.downErr
	lk.mu.Unlock()
	if err == nil {
		err = fmt.Errorf("tcp: rank %d: %w", peer, core.ErrPeerDown)
	}
	// Writes added after markDown drained the window fail here.
	for _, tok := range b.windows[peer].drainAll(nil) {
		b.compq.Push(core.BackendCompletion{Token: tok, OK: false, Err: err})
	}
	if ws.hasPending {
		b.failItem(ws.pending, err)
		ws.pending, ws.hasPending = outItem{}, false
	}
	for {
		for {
			if _, ok := rq.pop(); !ok {
				break
			}
		}
		select {
		case <-b.closed:
			return
		case it := <-b.outs[peer]:
			b.failItem(it, err)
		case <-rq.wake:
		}
	}
}

// failItem fails the completion-bearing frames of one queued item that
// will never reach the wire.
func (b *Backend) failItem(it outItem, err error) {
	fail1 := func(f outFrame) {
		if !f.signaled || len(f.data) == 0 {
			return
		}
		if f.data[0] != opWrite {
			// Response-keyed: release the parked result buffer.
			b.pendMu.Lock()
			_, ok := b.pendBuf[f.token]
			delete(b.pendBuf, f.token)
			b.pendMu.Unlock()
			if !ok {
				return // already failed via failPend
			}
		}
		b.compq.Push(core.BackendCompletion{Token: f.token, OK: false, Err: err})
	}
	if it.many != nil {
		for _, f := range it.many {
			fail1(f)
		}
	} else {
		fail1(it.one)
	}
}

// loopbackWriter applies self-rank requests directly: no wire, no seq
// accounting — signaled writes complete inline in handleFrame, after
// which a write frame is spent and goes back to the pool.
func (b *Backend) loopbackWriter() {
	apply := func(f outFrame) {
		b.handleFrame(b.rank, f.data)
		if f.data[0] == opWrite {
			mem.PutFrame(f.data)
		}
	}
	for {
		select {
		case <-b.closed:
			return
		case it := <-b.outs[b.rank]:
			if it.many != nil {
				for _, f := range it.many {
					apply(f)
				}
			} else {
				apply(it.one)
			}
		}
	}
}

// replyQueueFor returns (building lazily) the reply queue toward peer.
func (b *Backend) replyQueueFor(peer int) *replyQueue {
	b.outMu.Lock()
	defer b.outMu.Unlock()
	if b.replyQs == nil {
		b.replyQs = make([]*replyQueue, b.size)
	}
	if b.replyQs[peer] == nil {
		b.replyQs[peer] = newReplyQueue()
	}
	return b.replyQs[peer]
}

// countingConn wraps a connection to count read syscalls and bytes.
type countingConn struct {
	net.Conn
	calls, bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// reader runs one connection generation's receive side and, when the
// stream dies, reports the loss (after readerDone closes — the
// recovery path waits on it so the applied-write count is final
// before any new handshake).
func (b *Backend) reader(peer int, conn net.Conn, gen uint64, done chan struct{}) {
	err := b.readLoop(peer, conn)
	close(done)
	b.lostConn(peer, gen, err)
}

// readLoop consumes frames arriving from peer through a buffered
// reader sized to the peer's flush cap, so a coalesced flush is pulled
// from the kernel in one syscall and then parsed from memory. Each
// frame's header cumAck is processed before its body (the ack covers
// writes that precede this frame on the peer's stream). When the
// socket drains with an ack owed (handleFrame), the reader nudges the
// writer so a standalone cumulative ack goes out — one ack frame per
// drained burst, not per op.
func (b *Backend) readLoop(peer int, conn net.Conn) error {
	st := &b.cstats[peer]
	lk := b.links[peer]
	br := bufio.NewReaderSize(&countingConn{Conn: conn, calls: &st.readCalls, bytes: &st.bytesIn}, flushBytes)
	rq := b.replyQueueFor(peer)
	var (
		hdr     [frameHdrLen]byte
		body    []byte
		scratch []uint64
		ackOwed bool
	)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		if b.hbNS.Load() != 0 {
			lk.lastRx.Store(nowNano())
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n > maxFrameLen {
			return fmt.Errorf("tcp: absurd frame length %d from rank %d", n, peer)
		}
		if cum := binary.LittleEndian.Uint64(hdr[4:]); cum > 0 {
			scratch = b.applyCumAck(peer, cum, scratch[:0])
		}
		st.framesIn.Add(1)
		if n > 0 {
			// The body buffer is reused across frames: handleFrame
			// copies anything it keeps (payloads into registrations,
			// responses into pending buffers, exchange blobs).
			if cap(body) < int(n) {
				body = make([]byte, n)
			}
			f := body[:n]
			if _, err := io.ReadFull(br, f); err != nil {
				return err
			}
			if b.handleFrame(peer, f) {
				ackOwed = true
			}
		}
		if ackOwed && br.Buffered() == 0 {
			ackOwed = false
			rq.notify()
		}
	}
}

// applyCumAck retires writes 1..k toward peer, completing the signaled
// ones in order.
func (b *Backend) applyCumAck(peer int, k uint64, scratch []uint64) []uint64 {
	scratch = b.windows[peer].ackTo(k, scratch)
	for _, tok := range scratch {
		b.compq.Push(core.BackendCompletion{Token: tok, OK: true})
	}
	if len(scratch) > 0 {
		b.cstats[peer].signaledAcked.Add(int64(len(scratch)))
	}
	return scratch
}

// applyNack retires writes 1..seq-1 as OK and completes signaled write
// #seq with an error. The nack's own header stamp is seq-1, and reply-queue FIFO
// order guarantees no later stamp covering seq was processed first.
// Both steps are idempotent, so a nack replayed across a reconnect is
// a no-op.
func (b *Backend) applyNack(peer int, seq uint64, scratch []uint64) []uint64 {
	scratch = b.applyCumAck(peer, seq-1, scratch)
	if tok, ok := b.windows[peer].takeNack(seq); ok {
		b.compq.Push(core.BackendCompletion{Token: tok, OK: false, Err: fmt.Errorf("tcp: remote write failed")})
	}
	return scratch
}

// Fixed-part body lengths checked by decodeFrame before field
// extraction; a frame shorter than its opcode's fixed part is corrupt
// and dropped. Encoders build bodies to the same layouts.
const (
	writeBodyMin      = 26 // op1 | token8 | sig1 | raddr8 | rkey4 | n4; payload follows
	readBodyLen       = 25 // op1 | token8 | raddr8 | rkey4 | n4
	nackBodyMin       = 9  // op1 | seq8
	readRespBodyMin   = 10 // op1 | token8 | failed1; payload follows
	atomicRespBodyLen = 18 // op1 | token8 | failed1 | value8
	fAddBodyMin       = 29 // op1 | token8 | raddr8 | rkey4 | operand8
	cSwapBodyMin      = 37 // fAddBodyMin + swap8
)

// frame is one decoded inbound body. Which fields are set depends on
// op; payload aliases the decoded body.
type frame struct {
	op       byte
	token    uint64   // requests and responses
	signaled bool     // opWrite
	failed   bool     // opReadResp, opAtomicResp
	raddr    uint64   // requests
	rkey     uint32   // requests
	n        int      // opRead: bytes asked for
	operand  uint64   // opFAdd addend, opCSwap compare
	swap     uint64   // opCSwap
	seq      uint64   // opNack: the failed signaled write
	value    uint64   // opAtomicResp
	hb       [3]int64 // opHeartbeat: tx, echoed tx, echoed rx (see hbBodyLen)
	payload  []byte   // opWrite and opReadResp data, opExg and opExgResp body
}

// decodeFrame parses an inbound frame body against its opcode's layout.
// ok is false for an empty body, an unknown opcode, a body shorter
// than its opcode's fixed part, a flag byte other than 0 or 1, and a
// write whose length field disagrees with its payload. Bytes past a
// fixed-size body are ignored. Decoding never allocates.
func decodeFrame(f []byte) (fr frame, ok bool) {
	if len(f) == 0 {
		return fr, false
	}
	fr.op = f[0]
	le := binary.LittleEndian
	switch fr.op {
	case opWrite:
		if len(f) < writeBodyMin {
			return fr, false
		}
		fr.token = le.Uint64(f[1:])
		fr.signaled, ok = flagByte(f[9])
		fr.raddr = le.Uint64(f[10:])
		fr.rkey = le.Uint32(f[18:])
		fr.payload = f[writeBodyMin:]
		return fr, ok && int(le.Uint32(f[22:])) == len(fr.payload)
	case opRead:
		if len(f) < readBodyLen {
			return fr, false
		}
		fr.token = le.Uint64(f[1:])
		fr.raddr = le.Uint64(f[9:])
		fr.rkey = le.Uint32(f[17:])
		fr.n = int(le.Uint32(f[21:]))
	case opFAdd, opCSwap:
		if len(f) < fAddBodyMin || fr.op == opCSwap && len(f) < cSwapBodyMin {
			return fr, false
		}
		fr.token = le.Uint64(f[1:])
		fr.raddr = le.Uint64(f[9:])
		fr.rkey = le.Uint32(f[17:])
		fr.operand = le.Uint64(f[21:])
		if fr.op == opCSwap {
			fr.swap = le.Uint64(f[29:])
		}
	case opNack:
		if len(f) < nackBodyMin {
			return fr, false
		}
		fr.seq = le.Uint64(f[1:])
	case opReadResp:
		if len(f) < readRespBodyMin {
			return fr, false
		}
		fr.token = le.Uint64(f[1:])
		if fr.failed, ok = flagByte(f[9]); !fr.failed {
			fr.payload = f[readRespBodyMin:]
		}
		return fr, ok
	case opAtomicResp:
		if len(f) < atomicRespBodyLen {
			return fr, false
		}
		fr.token = le.Uint64(f[1:])
		fr.failed, ok = flagByte(f[9])
		fr.value = le.Uint64(f[10:])
		return fr, ok
	case opExg, opExgResp:
		fr.payload = f[1:]
	case opHeartbeat:
		if len(f) < hbBodyLen {
			return fr, false
		}
		for i := range fr.hb {
			fr.hb[i] = int64(le.Uint64(f[1+8*i:]))
		}
	default:
		return fr, false
	}
	return fr, true
}

// flagByte decodes a 0/1 flag byte; ok is false for any other value.
func flagByte(b byte) (set, ok bool) { return b == 1, b <= 1 }

// encodeRead builds an opRead request body.
func encodeRead(token, raddr uint64, rkey uint32, n int) []byte {
	f := make([]byte, readBodyLen)
	f[0] = opRead
	binary.LittleEndian.PutUint64(f[1:], token)
	binary.LittleEndian.PutUint64(f[9:], raddr)
	binary.LittleEndian.PutUint32(f[17:], rkey)
	binary.LittleEndian.PutUint32(f[21:], uint32(n))
	return f
}

// encodeAtomic builds an opFAdd (operand is the addend) or opCSwap
// (operand is the compare value) request body.
func encodeAtomic(op byte, token, raddr uint64, rkey uint32, operand, swap uint64) []byte {
	n := fAddBodyMin
	if op == opCSwap {
		n = cSwapBodyMin
	}
	f := make([]byte, n)
	f[0] = op
	binary.LittleEndian.PutUint64(f[1:], token)
	binary.LittleEndian.PutUint64(f[9:], raddr)
	binary.LittleEndian.PutUint32(f[17:], rkey)
	binary.LittleEndian.PutUint64(f[21:], operand)
	if op == opCSwap {
		binary.LittleEndian.PutUint64(f[29:], swap)
	}
	return f
}

// encodeNack builds the opNack body for failed signaled write #seq.
func encodeNack(seq uint64) []byte {
	f := make([]byte, nackBodyMin)
	f[0] = opNack
	binary.LittleEndian.PutUint64(f[1:], seq)
	return f
}

// encodeReadResp builds an opReadResp body carrying data, or a failed
// status and no data.
func encodeReadResp(token uint64, data []byte, failed bool) []byte {
	f := make([]byte, readRespBodyMin+len(data))
	f[0] = opReadResp
	binary.LittleEndian.PutUint64(f[1:], token)
	if failed {
		f[9] = 1
	}
	copy(f[readRespBodyMin:], data)
	return f
}

// encodeAtomicResp builds an opAtomicResp body carrying the original
// value, or a failed status.
func encodeAtomicResp(token, value uint64, failed bool) []byte {
	f := make([]byte, atomicRespBodyLen)
	f[0] = opAtomicResp
	binary.LittleEndian.PutUint64(f[1:], token)
	if failed {
		f[9] = 1
	}
	binary.LittleEndian.PutUint64(f[10:], value)
	return f
}

// encodeHeartbeat builds an opHeartbeat body from its three stamps
// (see hbBodyLen).
func encodeHeartbeat(tx, echoTx, echoRx int64) []byte {
	f := make([]byte, hbBodyLen)
	f[0] = opHeartbeat
	binary.LittleEndian.PutUint64(f[1:], uint64(tx))
	binary.LittleEndian.PutUint64(f[9:], uint64(echoTx))
	binary.LittleEndian.PutUint64(f[17:], uint64(echoRx))
	return f
}

// handleFrame dispatches one inbound frame body (requests are applied
// against local memory; responses complete pending tokens); a body
// decodeFrame rejects is dropped. It returns true when a remote peer is
// owed a standalone cumulative ack: a signaled write was applied, or
// ackEvery writes have been applied since the last ack conveyed. The
// frame buffer is only valid during the call: anything retained must
// be copied.
func (b *Backend) handleFrame(peer int, f []byte) bool {
	fr, ok := decodeFrame(f)
	if !ok {
		return false
	}
	switch fr.op {
	case opWrite:
		err := b.mem.Write(false, fr.raddr, fr.rkey, fr.payload, nil)
		if err == nil {
			b.kick()
		}
		if peer == b.rank {
			// Loopback: no wire, complete inline.
			if fr.signaled {
				var cerr error
				if err != nil {
					cerr = fmt.Errorf("tcp: remote write failed")
				}
				b.compq.Push(core.BackendCompletion{Token: fr.token, OK: err == nil, Err: cerr})
			}
			return false
		}
		// Advance the applied-write count. A failed signaled write is
		// nacked (an unsignaled one has no completion to fail): the
		// nack is queued first and lastNack recorded before recvSeqW
		// advances — safeStamp's load order relies on this.
		seq := b.recvSeqW[peer].Load() + 1
		if err != nil && fr.signaled {
			b.lastNack[peer].Store(seq)
			b.replyQueueFor(peer).push(replyFrame{data: encodeNack(seq), stamp: seq - 1, nackSeq: seq})
			b.cstats[peer].nacksSent.Add(1)
		}
		b.recvSeqW[peer].Store(seq)
		if fr.signaled || seq-b.ackSent[peer].Load() >= ackEvery {
			b.ackDue[peer].Store(seq)
			return true
		}
		return false
	case opRead:
		// n comes off the wire (up to 4 GiB): it sizes the response only
		// once the registration has vouched for it.
		var resp []byte
		err := b.mem.Access(false, fr.raddr, fr.rkey, fr.n, mem.AccessRemoteRead, func(w []byte) {
			resp = encodeReadResp(fr.token, w, false)
		})
		if err != nil {
			resp = encodeReadResp(fr.token, nil, true)
		}
		b.reply(peer, resp)
	case opFAdd, opCSwap:
		b.handleAtomic(peer, fr)
	case opNack:
		if peer != b.rank {
			b.applyNack(peer, fr.seq, nil)
		}
	case opReadResp:
		dst, ok := b.takePend(peer, fr.token)
		if !ok {
			return false // already failed (link reset); drop the late response
		}
		var err error
		if fr.failed {
			err = fmt.Errorf("tcp: remote read failed")
		} else {
			copy(dst, fr.payload)
		}
		b.compq.Push(core.BackendCompletion{Token: fr.token, OK: !fr.failed, Err: err})
	case opAtomicResp:
		dst, ok := b.takePend(peer, fr.token)
		if !ok {
			return false
		}
		var err error
		if fr.failed {
			err = fmt.Errorf("tcp: remote atomic failed")
		} else {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], fr.value)
			copy(dst, v[:])
		}
		b.compq.Push(core.BackendCompletion{Token: fr.token, OK: !fr.failed, Err: err})
	case opExg:
		b.handleExg(peer, fr.payload)
	case opExgResp:
		b.handleExgResp(fr.payload)
	case opHeartbeat:
		// Liveness probe: the header read already refreshed lastRx, and
		// its stamp (processed above) doubled as a cumulative ack. The
		// body carries clock-sync timestamps.
		if peer != b.rank {
			b.handleHeartbeatSync(peer, fr.hb)
		}
	}
	return false
}

// takePend claims a parked response buffer, clearing the sent-tracking
// entry. ok is false when the op was already failed by the recovery
// path (the response raced the link teardown).
func (b *Backend) takePend(peer int, token uint64) ([]byte, bool) {
	b.pendMu.Lock()
	defer b.pendMu.Unlock()
	pd, ok := b.pendBuf[token]
	if !ok {
		return nil, false
	}
	delete(b.pendBuf, token)
	if sr := b.sentResp[peer]; sr != nil {
		delete(sr, token)
	}
	return pd.buf, true
}

func (b *Backend) handleAtomic(peer int, fr frame) {
	var orig uint64
	var err error
	if fr.op == opFAdd {
		orig, err = b.mem.FetchAdd(false, fr.raddr, fr.rkey, fr.operand)
	} else {
		orig, err = b.mem.CompSwap(false, fr.raddr, fr.rkey, fr.operand, fr.swap)
	}
	if err != nil {
		b.reply(peer, encodeAtomicResp(fr.token, 0, true))
		return
	}
	b.kick()
	b.reply(peer, encodeAtomicResp(fr.token, orig, false))
}

// reply routes a response frame back to peer (loopback applies
// directly). Remote responses are stamped with the applied-write count
// at push time, so they double as cumulative acks for every write that
// preceded the answered operation.
func (b *Backend) reply(peer int, f []byte) {
	if peer == b.rank {
		b.handleFrame(peer, f)
		return
	}
	b.replyQueueFor(peer).push(replyFrame{data: f, stamp: b.recvSeqW[peer].Load()})
}

// ---------------------------------------------------------------------
// Bootstrap exchange: star over rank 0.
// ---------------------------------------------------------------------

// Exchange implements the collective allgather.
func (b *Backend) Exchange(local []byte) ([][]byte, error) {
	if b.size == 1 {
		return [][]byte{append([]byte(nil), local...)}, nil
	}
	if b.rank == 0 {
		return b.exchangeRoot(local)
	}
	// Ship the blob to the root (blocking enqueue: exchange is a
	// collective, so waiting is correct).
	select {
	case b.outs[0] <- outItem{one: outFrame{data: encodeExg(local)}}:
	case <-b.closed:
		return nil, core.ErrClosed
	}
	// Wait for the root's broadcast.
	b.exgMu.Lock()
	defer b.exgMu.Unlock()
	for {
		if out, ok := b.exgResp.PopFront(); ok {
			return out, nil
		}
		if b.isClosed() {
			return nil, core.ErrClosed
		}
		b.exgCond.Wait()
	}
}

func (b *Backend) exchangeRoot(local []byte) ([][]byte, error) {
	b.exgMu.Lock()
	b.exgSelf.PushBack(append([]byte(nil), local...))
	// Wait until one blob from every peer (and self) is queued.
	for {
		if b.isClosed() {
			b.exgMu.Unlock()
			return nil, core.ErrClosed
		}
		ready := b.exgSelf.Len() > 0
		for r := 1; r < b.size; r++ {
			if b.exgGather[r].Len() == 0 {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		b.exgCond.Wait()
	}
	out := make([][]byte, b.size)
	out[0], _ = b.exgSelf.PopFront()
	for r := 1; r < b.size; r++ {
		out[r], _ = b.exgGather[r].PopFront()
	}
	b.exgMu.Unlock()
	// Broadcast the result.
	resp := encodeExgResp(out)
	for r := 1; r < b.size; r++ {
		select {
		case b.outs[r] <- outItem{one: outFrame{data: resp}}:
		case <-b.closed:
			return nil, core.ErrClosed
		}
	}
	return out, nil
}

// handleExg queues a gathered blob at the root. A malformed gather is
// dropped, as handleExgResp drops a bad broadcast.
func (b *Backend) handleExg(peer int, body []byte) {
	blob, err := decodeExg(body)
	if err != nil {
		return
	}
	b.exgMu.Lock()
	b.exgGather[peer].PushBack(blob)
	b.exgCond.Broadcast()
	b.exgMu.Unlock()
}

// handleExgResp delivers the root's broadcast to the local waiter.
func (b *Backend) handleExgResp(body []byte) {
	out, err := decodeExgResp(body)
	if err != nil {
		return
	}
	b.exgMu.Lock()
	b.exgResp.PushBack(out)
	b.exgCond.Broadcast()
	b.exgMu.Unlock()
}

// encodeExg frames a rank's blob for the root's gather.
func encodeExg(blob []byte) []byte {
	f := make([]byte, 1+4+len(blob))
	f[0] = opExg
	binary.LittleEndian.PutUint32(f[1:], uint32(len(blob)))
	copy(f[5:], blob)
	return f
}

// decodeExg reads a peer's gather body: a 4-byte length, then exactly
// that many bytes, as Exchange encodes it. It returns a copy of the
// blob.
func decodeExg(body []byte) ([]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("tcp: short exchange gather")
	}
	if n := binary.LittleEndian.Uint32(body); uint64(n) != uint64(len(body)-4) {
		return nil, fmt.Errorf("tcp: exchange gather claims %d bytes, carries %d", n, len(body)-4)
	}
	return append([]byte(nil), body[4:]...), nil
}

func encodeExgResp(blobs [][]byte) []byte {
	total := 1 + 4
	for _, b := range blobs {
		total += 4 + len(b)
	}
	f := make([]byte, total)
	f[0] = opExgResp
	binary.LittleEndian.PutUint32(f[1:], uint32(len(blobs)))
	off := 5
	for _, blob := range blobs {
		binary.LittleEndian.PutUint32(f[off:], uint32(len(blob)))
		off += 4
		copy(f[off:], blob)
		off += len(blob)
	}
	return f
}

func decodeExgResp(body []byte) ([][]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("tcp: short exchange response")
	}
	count := int(binary.LittleEndian.Uint32(body))
	if count > (len(body)-4)/4 {
		// Every blob carries a 4-byte length: a count the body cannot
		// hold would size the result from an untrusted number.
		return nil, fmt.Errorf("tcp: exchange response claims %d blobs in %d bytes", count, len(body))
	}
	out := make([][]byte, 0, count)
	off := 4
	for i := 0; i < count; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("tcp: truncated exchange response")
		}
		n := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if off+n > len(body) {
			return nil, fmt.Errorf("tcp: truncated exchange blob")
		}
		out = append(out, append([]byte(nil), body[off:off+n]...))
		off += n
	}
	return out, nil
}

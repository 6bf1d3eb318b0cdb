package tcp

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/core"
)

// Link state machine and recovery plane.
//
// Each peer connection is owned by a link. A connection generation is
// installed by installConn (initial dial, accept, or reconnect) and
// retired by lostConn (read/write error, Sever, heartbeat-declared
// silence). Recovery follows the mesh roles: the lower rank redials,
// the higher rank waits for the dial-in on the persistent accept
// loop. Both sides quiesce the dead connection's reader *before*
// handshaking, which makes the applied-write count each side reports
// exact — the peer trims its retransmit window to that count, so every
// write, signaled or not, is applied exactly once no matter where the
// old connection died. When ReconnectWindow expires without a new
// connection the peer is declared down: terminal, and everything in
// flight or queued toward it fails with core.ErrPeerDown.

// link is one peer's connection slot.
type link struct {
	peer int

	//photon:lock tcplink 30
	mu          sync.Mutex
	cond        *sync.Cond // conn installed / link down / backend closed
	conn        net.Conn
	gen         uint64        // connection generation; bumped by installConn
	readerDone  chan struct{} // closed when this generation's reader exits
	needRetx    bool          // writer must replay the window before new frames
	sentApplied uint64        // applied count we reported in this conn's handshake
	redialing   bool          // a recovery supervisor owns the link
	downErr     error

	genA       atomic.Uint64 // gen mirror for lock-free staleness checks
	down       atomic.Bool   // terminal
	recovering atomic.Bool   // redialing mirror for lock-free health reads

	//photon:lock tcphs 10
	hsMu      sync.Mutex    // serializes inbound handshakes for this link
	installed chan struct{} // cap 1: kicked on installConn (supervisor wakeup)
	reconn    chan struct{} // cap 1: kicked on install/down (writer wakeup)

	lastRx atomic.Int64 // nowNano of the last frame header read from peer
	lastTx atomic.Int64 // nowNano of the last successful flush toward peer

	// Clock-sync state fed by heartbeat exchanges (wall-clock UnixNano).
	// hbPeerTx/hbPeerRx remember the peer's last heartbeat tx stamp and
	// our receipt time, echoed back on our next heartbeat to close the
	// NTP-style exchange. clockOff/clockRTT hold the best (minimum-RTT)
	// offset sample: peer wall clock minus ours, in nanoseconds.
	hbPeerTx atomic.Int64
	hbPeerRx atomic.Int64
	clockOff atomic.Int64
	clockRTT atomic.Int64 // 0 = no sample yet
}

func newLink(peer int) *link {
	lk := &link{
		peer:      peer,
		installed: make(chan struct{}, 1),
		reconn:    make(chan struct{}, 1),
	}
	lk.cond = sync.NewCond(&lk.mu)
	return lk
}

// awaitConn blocks until a connection is installed, the link is down,
// or the backend closes. It hands out the generation, whether the
// window must be retransmitted first (clearing the flag), and the
// conveyed-ack floor from the handshake.
func (lk *link) awaitConn(b *Backend) (conn net.Conn, gen uint64, needRetx bool, conveyed uint64, ok bool) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	for {
		if b.isClosed() || lk.down.Load() {
			return nil, 0, false, 0, false
		}
		if lk.conn != nil {
			nr := lk.needRetx
			lk.needRetx = false
			return lk.conn, lk.gen, nr, lk.sentApplied, true
		}
		lk.cond.Wait()
	}
}

// acceptLoop accepts for the life of the backend: initial mesh
// connections from lower ranks and any later reconnects.
func (b *Backend) acceptLoop() {
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			if b.isClosed() {
				return
			}
			select {
			case <-b.closed:
				return
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		go b.handleInbound(conn)
	}
}

// handleInbound runs the acceptor side of the handshake for an
// initial or reconnecting lower-rank peer. Any previous connection is
// retired and its reader quiesced before we report our applied count:
// recvSeqW must be final, or the peer would trim its retransmit
// window to a count that is still moving.
func (b *Backend) handleInbound(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(b.cfg.DialTimeout))
	peer, _, peerApplied, err := readHello(conn)
	if err != nil || peer < 0 || peer >= b.rank {
		conn.Close()
		return
	}
	lk := b.links[peer]
	lk.hsMu.Lock()
	defer lk.hsMu.Unlock()
	if lk.down.Load() || b.isClosed() {
		conn.Close()
		return
	}
	lk.mu.Lock()
	old, oldRd := lk.conn, lk.readerDone
	lk.conn = nil
	lk.mu.Unlock()
	if old != nil {
		old.Close()
	}
	if oldRd != nil {
		//photon:allow lockorder -- handshake serialization: hsMu must stay held while the old reader drains; Close unblocks via b.closed
		select {
		case <-oldRd:
		case <-b.closed:
			conn.Close()
			return
		}
		// The old connection is fully drained; responses that did not
		// arrive on it never will (reads/atomics are not replayed).
		b.failSentResp(peer)
	}
	sent := b.recvSeqW[peer].Load()
	if err := writeHello(conn, b.rank, 0, sent); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	b.installConn(peer, conn, peerApplied, sent)
}

// installConn activates a handshaken connection: the send window is
// trimmed to what the peer reports applied (completing the signaled
// writes among them), the generation advances, and a fresh reader starts. The
// writer observes the new generation via awaitConn and replays the
// remaining window before any new frames.
func (b *Backend) installConn(peer int, conn net.Conn, peerApplied, sentApplied uint64) bool {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	b.applyCumAck(peer, peerApplied, nil)
	lk := b.links[peer]
	lk.mu.Lock()
	if lk.down.Load() || b.isClosed() {
		lk.mu.Unlock()
		conn.Close()
		return false
	}
	lk.gen++
	gen := lk.gen
	lk.conn = conn
	lk.needRetx = true
	lk.sentApplied = sentApplied
	rd := make(chan struct{})
	lk.readerDone = rd
	lk.redialing = false
	lk.recovering.Store(false)
	lk.genA.Store(gen)
	now := nowNano()
	lk.lastRx.Store(now)
	lk.lastTx.Store(now)
	lk.cond.Broadcast()
	lk.mu.Unlock()
	if gen > 1 {
		b.cstats[peer].reconnects.Add(1)
	}
	nudge(lk.installed)
	nudge(lk.reconn)
	go b.reader(peer, conn, gen, rd)
	return true
}

// lostConn retires a dead connection generation (idempotent per
// generation) and starts the recovery supervisor. Callable from the
// reader (socket error), the writer (flush error), Sever, and the
// heartbeat monitor.
func (b *Backend) lostConn(peer int, gen uint64, cause error) {
	lk := b.links[peer]
	lk.mu.Lock()
	if lk.gen != gen || lk.conn == nil || lk.down.Load() {
		lk.mu.Unlock()
		return
	}
	conn := lk.conn
	lk.conn = nil
	rd := lk.readerDone
	start := !lk.redialing
	lk.redialing = true
	lk.recovering.Store(true)
	lk.mu.Unlock()
	conn.Close()
	if start {
		go b.reconnect(peer, rd, cause)
	}
}

// reconnect is the per-loss recovery supervisor: quiesce the dead
// connection's reader, fail the non-idempotent in-flight ops, then
// either redial (lower rank) or wait for the peer's redial (higher
// rank) inside ReconnectWindow. Expiry declares the peer down.
func (b *Backend) reconnect(peer int, readerDone chan struct{}, cause error) {
	select {
	case <-readerDone:
	case <-b.closed:
		return
	}
	b.failSentResp(peer)
	if cause == nil {
		cause = fmt.Errorf("tcp: connection to rank %d lost", peer)
	}
	window := b.cfg.ReconnectWindow
	if window < 0 {
		b.markDown(peer, cause)
		return
	}
	deadline := time.Now().Add(window)
	if peer < b.rank {
		b.awaitRedial(peer, deadline, cause)
		return
	}

	// Dialer role: bounded exponential backoff with jitter. The rand
	// source is seeded from (rank, peer, generation), so a chaos run
	// replays its exact redial schedule.
	lk := b.links[peer]
	rng := rand.New(rand.NewSource(int64(b.rank)<<40 ^ int64(peer)<<20 ^ int64(lk.genA.Load())))
	backoff := b.cfg.ReconnectBackoff
	for {
		if b.isClosed() {
			return
		}
		if time.Now().After(deadline) {
			b.markDown(peer, cause)
			return
		}
		budget := time.Until(deadline)
		if budget > b.cfg.DialTimeout {
			budget = b.cfg.DialTimeout
		}
		conn, err := net.DialTimeout("tcp", b.cfg.Addrs[peer], budget)
		if err == nil {
			applied, sent, herr := b.clientHandshake(conn, peer)
			if herr == nil {
				b.installConn(peer, conn, applied, sent)
				return
			}
			conn.Close()
		}
		sleep := backoff + time.Duration(rng.Int63n(int64(backoff)+1))
		select {
		case <-b.closed:
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// awaitRedial is the acceptor-side supervisor: the lower rank owns the
// dial, so this side only waits for handleInbound to reinstall the
// link — or declares the peer down at the deadline.
func (b *Backend) awaitRedial(peer int, deadline time.Time, cause error) {
	lk := b.links[peer]
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	for {
		lk.mu.Lock()
		live := lk.conn != nil
		lk.mu.Unlock()
		if live {
			return
		}
		select {
		case <-b.closed:
			return
		case <-t.C:
			b.markDown(peer, cause)
			return
		case <-lk.installed:
		}
	}
}

// markDown latches a peer down (terminal) and fails everything in
// flight toward it: the retransmit window, parked response buffers,
// and — via the writer's drain mode — whatever is still queued.
func (b *Backend) markDown(peer int, cause error) {
	lk := b.links[peer]
	lk.mu.Lock()
	if lk.down.Load() || b.isClosed() {
		lk.mu.Unlock()
		return
	}
	err := fmt.Errorf("tcp: rank %d unreachable (%v): %w", peer, cause, core.ErrPeerDown)
	lk.downErr = err
	lk.down.Store(true)
	lk.redialing = false
	lk.recovering.Store(false)
	conn := lk.conn
	lk.conn = nil
	lk.cond.Broadcast()
	lk.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	nudge(lk.reconn)
	for _, tok := range b.windows[peer].drainAll(nil) {
		b.compq.Push(core.BackendCompletion{Token: tok, OK: false, Err: err})
	}
	b.failPend(peer, err)
	b.kick()
}

// failSentResp fails the response-keyed ops (reads, atomics) that hit
// the wire on a now-dead connection. Their responses may have been
// lost and the requests cannot be replayed, so they complete with
// core.ErrPeerDown even when the link itself recovers.
func (b *Backend) failSentResp(peer int) {
	b.pendMu.Lock()
	sr := b.sentResp[peer]
	b.sentResp[peer] = nil
	var toks []uint64
	for tok := range sr {
		if _, ok := b.pendBuf[tok]; ok {
			delete(b.pendBuf, tok)
			toks = append(toks, tok)
		}
	}
	b.pendMu.Unlock()
	if len(toks) == 0 {
		return
	}
	err := fmt.Errorf("tcp: rank %d link reset; op not replayable: %w", peer, core.ErrPeerDown)
	for _, tok := range toks {
		b.compq.Push(core.BackendCompletion{Token: tok, OK: false, Err: err})
	}
}

// failPend fails every parked response buffer toward peer (markDown:
// sent or not, none will ever complete).
func (b *Backend) failPend(peer int, err error) {
	b.pendMu.Lock()
	b.sentResp[peer] = nil
	var toks []uint64
	for tok, pd := range b.pendBuf {
		if pd.rank == peer {
			delete(b.pendBuf, tok)
			toks = append(toks, tok)
		}
	}
	b.pendMu.Unlock()
	for _, tok := range toks {
		b.compq.Push(core.BackendCompletion{Token: tok, OK: false, Err: err})
	}
}

// Sever forcibly closes the live connection toward peer, simulating a
// network cut (test hook; the chaos harness and recovery tests drive
// it). The link recovers through the normal reconnect path.
func (b *Backend) Sever(peer int) {
	if peer < 0 || peer >= b.size || peer == b.rank {
		return
	}
	lk := b.links[peer]
	lk.mu.Lock()
	conn := lk.conn
	lk.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// ---------------------------------------------------------------------
// Liveness plane (core.HealthBackend).
// ---------------------------------------------------------------------

// ConfigureLiveness arms heartbeats: every interval, each live link
// that has not sent traffic recently pushes a heartbeat frame
// (piggyback suppression — data already proves liveness), and a link
// silent past twice the suspect window is severed so the reconnect
// path can take over (a half-open TCP connection never errors on its
// own).
func (b *Backend) ConfigureLiveness(heartbeat, suspectAfter time.Duration) {
	if heartbeat <= 0 {
		return
	}
	b.hbOnce.Do(func() {
		if suspectAfter <= 0 {
			suspectAfter = 4 * heartbeat
		}
		now := nowNano()
		for _, lk := range b.links {
			if lk != nil {
				lk.lastRx.Store(now)
				lk.lastTx.Store(now)
			}
		}
		b.suspectNS.Store(int64(suspectAfter))
		b.hbNS.Store(int64(heartbeat))
		go b.heartbeatLoop(heartbeat, suspectAfter)
	})
}

// PeerHealth reports the transport's view of a peer's liveness.
func (b *Backend) PeerHealth(rank int) core.PeerHealth {
	if rank < 0 || rank >= b.size {
		return core.PeerDown
	}
	if rank == b.rank {
		return core.PeerHealthy
	}
	lk := b.links[rank]
	switch {
	case lk.down.Load():
		return core.PeerDown
	case lk.recovering.Load():
		return core.PeerRecovering
	}
	if s := b.suspectNS.Load(); s > 0 && nowNano()-lk.lastRx.Load() > s {
		return core.PeerSuspect
	}
	return core.PeerHealthy
}

// handleHeartbeatSync processes the clock-sync fields of an inbound
// heartbeat from peer. The frame's tx stamp and our receipt time are
// remembered for the echo on our next heartbeat; when the frame echoes
// one of our own earlier heartbeats, the four timestamps close an
// NTP-style exchange and yield an offset/RTT sample. Only the
// minimum-RTT sample is kept — queueing delay inflates both legs, and
// the tightest round trip bounds the offset error by rtt/2.
func (b *Backend) handleHeartbeatSync(peer int, hb [3]int64) {
	t3 := time.Now().UnixNano()
	t2 := hb[0] // peer's send time
	t0 := hb[1] // our echoed tx
	t1 := hb[2] // peer's receipt of it
	lk := b.links[peer]
	lk.hbPeerTx.Store(t2)
	lk.hbPeerRx.Store(t3)
	if t0 == 0 || t1 == 0 {
		return // no exchange closed yet (peer hasn't heard us)
	}
	rtt := (t3 - t0) - (t2 - t1)
	if rtt < 0 {
		return // clock stepped mid-exchange; discard
	}
	if best := lk.clockRTT.Load(); best == 0 || rtt < best {
		lk.clockOff.Store(((t1 - t0) + (t2 - t3)) / 2)
		lk.clockRTT.Store(rtt)
		b.cstats[peer].clockSamples.Add(1)
	}
}

// ClockOffset reports the best clock-offset estimate toward peer: the
// peer's wall clock minus this process's, in nanoseconds, with the RTT
// of the sample that produced it. ok is false until at least one
// heartbeat exchange has completed (heartbeats must be armed via
// ConfigureLiveness, and suppression means busy links sample rarely).
// The offset feeds trace.PeerDump.OffsetNS when merging per-process
// trace rings into one cluster timeline.
func (b *Backend) ClockOffset(peer int) (offsetNS, rttNS int64, ok bool) {
	if peer < 0 || peer >= b.size || peer == b.rank {
		return 0, 0, peer == b.rank && peer >= 0
	}
	lk := b.links[peer]
	rtt := lk.clockRTT.Load()
	if rtt == 0 {
		return 0, 0, false
	}
	return lk.clockOff.Load(), rtt, true
}

func (b *Backend) heartbeatLoop(hb, suspectAfter time.Duration) {
	tick := time.NewTicker(hb)
	defer tick.Stop()
	for {
		select {
		case <-b.closed:
			return
		case <-tick.C:
		}
		now := nowNano()
		for peer, lk := range b.links {
			if lk == nil || lk.down.Load() {
				continue
			}
			lk.mu.Lock()
			conn := lk.conn
			lk.mu.Unlock()
			if conn == nil {
				continue
			}
			if now-lk.lastRx.Load() > 2*int64(suspectAfter) {
				// Declared silent: sever so recovery takes over.
				conn.Close()
				continue
			}
			if now-lk.lastTx.Load() < int64(hb) {
				continue // suppressed: recent traffic already proves liveness
			}
			// Ride the reply path: FIFO keeps any queued nack ahead of
			// this frame's stamp, and the stamp doubles as an ack. The
			// body carries this side's wall clock plus an echo of the
			// peer's last heartbeat, closing one NTP-style exchange.
			b.replyQueueFor(peer).push(replyFrame{
				data:  encodeHeartbeat(time.Now().UnixNano(), lk.hbPeerTx.Load(), lk.hbPeerRx.Load()),
				stamp: b.recvSeqW[peer].Load(),
			})
			b.cstats[peer].heartbeats.Add(1)
		}
	}
}

// Package msg is the two-sided baseline Photon is evaluated against: a
// miniature MPI-style message layer (tagged send/receive with eager and
// rendezvous protocols) built on the very same simulated NIC.
//
// Keeping the transport identical isolates exactly the software
// difference the paper's comparison is about: a two-sided layer must
// pre-post receive buffers, run a tag-matching engine on every arrival,
// and copy payloads out of bounce buffers, while Photon's one-sided
// ledger path delivers data and completion identifiers directly into
// their destination with no matching.
//
// Wire protocol (all over SEND/RECV on a per-peer QP):
//
//	eager:  [kind=1][tag8][len4][payload]          (len <= EagerLimit)
//	rts:    [kind=2][tag8][len8][addr8][rkey4]     (sender-registered source)
//	fin:    [kind=3][seq8]                          (read done; release source)
//
// Large messages rendezvous: the receiver matches the RTS against a
// posted receive, RDMA-reads the payload straight into the user buffer
// (zero-copy on the receive side), and FINs the sender.
package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"time"

	"photon/internal/errs"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

// Errors returned by the message layer. ErrTimeout wraps the shared
// root sentinel (aliased as core.ErrTimeout), so errors.Is against
// either name matches timeouts from this layer.
var (
	ErrClosed  = errors.New("msg: endpoint closed")
	ErrBadRank = errors.New("msg: rank out of range")
	ErrTimeout = fmt.Errorf("msg: wait timed out: %w", errs.ErrTimeout)
)

// AnyTag matches any tag in Recv.
const AnyTag = ^uint64(0)

// Config tunes the endpoint.
type Config struct {
	// EagerLimit is the largest payload sent inline (default 1024).
	EagerLimit int
	// RecvSlots is the number of pre-posted receive bounce buffers
	// per peer (default 64).
	RecvSlots int
}

func (c *Config) setDefaults() {
	if c.EagerLimit <= 0 {
		c.EagerLimit = 1024
	}
	if c.RecvSlots <= 0 {
		c.RecvSlots = 64
	}
}

const (
	kEager = 1
	kRTS   = 2
	kFIN   = 3
	hdrMax = 1 + 8 + 8 + 8 + 4
)

// Frame fixed-part lengths shared by the encoders and decodeFrame.
const (
	eagerHdrLen = 1 + 8 + 4             // kind | tag8 | plen4; payload follows
	rtsFrameLen = 1 + 8 + 8 + 8 + 4 + 8 // kind | tag8 | size8 | addr8 | rkey4 | seq8
	finFrameLen = 1 + 8                 // kind | seq8
)

// Message is one matched, delivered message.
type Message struct {
	Src  int
	Tag  uint64
	Data []byte
}

// recvReq is a posted receive awaiting a match.
type recvReq struct {
	src  int // -1 = any source
	tag  uint64
	buf  []byte // user buffer; nil = allocate
	done chan Message
}

// unexpected is an arrived message with no matching receive yet.
type unexpected struct {
	src     int
	tag     uint64
	data    []byte // eager payload (copied)
	rts     bool
	size    int
	addr    uint64
	rkey    uint32
	seq     uint64
	pending bool // rendezvous read in flight
}

// pendingSend tracks an in-flight send for Wait.
type pendingSend struct {
	done chan error
}

// Endpoint is one rank's two-sided message endpoint.
type Endpoint struct {
	rank int
	size int
	cfg  Config
	nic  *nicsim.NIC
	scq  *nicsim.CQ
	rcq  *nicsim.CQ
	qps  []*nicsim.QP

	//photon:lock ep 10
	mu        sync.Mutex
	posted    []*recvReq
	unexp     []*unexpected
	rdzvSrc   map[uint64]*rdzvSrc // seq -> sender-side registered source
	rdzvDst   map[uint64]*rdzvDst // read token -> receiver-side state
	sendWaits map[uint64]*pendingSend
	tokPeer   map[uint64]int // send token -> destination peer (credit return)
	nextSeq   uint64
	nextTok   uint64
	recvBufs  map[int][][]byte // per-peer bounce rings
	inflight  []int            // outstanding unacked frames per peer (eager flow control)
	closed    bool

	// framePool recycles outbound frame scratch (eager, RTS, FIN).
	// The QP's post path snapshots the frame before returning, so a
	// frame goes back to the pool the moment PostSend accepts it.
	framePool *mem.BufPool

	stats struct {
		eagerTx, eagerRx, rdzvTx, rdzvRx int64
		matchScans                       int64
	}
}

type rdzvSrc struct {
	mr   *nicsim.MR
	wait *pendingSend
	tok  uint64 // send token: its flow-control credit settles on FIN
	peer int
}

type rdzvDst struct {
	src  int
	seq  uint64
	tag  uint64
	buf  []byte
	done chan Message
}

// Stats reports baseline activity for the benchmark harness.
type Stats struct {
	EagerTx, EagerRx, RdzvTx, RdzvRx, MatchScans int64
}

// Job is a set of endpoints over one fabric (one per rank), the
// two-sided analogue of a vsim.Cluster.
type Job struct {
	fab     *fabric.Fabric
	ownsFab bool
	eps     []*Endpoint
}

// NewJob builds n connected endpoints over a fresh fabric.
func NewJob(n int, fm fabric.Model, nc nicsim.Config, cfg Config) (*Job, error) {
	fab := fabric.New(n, fm)
	j, err := NewJobOver(fab, nc, cfg)
	if err != nil {
		fab.Close()
		return nil, err
	}
	j.ownsFab = true
	return j, nil
}

// NewJobOver builds one endpoint per node of an existing fabric.
func NewJobOver(fab *fabric.Fabric, nc nicsim.Config, cfg Config) (*Job, error) {
	cfg.setDefaults()
	n := fab.NumNodes()
	j := &Job{fab: fab, eps: make([]*Endpoint, n)}
	for r := 0; r < n; r++ {
		nic, err := nicsim.New(fab, r, nc)
		if err != nil {
			j.Close()
			return nil, err
		}
		ep := &Endpoint{
			rank:      r,
			size:      n,
			cfg:       cfg,
			nic:       nic,
			scq:       nicsim.NewCQ(8192),
			rcq:       nicsim.NewCQ(8192),
			qps:       make([]*nicsim.QP, n),
			rdzvSrc:   make(map[uint64]*rdzvSrc),
			rdzvDst:   make(map[uint64]*rdzvDst),
			sendWaits: make(map[uint64]*pendingSend),
			tokPeer:   make(map[uint64]int),
			nextSeq:   1,
			nextTok:   1,
			recvBufs:  make(map[int][][]byte),
			inflight:  make([]int, n),
			framePool: mem.NewBufPool(hdrMax+cfg.EagerLimit, 256),
		}
		j.eps[r] = ep
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			qp, err := j.eps[i].nic.CreateQP(j.eps[i].scq, j.eps[i].rcq)
			if err != nil {
				j.Close()
				return nil, err
			}
			j.eps[i].qps[k] = qp
		}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if err := j.eps[i].qps[k].Connect(k, j.eps[k].qps[i].QPN()); err != nil {
				j.Close()
				return nil, err
			}
		}
	}
	// Pre-post bounce buffers: the defining two-sided cost.
	for _, ep := range j.eps {
		if err := ep.prepost(); err != nil {
			j.Close()
			return nil, err
		}
	}
	return j, nil
}

// Endpoints returns the endpoints indexed by rank.
func (j *Job) Endpoints() []*Endpoint { return j.eps }

// Endpoint returns one rank's endpoint.
func (j *Job) Endpoint(rank int) *Endpoint { return j.eps[rank] }

// Close shuts down all endpoints (and the fabric if the job owns it).
func (j *Job) Close() {
	for _, ep := range j.eps {
		if ep != nil {
			ep.close()
		}
	}
	if j.ownsFab {
		j.fab.Close()
	}
}

func (ep *Endpoint) prepost() error {
	for peer := 0; peer < ep.size; peer++ {
		bufs := make([][]byte, ep.cfg.RecvSlots)
		for i := range bufs {
			bufs[i] = make([]byte, hdrMax+ep.cfg.EagerLimit)
			wrid := recvWRID(peer, i)
			if err := ep.qps[peer].PostRecv(nicsim.RecvWR{WRID: wrid, Buf: bufs[i]}); err != nil {
				return err
			}
		}
		ep.recvBufs[peer] = bufs
	}
	return nil
}

// recvWRID packs (peer, slot) into a receive WRID.
func recvWRID(peer, slot int) uint64 { return uint64(peer)<<32 | uint64(slot) }

func recvWRIDParts(w uint64) (peer, slot int) { return int(w >> 32), int(w & 0xFFFFFFFF) }

// Rank returns this endpoint's rank.
func (ep *Endpoint) Rank() int { return ep.rank }

// Size returns the job size.
func (ep *Endpoint) Size() int { return ep.size }

// Stats returns activity counters.
func (ep *Endpoint) Stats() Stats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return Stats{
		EagerTx: ep.stats.eagerTx, EagerRx: ep.stats.eagerRx,
		RdzvTx: ep.stats.rdzvTx, RdzvRx: ep.stats.rdzvRx,
		MatchScans: ep.stats.matchScans,
	}
}

func (ep *Endpoint) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	// Fail all blocked receivers and senders.
	for _, r := range ep.posted {
		close(r.done)
	}
	ep.posted = nil
	for _, w := range ep.sendWaits {
		select {
		case w.done <- ErrClosed:
		default:
		}
	}
	ep.mu.Unlock()
	ep.nic.Close()
}

// Send transmits data to rank under tag and returns a wait handle; the
// handle resolves when the payload is out of the caller's buffer (eager:
// transport ack; rendezvous: FIN).
func (ep *Endpoint) Send(rank int, tag uint64, data []byte) (*SendHandle, error) {
	if rank < 0 || rank >= ep.size {
		return nil, ErrBadRank
	}
	// Eager flow control: never run more unacked frames toward one
	// peer than it has pre-posted bounce buffers (real MPIs maintain
	// exactly this credit scheme to avoid receiver-not-ready storms).
	for {
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return nil, ErrClosed
		}
		if ep.inflight[rank] < ep.cfg.RecvSlots {
			ep.inflight[rank]++
			break
		}
		ep.mu.Unlock()
		ep.Progress()
		gort.Gosched()
	}
	tok := ep.nextTok
	ep.nextTok++
	wait := &pendingSend{done: make(chan error, 1)}
	ep.sendWaits[tok] = wait
	ep.tokPeer[tok] = rank
	ep.mu.Unlock()

	if len(data) <= ep.cfg.EagerLimit {
		frame := ep.framePool.Get(eagerHdrLen + len(data))
		frame[0] = kEager
		binary.LittleEndian.PutUint64(frame[1:], tag)
		binary.LittleEndian.PutUint32(frame[9:], uint32(len(data)))
		copy(frame[eagerHdrLen:], data)
		if err := ep.postSendRetry(rank, frame, tok); err != nil {
			ep.dropWait(tok)
			return nil, err
		}
		ep.framePool.Put(frame)
		ep.mu.Lock()
		ep.stats.eagerTx++
		ep.mu.Unlock()
		return &SendHandle{ep: ep, tok: tok, wait: wait}, nil
	}

	// Rendezvous: register the source and advertise it.
	mr, err := ep.nic.RegisterMemory(data, nicsim.AccessRemoteRead)
	if err != nil {
		ep.dropWait(tok)
		return nil, err
	}
	ep.mu.Lock()
	seq := ep.nextSeq
	ep.nextSeq++
	ep.rdzvSrc[seq] = &rdzvSrc{mr: mr, wait: wait, tok: tok, peer: rank}
	ep.stats.rdzvTx++
	ep.mu.Unlock()
	frame := ep.framePool.Get(rtsFrameLen)
	frame[0] = kRTS
	binary.LittleEndian.PutUint64(frame[1:], tag)
	binary.LittleEndian.PutUint64(frame[9:], uint64(len(data)))
	binary.LittleEndian.PutUint64(frame[17:], mr.Base())
	binary.LittleEndian.PutUint32(frame[25:], mr.RKey())
	binary.LittleEndian.PutUint64(frame[29:], seq)
	if err := ep.postSendRetry(rank, frame, 0); err != nil {
		ep.dropWait(tok)
		return nil, err
	}
	ep.framePool.Put(frame)
	return &SendHandle{ep: ep, tok: tok, wait: wait}, nil
}

func (ep *Endpoint) dropWait(tok uint64) {
	ep.mu.Lock()
	delete(ep.sendWaits, tok)
	if peer, ok := ep.tokPeer[tok]; ok {
		delete(ep.tokPeer, tok)
		ep.inflight[peer]--
	}
	ep.mu.Unlock()
}

// postSendRetry posts a SEND, spinning briefly on a full send queue.
func (ep *Endpoint) postSendRetry(rank int, frame []byte, tok uint64) error {
	for {
		err := ep.qps[rank].PostSend(nicsim.SendWR{
			WRID: tok, Op: nicsim.OpSend, Local: frame, Signaled: tok != 0,
		})
		if err == nil || !errors.Is(err, nicsim.ErrSQFull) {
			return err
		}
		ep.Progress()
		time.Sleep(time.Microsecond)
	}
}

// SendHandle resolves when a send's buffer is reusable.
type SendHandle struct {
	ep   *Endpoint
	tok  uint64
	wait *pendingSend
}

// Wait blocks (driving progress) until the send completes. A
// non-positive timeout waits forever.
func (h *SendHandle) Wait(timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		select {
		case err := <-h.wait.done:
			return err
		default:
		}
		if h.ep.Progress() == 0 {
			gort.Gosched()
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrTimeout
		}
	}
}

// Recv posts a receive for (src, tag); src may be -1 (any source) and
// tag may be AnyTag. If buf is non-nil, rendezvous payloads land in it
// zero-copy; eager payloads are copied into it. The returned channel
// yields the matched message (channel closes on endpoint shutdown).
func (ep *Endpoint) Recv(src int, tag uint64, buf []byte) (<-chan Message, error) {
	if src < -1 || src >= ep.size {
		return nil, ErrBadRank
	}
	req := &recvReq{src: src, tag: tag, buf: buf, done: make(chan Message, 1)}
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil, ErrClosed
	}
	// Try the unexpected queue first (arrival order).
	for i, u := range ep.unexp {
		ep.stats.matchScans++
		if u.pending || !match(req, u.src, u.tag) {
			continue
		}
		ep.unexp = append(ep.unexp[:i], ep.unexp[i+1:]...)
		if !u.rts {
			ep.mu.Unlock()
			req.done <- Message{Src: u.src, Tag: u.tag, Data: intoBuf(req.buf, u.data)}
			return req.done, nil
		}
		// Rendezvous: start the read now that a buffer exists.
		ep.startRdzvReadLocked(req, u)
		ep.mu.Unlock()
		return req.done, nil
	}
	ep.posted = append(ep.posted, req)
	ep.mu.Unlock()
	return req.done, nil
}

// RecvBlocking is Recv plus a progress-driving wait.
func (ep *Endpoint) RecvBlocking(src int, tag uint64, buf []byte, timeout time.Duration) (Message, error) {
	ch, err := ep.Recv(src, tag, buf)
	if err != nil {
		return Message{}, err
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		select {
		case m, ok := <-ch:
			if !ok {
				return Message{}, ErrClosed
			}
			return m, nil
		default:
		}
		if ep.Progress() == 0 {
			gort.Gosched()
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return Message{}, ErrTimeout
		}
	}
}

func match(r *recvReq, src int, tag uint64) bool {
	if r.src != -1 && r.src != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}

func intoBuf(dst, src []byte) []byte {
	if dst == nil {
		return src
	}
	n := copy(dst, src)
	return dst[:n]
}

// startRdzvReadLocked begins the receiver-side RDMA read for a matched
// RTS. Caller holds ep.mu.
func (ep *Endpoint) startRdzvReadLocked(req *recvReq, u *unexpected) {
	dst := req.buf
	if dst == nil || len(dst) < u.size {
		dst = make([]byte, u.size)
	}
	tok := ep.nextTok
	ep.nextTok++
	ep.rdzvDst[tok] = &rdzvDst{src: u.src, seq: u.seq, tag: u.tag, buf: dst[:u.size], done: req.done}
	// Post outside the lock? PostSend is non-blocking and lock-free
	// with respect to ep.mu; safe to call while holding it.
	err := ep.qps[u.src].PostSend(nicsim.SendWR{
		WRID: tok, Op: nicsim.OpRDMARead, Local: dst[:u.size],
		RemoteAddr: u.addr, RKey: u.rkey, Signaled: true,
	})
	if err != nil {
		// Requeue as pending-unexpected and retry from Progress.
		u.pending = false
		ep.unexp = append(ep.unexp, u)
		ep.posted = append(ep.posted, req)
		delete(ep.rdzvDst, tok)
	}
}

// Progress drives the matching engine: it reaps receive completions
// (unpacking eager frames and RTS advertisements), send completions,
// and rendezvous reads. Returns events handled.
func (ep *Endpoint) Progress() int {
	n := 0
	var cqes [64]nicsim.CQE
	// Receive side.
	for {
		k := ep.rcq.PollInto(cqes[:])
		for i := 0; i < k; i++ {
			ep.handleRecvCQE(cqes[i])
		}
		n += k
		if k < len(cqes) {
			break
		}
	}
	// Send side.
	for {
		k := ep.scq.PollInto(cqes[:])
		for i := 0; i < k; i++ {
			ep.handleSendCQE(cqes[i])
		}
		n += k
		if k < len(cqes) {
			break
		}
	}
	return n
}

func (ep *Endpoint) handleRecvCQE(e nicsim.CQE) {
	peer, slot := recvWRIDParts(e.WRID)
	ep.mu.Lock()
	bufs, ok := ep.recvBufs[peer]
	if !ok || slot >= len(bufs) || e.Status != nicsim.StatusOK {
		ep.mu.Unlock()
		return
	}
	frame := bufs[slot][:e.ByteLen]
	ep.dispatchFrameLocked(e.SrcNode, frame) //photon:allow lockorder -- every r.done is buffered (cap 1, one completion per request); the send cannot block
	ep.mu.Unlock()
	// Re-post the bounce buffer (consumed exactly once).
	_ = ep.qps[peer].PostRecv(nicsim.RecvWR{WRID: e.WRID, Buf: bufs[slot]})
}

// maxFrameInt bounds untrusted 64-bit size words before narrowing to
// int: a wire value above it would wrap negative and panic downstream
// (make, re-slicing).
const maxFrameInt = uint64(int(^uint(0) >> 1))

// frame is one decoded wire frame. Payload aliases the input buffer —
// a retaining caller must copy it out before the bounce buffer is
// re-posted.
type frame struct {
	kind    uint8
	tag     uint64
	payload []byte // eager: payload bytes (clamped to the frame)
	size    int    // rts: advertised source length
	addr    uint64 // rts: registered source address
	rkey    uint32 // rts: source rkey
	seq     uint64 // rts/fin: rendezvous sequence number
}

// decodeFrame parses one wire frame, returning false for truncated,
// unknown, or malformed input. It is a pure function over the buffer
// (no endpoint state) so it can be fuzzed directly: any input must
// either be rejected or yield a frame whose payload is in bounds and
// whose size is non-negative.
func decodeFrame(buf []byte) (frame, bool) {
	if len(buf) < 1 {
		return frame{}, false
	}
	switch buf[0] {
	case kEager:
		if len(buf) < eagerHdrLen {
			return frame{}, false
		}
		plen := int(binary.LittleEndian.Uint32(buf[9:]))
		if plen > len(buf)-eagerHdrLen {
			// Tolerate short frames from truncating transports: deliver
			// what actually arrived (historical receiver behavior).
			plen = len(buf) - eagerHdrLen
		}
		return frame{
			kind:    kEager,
			tag:     binary.LittleEndian.Uint64(buf[1:]),
			payload: buf[eagerHdrLen : eagerHdrLen+plen],
		}, true
	case kRTS:
		if len(buf) < rtsFrameLen {
			return frame{}, false
		}
		size := binary.LittleEndian.Uint64(buf[9:])
		if size > maxFrameInt {
			// Would wrap negative as int; hostile or corrupt — drop.
			return frame{}, false
		}
		return frame{
			kind: kRTS,
			tag:  binary.LittleEndian.Uint64(buf[1:]),
			size: int(size),
			addr: binary.LittleEndian.Uint64(buf[17:]),
			rkey: binary.LittleEndian.Uint32(buf[25:]),
			seq:  binary.LittleEndian.Uint64(buf[29:]),
		}, true
	case kFIN:
		if len(buf) < finFrameLen {
			return frame{}, false
		}
		return frame{kind: kFIN, seq: binary.LittleEndian.Uint64(buf[1:])}, true
	}
	return frame{}, false
}

// dispatchFrameLocked parses one frame and runs the matching engine.
// Caller holds ep.mu.
func (ep *Endpoint) dispatchFrameLocked(src int, buf []byte) {
	f, ok := decodeFrame(buf)
	if !ok {
		return
	}
	switch f.kind {
	case kEager:
		data := append([]byte(nil), f.payload...)
		ep.stats.eagerRx++
		for i, r := range ep.posted {
			ep.stats.matchScans++
			if match(r, src, f.tag) {
				ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
				r.done <- Message{Src: src, Tag: f.tag, Data: intoBuf(r.buf, data)}
				return
			}
		}
		ep.unexp = append(ep.unexp, &unexpected{src: src, tag: f.tag, data: data})
	case kRTS:
		u := &unexpected{
			src:  src,
			tag:  f.tag,
			rts:  true,
			size: f.size,
			addr: f.addr,
			rkey: f.rkey,
			seq:  f.seq,
		}
		ep.stats.rdzvRx++
		for i, r := range ep.posted {
			ep.stats.matchScans++
			if match(r, src, u.tag) {
				ep.posted = append(ep.posted[:i], ep.posted[i+1:]...)
				ep.startRdzvReadLocked(r, u)
				return
			}
		}
		ep.unexp = append(ep.unexp, u)
	case kFIN:
		seq := f.seq
		if s, ok := ep.rdzvSrc[seq]; ok {
			delete(ep.rdzvSrc, seq)
			// Settle the send's flow-control credit and wait entry;
			// the RTS itself was unsignaled, so the FIN is the only
			// completion this send gets.
			delete(ep.sendWaits, s.tok)
			if _, ok := ep.tokPeer[s.tok]; ok {
				delete(ep.tokPeer, s.tok)
				ep.inflight[s.peer]--
			}
			_ = ep.nic.DeregisterMemory(s.mr)
			select {
			case s.wait.done <- nil:
			default:
			}
		}
	}
}

func (ep *Endpoint) handleSendCQE(e nicsim.CQE) {
	ep.mu.Lock()
	if d, ok := ep.rdzvDst[e.WRID]; ok {
		delete(ep.rdzvDst, e.WRID)
		ep.mu.Unlock()
		if e.Status == nicsim.StatusOK {
			// FIN the sender, then deliver.
			fin := ep.framePool.Get(finFrameLen)
			fin[0] = kFIN
			binary.LittleEndian.PutUint64(fin[1:], d.seq)
			if ep.postSendRetry(d.src, fin, 0) == nil {
				ep.framePool.Put(fin)
			}
			d.done <- Message{Src: d.src, Tag: d.tag, Data: d.buf}
		}
		return
	}
	w, ok := ep.sendWaits[e.WRID]
	if ok {
		delete(ep.sendWaits, e.WRID)
	}
	if peer, ok := ep.tokPeer[e.WRID]; ok {
		delete(ep.tokPeer, e.WRID)
		ep.inflight[peer]--
	}
	ep.mu.Unlock()
	if ok {
		var err error
		if e.Status != nicsim.StatusOK {
			err = fmt.Errorf("msg: send failed: %v", e.Status)
		}
		select {
		case w.done <- err:
		default:
		}
	}
}

// Package tcp is Photon's sockets backend: the same core.Backend
// contract as the simulated-verbs backend, but over real TCP
// connections, so a Photon job can span OS processes (or just exercise
// a second transport, reproducing the original's backend-portability
// claim: verbs / uGNI / libfabric / sockets behind one middleware).
//
// One-sided semantics are emulated the way Photon's TCP and UD backends
// emulate them: each rank runs an agent loop per connection that
// applies WRITE/READ/ATOMIC requests directly against the local
// registration table and acknowledges writes cumulatively. Per
// connection, TCP's in-order bytestream plays the role of the RC queue
// pair: requests apply in posting order, and an ACK for operation k
// implies operations 1..k-1 have been applied.
//
// Data path (wire format v5): every frame carries a 12-byte header,
//
//	u32 bodyLen | u64 cumAck | body
//
// where cumAck is the cumulative count of writes, signaled or not, this
// sender has applied from the receiving peer (0 = no information).
// Acks therefore piggyback on whatever traffic already flows the other
// way; a standalone ack (bodyLen 0) is emitted only after the reader
// drains its socket with an ack owed — a signaled write, or a fixed
// count of writes gone unacknowledged, which keeps the retransmit
// window of a one-way stream bounded. An acked write frame leaves the
// window and goes back to a size-classed pool. The writer coalesces
// queued frames into one gather buffer and flushes with a single Write —
// immediately when the queue runs dry (latency never waits on a
// timer), batching up to flushBytes while more work is queued. Reads
// and atomics are not in the cumAck sequence space; they complete via
// token-keyed response frames, which are themselves stamped with the
// applied-write count at push time so cross-kind posting order is
// preserved at the initiator. See DESIGN.md "TCP data path".
//
// Fault tolerance: a lost connection is redialed with bounded
// exponential backoff inside Config.ReconnectWindow. The handshake
// is symmetric — both sides report how many of the peer's writes they
// have applied — so after a reconnect each writer trims its retransmit
// window to the peer's report and replays exactly the frames the dead
// connection may have lost: every write is applied exactly once,
// preserving the RC ordering contract. Non-idempotent operations
// (reads, atomics) in flight on a dead connection are never replayed;
// they complete with core.ErrPeerDown. When the window expires the peer
// is declared down and everything queued toward it fails. See DESIGN.md
// "Fault tolerance" and recover.go for the link state machine.
//
// Bootstrap exchange is a star over rank 0: every rank ships its blob
// to the root, which gathers and rebroadcasts. Connections form a full
// mesh at New time from a caller-supplied address book (the moral
// equivalent of a launcher's hostfile). Exchange frames are not
// retransmitted: the bootstrap collective is expected to run before
// the job starts injecting faults.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"photon/internal/core"
	"photon/internal/mem"
)

// Errors specific to the TCP backend.
var (
	ErrBadAddress = errors.New("tcp: bad address configuration")
	ErrHandshake  = errors.New("tcp: peer handshake failed")
)

// Config describes one rank of a TCP job.
type Config struct {
	// Rank of this process; Addrs[Rank] must be a listenable address.
	Rank int
	// Addrs is the full address book, indexed by rank.
	Addrs []string
	// DialTimeout bounds connection setup (default 10s).
	DialTimeout time.Duration
	// SendDepth bounds queued outbound requests per peer (default 1024);
	// a full queue surfaces as ErrWouldBlock, like a full send queue.
	SendDepth int
	// ReconnectWindow bounds how long a lost connection is redialed
	// before the peer is declared down (default 5s). Negative disables
	// recovery entirely: a lost connection immediately declares the
	// peer down, failing everything in flight with core.ErrPeerDown.
	ReconnectWindow time.Duration
	// ReconnectBackoff is the initial redial delay (default 25ms); it
	// doubles per failed attempt, with jitter, capped at one second.
	ReconnectBackoff time.Duration
	// Listener optionally supplies a pre-bound listener for this rank
	// (port-0 setups and tests); when set, Addrs[Rank] is only used by
	// peers to reach it.
	Listener net.Listener
}

func (c *Config) setDefaults() error {
	if len(c.Addrs) == 0 || c.Rank < 0 || c.Rank >= len(c.Addrs) {
		return ErrBadAddress
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.SendDepth <= 0 {
		c.SendDepth = 1024
	}
	if c.ReconnectWindow == 0 {
		c.ReconnectWindow = 5 * time.Second
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = 25 * time.Millisecond
	}
	return nil
}

// flushBytes caps the writer's gather buffer per connection: while more
// frames are queued the writer keeps filling up to this cap before
// issuing the Write syscall. The read side sizes its buffered reader to
// match.
const flushBytes = 256 << 10

// Wire format v5 framing.
const (
	// frameHdrLen prefixes every frame: u32 body length | u64 cumAck.
	frameHdrLen = 12
	// maxFrameLen rejects absurd lengths from a poisoned stream.
	maxFrameLen = 1 << 30
	// Handshake (symmetric, 24 bytes each way): magic, wire version,
	// rank, flags, and the cumulative count of the peer's writes this
	// side has applied — the retransmit cut point.
	wireMagic   = 0x32764850
	wireVersion = 5
	hsLen       = 24
	// hsFlagReconnect marks a handshake that replaces an earlier
	// connection (informational; both paths are handled identically).
	hsFlagReconnect = 1 << 0
)

// Wire opcodes.
const (
	opWrite      = 1
	opRead       = 2
	opFAdd       = 3
	opCSwap      = 4
	opNack       = 5 // body: u8 op | u64 seq of the failed signaled write
	opReadResp   = 6
	opAtomicResp = 7
	opExg        = 8
	opExgResp    = 9
	opHeartbeat  = 10 // liveness probe + clock sync, suppressed by data
)

// Heartbeat body (since wire v4): u8 op | i64 txNS | i64 echoTxNS | i64
// echoRxNS, all wall-clock UnixNano in the sender's clock domain
// except echoTxNS, which echoes the receiver's own earlier tx stamp.
// The four timestamps of two opposing heartbeats form one NTP-style
// exchange: offset = ((t1-t0)+(t2-t3))/2, rtt = (t3-t0)-(t2-t1).
// The handshake admits only wireVersion peers, so every heartbeat has
// this length; a shorter body is ignored as malformed.
const hbBodyLen = 1 + 8 + 8 + 8

// tcpEpoch anchors the backend's monotonic timestamps (liveness
// tracking); time.Since against a fixed epoch never allocates.
var tcpEpoch = time.Now()

func nowNano() int64 { return int64(time.Since(tcpEpoch)) }

// outFrame is one queued outbound request.
type outFrame struct {
	data []byte
	// completion bookkeeping for requests that expect a response
	token    uint64
	signaled bool
}

// outItem is one entry on a peer's request channel: a single frame, or
// a doorbell batch that the writer folds into one flush (and that
// occupies one SendDepth slot, matching one doorbell ring).
type outItem struct {
	one  outFrame
	many []outFrame // non-nil for batches; `one` is unused then
}

// pendDst is a parked read/atomic result buffer and the rank the
// request went to (so a dead link can fail exactly its own ops).
type pendDst struct {
	buf  []byte
	rank int
}

// Backend is one rank's TCP transport endpoint.
type Backend struct {
	cfg  Config
	rank int
	size int

	ln    net.Listener
	links []*link // per-peer connection state (nil at self rank)

	//photon:lock tcpout 20
	outMu   sync.Mutex
	outs    []chan outItem // per peer; self uses loopback dispatch
	replyQs []*replyQueue  // per peer, lazily created
	sendWG  sync.WaitGroup

	// Per-peer cumulative-ack state (self slot unused).
	windows  []*sendWindow   // unacked opWrite frames, retained for retransmit
	recvSeqW []atomic.Uint64 // writes applied from each peer
	ackSent  []atomic.Uint64 // highest cumulative ack conveyed toward each peer
	ackDue   []atomic.Uint64 // highest applied write owed a standalone ack
	lastNack []atomic.Uint64 // highest nack seq queued toward each peer
	cstats   []connStats     // data-path counters per connection

	// mem is the registration table every remote access is validated
	// against and applied through, under the target region's own DMA
	// lock.
	mem *mem.RegTable

	// compq carries agent→engine completions and doubles as the wake
	// event source (kicked on completions and applied remote data).
	compq *core.CompQueue

	// pending read/atomic result buffers keyed by token; sentResp
	// tracks, per peer, which of them actually hit the wire (those are
	// the non-idempotent ops a reconnect cannot replay).
	//photon:lock tcppend 70
	pendMu   sync.Mutex
	pendBuf  map[uint64]pendDst
	sentResp []map[uint64]struct{}

	// Liveness plane, armed by ConfigureLiveness (core.HealthBackend).
	hbNS      atomic.Int64 // heartbeat interval; 0 = heartbeats off
	suspectNS atomic.Int64
	hbOnce    sync.Once

	// exchange state.
	//photon:lock tcpexg 80
	exgMu     sync.Mutex
	exgCond   *sync.Cond
	exgResp   mem.Queue[[][]byte] // completed exchanges (non-root waits here)
	exgGather []mem.Queue[[]byte] // root: per-rank queues of received blobs
	exgSelf   mem.Queue[[]byte]   // root: own blobs queued per generation

	closed chan struct{}
	//photon:lock tcpclose 90
	closeMu sync.Mutex
	done    bool
}

var (
	_ core.Backend       = (*Backend)(nil)
	_ core.StatsBackend  = (*Backend)(nil)
	_ core.HealthBackend = (*Backend)(nil)
)

// New builds the endpoint: it listens, forms the full mesh (lower rank
// dials higher rank), and starts the agent loops. New is collective
// across the job. The accept loop stays up for the life of the
// backend so a reconnecting lower-rank peer can always dial back in.
func New(cfg Config) (*Backend, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	n := len(cfg.Addrs)
	b := &Backend{
		cfg:       cfg,
		rank:      cfg.Rank,
		size:      n,
		links:     make([]*link, n),
		outs:      make([]chan outItem, n),
		windows:   make([]*sendWindow, n),
		recvSeqW:  make([]atomic.Uint64, n),
		ackSent:   make([]atomic.Uint64, n),
		ackDue:    make([]atomic.Uint64, n),
		lastNack:  make([]atomic.Uint64, n),
		cstats:    make([]connStats, n),
		mem:       mem.NewRegTable("tcp", nil),
		pendBuf:   make(map[uint64]pendDst),
		sentResp:  make([]map[uint64]struct{}, n),
		exgGather: make([]mem.Queue[[]byte], n),
		compq:     core.NewCompQueue(),
		closed:    make(chan struct{}),
	}
	b.exgCond = sync.NewCond(&b.exgMu)
	for i := range b.windows {
		b.windows[i] = newSendWindow()
		if i != b.rank {
			b.links[i] = newLink(i)
		}
	}

	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Addrs[cfg.Rank], err)
		}
	}
	b.ln = ln

	// Writers first: each parks in awaitConn until a connection is
	// installed, so the mesh can form in any order.
	for peer := 0; peer < b.size; peer++ {
		b.outs[peer] = make(chan outItem, cfg.SendDepth)
		b.sendWG.Add(1)
		go b.writer(peer)
	}
	go b.acceptLoop()

	// Dial higher ranks in parallel; lower ranks dial into acceptLoop.
	var wg sync.WaitGroup
	var connErr error
	var errMu sync.Mutex
	setErr := func(err error) {
		errMu.Lock()
		if connErr == nil {
			connErr = err
		}
		errMu.Unlock()
	}
	for peer := b.rank + 1; peer < b.size; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			if err := b.dialPeer(peer, cfg.DialTimeout); err != nil {
				setErr(err)
			}
		}(peer)
	}
	wg.Wait()
	if connErr == nil {
		connErr = b.awaitMesh(cfg.DialTimeout)
	}
	if connErr != nil {
		b.Close()
		return nil, connErr
	}
	return b, nil
}

// dialPeer establishes the initial connection to a higher rank,
// retrying connection-refused (the peer may not be listening yet)
// until the budget expires.
func (b *Backend) dialPeer(peer int, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		conn, err := net.DialTimeout("tcp", b.cfg.Addrs[peer], budget)
		if err == nil {
			applied, sent, herr := b.clientHandshake(conn, peer)
			if herr == nil {
				b.installConn(peer, conn, applied, sent)
				return nil
			}
			conn.Close()
			err = herr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tcp: dial rank %d (%s): %w", peer, b.cfg.Addrs[peer], err)
		}
		select {
		case <-b.closed:
			return core.ErrClosed
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// awaitMesh waits for every lower rank to have dialed in.
func (b *Backend) awaitMesh(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		missing := -1
		for peer := 0; peer < b.rank; peer++ {
			if b.links[peer].genA.Load() == 0 {
				missing = peer
				break
			}
		}
		if missing < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: rank %d never connected", ErrHandshake, missing)
		}
		select {
		case <-b.closed:
			return core.ErrClosed
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// writeHello sends one side of the symmetric handshake: magic, wire
// version, rank, flags, and the cumulative count of the peer's writes
// this side has applied (the retransmit cut point; 0 on an initial
// connection, where nothing has been applied yet).
func writeHello(conn net.Conn, rank int, flags uint32, applied uint64) error {
	hs := encodeHello(rank, flags, applied)
	_, err := conn.Write(hs[:])
	return err
}

func encodeHello(rank int, flags uint32, applied uint64) [hsLen]byte {
	var hs [hsLen]byte
	binary.LittleEndian.PutUint32(hs[0:], wireMagic)
	binary.LittleEndian.PutUint32(hs[4:], wireVersion)
	binary.LittleEndian.PutUint32(hs[8:], uint32(rank))
	binary.LittleEndian.PutUint32(hs[12:], flags)
	binary.LittleEndian.PutUint64(hs[16:], applied)
	return hs
}

// readHello reads one hello off conn and parses it.
func readHello(conn net.Conn) (rank int, flags uint32, applied uint64, err error) {
	var hs [hsLen]byte
	if _, rerr := io.ReadFull(conn, hs[:]); rerr != nil {
		return 0, 0, 0, fmt.Errorf("%w: %v", ErrHandshake, rerr)
	}
	return parseHello(hs[:])
}

// parseHello validates magic and wire version and returns the sender's
// rank, flags, and applied count.
func parseHello(hs []byte) (rank int, flags uint32, applied uint64, err error) {
	if len(hs) < hsLen {
		return 0, 0, 0, fmt.Errorf("%w: short hello (%d bytes)", ErrHandshake, len(hs))
	}
	if m := binary.LittleEndian.Uint32(hs[0:]); m != wireMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic %#x", ErrHandshake, m)
	}
	if v := binary.LittleEndian.Uint32(hs[4:]); v != wireVersion {
		return 0, 0, 0, fmt.Errorf("%w: wire version %d, want %d", ErrHandshake, v, wireVersion)
	}
	rank = int(binary.LittleEndian.Uint32(hs[8:]))
	flags = binary.LittleEndian.Uint32(hs[12:])
	applied = binary.LittleEndian.Uint64(hs[16:])
	return rank, flags, applied, nil
}

// clientHandshake runs the dialer side: send our hello, read the
// peer's response. Returns the peer's applied count (our retransmit
// cut) and the applied count we reported (the new connection's
// conveyed-ack floor).
func (b *Backend) clientHandshake(conn net.Conn, peer int) (peerApplied, sentApplied uint64, err error) {
	conn.SetDeadline(time.Now().Add(b.cfg.DialTimeout))
	defer conn.SetDeadline(time.Time{})
	var flags uint32
	if b.links[peer].genA.Load() > 0 {
		flags = hsFlagReconnect
	}
	sentApplied = b.recvSeqW[peer].Load()
	if err = writeHello(conn, b.rank, flags, sentApplied); err != nil {
		return 0, 0, err
	}
	rank, _, applied, rerr := readHello(conn)
	if rerr != nil {
		return 0, 0, rerr
	}
	if rank != peer {
		return 0, 0, fmt.Errorf("%w: dialed rank %d, got %d", ErrHandshake, peer, rank)
	}
	return applied, sentApplied, nil
}

// Rank returns this backend's rank.
func (b *Backend) Rank() int { return b.rank }

// Size returns the job size.
func (b *Backend) Size() int { return b.size }

// Register pins buf into the local registration table; the locker is
// the registration's own DMA lock.
func (b *Backend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	r, err := b.mem.Register(buf, mem.AccessAll)
	if err != nil {
		return mem.RemoteBuffer{}, nil, err
	}
	return r.Remote(), r.RLocker(), nil
}

// Deregister removes a registration.
func (b *Backend) Deregister(rb mem.RemoteBuffer) error { return b.mem.Deregister(rb) }

// enqueue places an item on a peer's writer queue, non-blocking. A
// peer latched down fails fast with core.ErrPeerDown.
func (b *Backend) enqueue(rank int, it outItem) error {
	if rank < 0 || rank >= b.size {
		return core.ErrBadRank
	}
	select {
	case <-b.closed:
		return core.ErrClosed
	default:
	}
	if lk := b.links[rank]; lk != nil && lk.down.Load() {
		return core.ErrPeerDown
	}
	select {
	case b.outs[rank] <- it:
		return nil
	default:
		return core.ErrWouldBlock
	}
}

// writeFrame builds an opWrite frame in a pooled buffer, copying the
// payload (snapshot-at-post). The frame goes back to the pool when the
// peer's cumulative ack (or nack) retires it from the send window, or
// once a loopback write is applied — never at flush, because a
// reconnect replays the window from these bytes.
func writeFrame(local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) []byte {
	f := mem.GetFrame(writeBodyMin + len(local))
	f[0] = opWrite
	binary.LittleEndian.PutUint64(f[1:], token)
	f[9] = 0
	if signaled {
		f[9] = 1
	}
	binary.LittleEndian.PutUint64(f[10:], raddr)
	binary.LittleEndian.PutUint32(f[18:], rkey)
	binary.LittleEndian.PutUint32(f[22:], uint32(len(local)))
	copy(f[26:], local)
	return f
}

// PostWrite queues a one-sided write toward rank.
func (b *Backend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	f := writeFrame(local, raddr, rkey, token, signaled)
	if err := b.enqueue(rank, outItem{one: outFrame{data: f, token: token, signaled: signaled}}); err != nil {
		mem.PutFrame(f) // never queued: the frame is still ours
		return err
	}
	return nil
}

// PostWriteBatch queues a burst of one-sided writes toward rank. The
// whole batch is one queue item, so a doorbell batch maps to a single
// writer wakeup and (queue permitting) a single flush syscall.
// Admission is all-or-nothing: on a full queue it returns
// (0, ErrWouldBlock) and the caller retries the whole batch, which the
// contract permits. Each frame copies its payload, so the
// snapshot-at-post contract holds here too.
func (b *Backend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	frames := make([]outFrame, len(reqs))
	for i, r := range reqs {
		frames[i] = outFrame{
			data:     writeFrame(r.Local, r.RemoteAddr, r.RKey, r.Token, r.Signaled),
			token:    r.Token,
			signaled: r.Signaled,
		}
	}
	if err := b.enqueue(rank, outItem{many: frames}); err != nil {
		for _, f := range frames {
			mem.PutFrame(f.data)
		}
		return 0, err
	}
	return len(reqs), nil
}

// PostRead queues a one-sided read from rank.
func (b *Backend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	return b.postResponseKeyed(rank, local, token, encodeRead(token, raddr, rkey, len(local)))
}

// PostFetchAdd queues a remote fetch-and-add.
func (b *Backend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	return b.postResponseKeyed(rank, result, token, encodeAtomic(opFAdd, token, raddr, rkey, add, 0))
}

// PostCompSwap queues a remote compare-and-swap.
func (b *Backend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	return b.postResponseKeyed(rank, result, token, encodeAtomic(opCSwap, token, raddr, rkey, compare, swap))
}

// postResponseKeyed queues a request that completes via a token-keyed
// response frame (reads and atomics), parking the result buffer in
// pendBuf until the response lands.
func (b *Backend) postResponseKeyed(rank int, result []byte, token uint64, f []byte) error {
	b.pendMu.Lock()
	b.pendBuf[token] = pendDst{buf: result, rank: rank}
	b.pendMu.Unlock()
	if err := b.enqueue(rank, outItem{one: outFrame{data: f, token: token, signaled: true}}); err != nil {
		b.pendMu.Lock()
		delete(b.pendBuf, token)
		b.pendMu.Unlock()
		return err
	}
	return nil
}

// markSentResp records response-keyed tokens whose request frames are
// about to hit the wire toward peer: if that connection dies, exactly
// these ops are the non-idempotent in-flight ones a reconnect cannot
// replay.
func (b *Backend) markSentResp(peer int, toks []uint64) {
	b.pendMu.Lock()
	sr := b.sentResp[peer]
	if sr == nil {
		sr = make(map[uint64]struct{})
		b.sentResp[peer] = sr
	}
	for _, tok := range toks {
		sr[tok] = struct{}{}
	}
	b.pendMu.Unlock()
}

// ApplyLocal places data into this rank's own registered memory with
// full validation (loopback DMA for packed-put payloads).
func (b *Backend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	return b.mem.Write(false, raddr, rkey, data, nil)
}

// WriteActivity counts the writes applied to one registration.
func (b *Backend) WriteActivity(rb mem.RemoteBuffer) (func() uint64, bool) {
	return b.mem.WriteActivity(rb)
}

// Poll reaps completions.
func (b *Backend) Poll(dst []core.BackendCompletion) int {
	return b.compq.Drain(dst)
}

// Notify returns the channel that receives a token whenever the agent
// queues a completion or applies remote data, for callers driving the
// bare transport without an engine. It goes idle once a wake sink is
// installed.
func (b *Backend) Notify() <-chan struct{} { return b.compq.Wake().Chan() }

// SetWakeSink makes completion and remote-data events call fn directly
// instead of latching the Notify channel.
func (b *Backend) SetWakeSink(fn func()) { b.compq.Wake().SetSink(fn) }

// kick signals the wake latch without blocking; an event already
// pending means the waiter will see this one anyway.
func (b *Backend) kick() { b.compq.Kick() }

// nudge signals a cap-1 event channel without blocking.
func nudge(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Close tears down connections and loops.
func (b *Backend) Close() error {
	b.closeMu.Lock()
	if b.done {
		b.closeMu.Unlock()
		return nil
	}
	b.done = true
	close(b.closed)
	b.closeMu.Unlock()
	if b.ln != nil {
		b.ln.Close()
	}
	for _, lk := range b.links {
		if lk == nil {
			continue
		}
		lk.mu.Lock()
		if lk.conn != nil {
			lk.conn.Close()
		}
		lk.cond.Broadcast()
		lk.mu.Unlock()
		nudge(lk.reconn)
		nudge(lk.installed)
	}
	b.exgMu.Lock()
	b.exgCond.Broadcast()
	b.exgMu.Unlock()
	return nil
}

func (b *Backend) isClosed() bool {
	select {
	case <-b.closed:
		return true
	default:
		return false
	}
}

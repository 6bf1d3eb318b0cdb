// Package core implements Photon, the remote-memory-access middleware:
// one-sided put/get with completion identifiers delivered to both the
// initiator and the target, ledger-based notification without message
// matching, an eager/rendezvous protocol split, and probe-driven
// progress — the feature set a message-driven runtime (HPX-5 in the
// original) needs from its network layer.
//
// # Completion model
//
// Every data-movement call names up to two completion identifiers
// (RIDs): a local RID surfaced to this rank when the operation's
// buffers are reusable, and a remote RID surfaced to the target rank
// when the data is visible there. Remote RIDs travel in ledger entries
// — RDMA writes into per-peer circular buffers the target polls — so
// the target learns of one-sided arrivals without posting or matching
// receives. Completions are harvested with Probe/PopLocal/PopRemote;
// progress happens on the caller's thread (no mandatory progress
// thread), matching task-scheduler runtimes.
//
// # Protocol split
//
// Send packs payloads up to the eager threshold directly into a ledger
// entry (one RDMA write, one copy each side). Larger payloads use a
// receiver-initiated rendezvous: the sender registers its buffer and
// writes an RTS control entry; the target RDMA-reads the data into a
// staging slab and writes back a FIN, which completes the send. Direct
// PutWithCompletion/GetWithCompletion skip all staging when the caller
// already knows the remote buffer (registered and exchanged at setup).
//
// # Flow control
//
// Ledgers are credit-flow-controlled. Consumed-entry counts return to
// the sender through per-peer mailbox words updated with unsignaled
// RDMA writes — cumulative counters, so updates are idempotent and
// never themselves need flow control (this is how the deadlock that
// naive in-band credit returns would cause is avoided).
package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"photon/internal/flight"
	"photon/internal/ledger"
	"photon/internal/mem"
	"photon/internal/metrics"
)

// Completion is one harvested completion event.
type Completion struct {
	// Rank is the peer involved: the target for local completions,
	// the initiator for remote ones.
	Rank int
	// RID is the completion identifier supplied by the initiator.
	RID uint64
	// Data carries the payload for packed/rendezvous message
	// deliveries (remote completions only). Data is caller-owned from
	// the moment the completion is returned by Probe/Pop/Wait: the
	// middleware holds no other reference to it and never recycles it,
	// so the caller may retain or mutate it indefinitely.
	Data []byte
	// Value carries the prior memory value for atomic operations.
	Value uint64
	// Local distinguishes initiator-side from target-side events.
	Local bool
	// Err is non-nil when the underlying operation failed.
	Err error

	// traced marks completions of observed ops — sampled at post time
	// on the initiator, or carrying a wire trace context on the target
	// — so the harvest-side reap events record only for ops that are
	// already in the trace. Unsampled traffic pops with zero ring
	// writes.
	traced bool
}

// ProbeFlags selects which completion stream Probe consults.
type ProbeFlags int

// Probe flag values.
const (
	ProbeLocal ProbeFlags = 1 << iota
	ProbeRemote
	ProbeAny = ProbeLocal | ProbeRemote
)

// Stats counts engine activity (ablation and test aid).
type Stats struct {
	PutsDirect     int64
	PutsPacked     int64
	Gets           int64
	RdzvSends      int64
	RdzvRecvs      int64
	Atomics        int64
	CreditWrites   int64
	ProgressCalls  int64
	DeferredWrites int64

	// Hot-path memory/batching counters.
	EntryPoolHits   int64 // entry scratch served from the free list
	EntryPoolMisses int64 // entry scratch that had to allocate
	RingOverflows   int64 // completion-ring growths past their initial 1024 slots
	BatchPosts      int64 // doorbell batches issued (PostWriteBatch)
	BatchedOps      int64 // writes carried by those batches
}

// opKind classifies a pending token.
type opKind uint8

const (
	opPutLocal opKind = iota + 1
	opGetLocal
	opRdzvGet
	opAtomic
	opRdzvSend // resolved by the target's FIN, not by the backend
)

// pendingOp is the engine-side state for one in-flight op: a signaled
// backend op, or a rendezvous send awaiting its FIN.
type pendingOp struct {
	kind      opKind
	rank      int
	rid       uint64 // local RID to surface
	remoteRID uint64 // remote RID to notify (GWC), 0 = none
	result    []byte // atomic result buffer
	block     *mem.Block
	size      int
	rdzvID    uint64           // opRdzvGet: the sender's token, which the FIN carries back
	rb        mem.RemoteBuffer // opRdzvSend: the send's registration, released at FIN

	// postedBuf, for opRdzvGet, is a caller-posted receive buffer the
	// RDMA read lands in directly (no staging block, no copy-out); nil
	// selects the slab-staging path.
	postedBuf []byte

	// deadlineNS is the nowNanos instant after which the op is swept
	// into an ErrTimeout error completion; 0 = no deadline (OpTimeout
	// disabled).
	deadlineNS int64

	// Observability state (see obs.go). postNS is the obsStamp taken
	// when the op was posted; 0 means the op is not sampled and every
	// lifecycle site skips in one comparison. remoteVis marks ops whose
	// signaled completion fences remote visibility, so the same
	// timestamp closes the post→remote-delivery distribution.
	postNS    int64
	mkind     metrics.OpKind
	remoteVis bool
	// traced marks target-side ops (rendezvous staging reads) whose
	// initiator sampled the op: no local post timestamp exists, but
	// the surfaced delivery should still carry the trace marker.
	traced bool
}

// wireBatchMax caps how many deferred writes one doorbell batch
// carries (and sizes the reusable request scratch).
const wireBatchMax = 16

// wireOp is a fully-specified deferred write (its ledger slot, if any,
// is already reserved) parked because the transport was busy. pooled
// marks local as entry-pool scratch to recycle once posted.
type wireOp struct {
	local    []byte
	raddr    uint64
	rkey     uint32
	token    uint64
	signaled bool
	pooled   bool
}

// entryOp is a built ledger entry (pooled, not yet sealed) parked
// for credits in its class's ledger.
type entryOp struct {
	class int
	ent   []byte
}

// rtsOp is an inbound rendezvous request awaiting slab space or SQ room.
type rtsOp struct {
	rank      int
	rdzvID    uint64
	remoteRID uint64
	size      int
	addr      uint64
	rkey      uint32
	traced    bool // RTS carried a wire trace context (sampled send)
}

// peerState holds all per-peer protocol state.
type peerState struct {
	rank int
	recv [numClasses]*ledger.Receiver
	send [numClasses]*ledger.Sender

	// deferred counts parked work items; consumedHint counts ledger
	// entries consumed since the last credit-return pass. Both are
	// cheap fast-path guards so Progress skips idle peers without
	// taking their mutexes.
	deferred     atomic.Int64
	consumedHint atomic.Int64

	// health mirrors the failure detector's view of this peer
	// (PeerHealth values); written by the fault sweep under the engine
	// mutex, read lock-free by the op fast paths. Down is terminal.
	health atomic.Int32

	// lastTransitionNS is the wall-clock UnixNano of the peer's last
	// health transition (0 = never transitioned); written by the fault
	// sweep, read by the health table and the flight recorder.
	lastTransitionNS atomic.Int64

	// consumed counts entries drained from each receive ledger; it is
	// written only by the engine (serialized by its mutex), so credit
	// maintenance reads it without touching ledger mutexes.
	consumed [numClasses]int64

	//photon:lock peer 40
	mu           sync.Mutex
	lastMail     [numClasses]uint64 // mailbox value already credited
	lastReturned [numClasses]int64  // consumed count already written back
	pendingWire  mem.Queue[wireOp]
	pendingEntry mem.Queue[entryOp]
	pendingRTS   mem.Queue[rtsOp]
	remoteArena  mem.RemoteBuffer // peer's arena descriptor
}

// Photon is one rank's middleware instance.
type Photon struct {
	be   Backend
	cfg  Config
	rank int
	size int

	arena   []byte
	arenaRB mem.RemoteBuffer
	//photon:lock arena 30
	arenaLk  sync.Locker
	activity func() uint64 // arena DMA write counter (Backend.WriteActivity)
	mailOff  int
	slabOff  int
	slab     *mem.Slab

	peers []*peerState

	// pool recycles fixed-size entry scratch buffers (ledger entries
	// under construction, atomic result words, mailbox words) so the
	// op fast path never hits the allocator.
	pool *mem.BufPool

	// tok maps tokens — signaled backend posts and rendezvous sends —
	// to pending-op state: sharded and generation-tagged (see
	// token.go).
	tok tokenTable

	// recvs is the one-shot posted-receive table (see recv.go): message
	// deliveries whose RID has a posted buffer land there directly.
	recvs recvTab

	// eng is the progress engine (see progress.go): its try-lock,
	// completion rings, sweep scratch, and idle counters.
	eng engine

	// nfy fans backend activity events out to parked waiters and the
	// BackendNotify latch; it is the backend's wake sink.
	nfy notifier

	// reqPool recycles WriteReq slices for op-path doorbell batches
	// (ops run concurrently, so these cannot share the engine scratch).
	reqPool sync.Pool

	closed atomic.Bool

	// Fault-tolerance plane (see fault.go). hbe is the backend's
	// failure detector (nil when unsupported or unconfigured);
	// faultPollNS gates the whole sweep behind one int64 comparison
	// per Progress round when both OpTimeout and liveness are off.
	hbe          HealthBackend
	opTimeoutNS  int64
	faultPollNS  int64
	nextFaultNS  int64       // serialized by the engine mutex
	faultScratch []pendingOp // reused by fault sweeps (engine mutex)

	suspectTransitions atomic.Int64
	opsTimedOut        atomic.Int64
	peersDown          atomic.Int64

	// obs is the observability plane: trace ring, metrics registry,
	// sampling state (see obs.go).
	obs obsState

	// flightRec is the fault flight recorder (see flightrec.go); nil
	// unless Config.FlightRecords > 0.
	flightRec *flight.Recorder

	stats struct {
		putsDirect, putsPacked, gets     atomic.Int64
		rdzvSent, rdzvRecvd, atomics     atomic.Int64
		creditWrites, progress, deferred atomic.Int64
		batchPosts, batchedOps           atomic.Int64
	}
}

// Init brings up a Photon instance over the backend: it allocates and
// registers the ledger arena, performs the collective bootstrap
// exchange, and builds per-peer ledger state. Init is collective: all
// ranks of the job must call it with an identical Config.
func Init(be Backend, cfg Config) (*Photon, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	poolBuf := cfg.EagerEntrySize
	if poolBuf < 64 {
		poolBuf = 64
	}
	p := &Photon{
		be:   be,
		cfg:  cfg,
		rank: be.Rank(),
		size: be.Size(),
		pool: mem.NewBufPool(poolBuf, 256),
		eng: engine{
			localCQ:     newCompRing(),
			remoteCQ:    newCompRing(),
			wireScratch: make([]wireOp, 0, wireBatchMax),
			reqScratch:  make([]WriteReq, 0, wireBatchMax),
		},
		nfy: notifier{extern: make(chan struct{}, 1)},
	}
	p.recvs.init()
	p.initObs(&cfg)
	p.reqPool.New = func() any {
		s := make([]WriteReq, 0, wireBatchMax)
		return &s
	}
	if p.size < 1 || p.rank < 0 || p.rank >= p.size {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrBadRank, p.rank, p.size)
	}

	// Arena layout: per-peer receive ledgers, then the credit
	// mailboxes, then the rendezvous staging slab.
	perPeer := cfg.perPeerBytes()
	p.mailOff = perPeer * p.size
	mailBytes := p.size * numClasses * 8
	p.slabOff = p.mailOff + mailBytes
	p.slabOff = (p.slabOff + mem.SlabAlign - 1) &^ (mem.SlabAlign - 1)
	slabBytes := (cfg.RdzvSlabSize + mem.SlabAlign - 1) &^ (mem.SlabAlign - 1)
	p.arena = make([]byte, p.slabOff+slabBytes)

	rb, lk, err := be.Register(p.arena)
	if err != nil {
		return nil, fmt.Errorf("photon: register arena: %w", err)
	}
	p.arenaRB = rb
	p.arenaLk = lk
	act, ok := be.WriteActivity(rb)
	if !ok {
		return nil, fmt.Errorf("photon: backend counts no write activity for the arena it just registered")
	}
	p.activity = act
	if hb, ok := be.(HealthBackend); ok && cfg.HeartbeatInterval > 0 {
		hb.ConfigureLiveness(cfg.HeartbeatInterval, cfg.SuspectAfter)
		p.hbe = hb
	}
	p.opTimeoutNS = int64(cfg.OpTimeout)
	p.initFaultPoll()
	if cfg.FlightRecords > 0 {
		p.flightRec = flight.NewRecorder(cfg.FlightRecords, flightWindow)
	}

	slab, err := mem.NewSlabOver(p.arena[p.slabOff:], rb.Addr+uint64(p.slabOff))
	if err != nil {
		return nil, err
	}
	p.slab = slab

	// Bootstrap exchange: publish the arena descriptor. Peers derive
	// every ledger and mailbox address from it plus the shared Config.
	blob := make([]byte, 12)
	binary.LittleEndian.PutUint64(blob[0:], rb.Addr)
	binary.LittleEndian.PutUint32(blob[8:], rb.RKey)
	all, err := be.Exchange(blob)
	if err != nil {
		return nil, fmt.Errorf("photon: bootstrap exchange: %w", err)
	}
	if len(all) != p.size {
		return nil, fmt.Errorf("photon: exchange returned %d blobs for %d ranks", len(all), p.size)
	}

	p.peers = make([]*peerState, p.size)
	for peer := 0; peer < p.size; peer++ {
		if len(all[peer]) < 12 {
			return nil, fmt.Errorf("photon: short bootstrap blob from rank %d", peer)
		}
		ps := &peerState{
			rank: peer,
			remoteArena: mem.RemoteBuffer{
				Addr: binary.LittleEndian.Uint64(all[peer][0:]),
				RKey: binary.LittleEndian.Uint32(all[peer][8:]),
				Len:  len(p.arena), // identical config => identical layout
			},
		}
		// My receive ledgers for this peer live in my arena at the
		// peer's slot; the peer's matching send ledgers target them.
		myRegion := peer * perPeer
		for cl := 0; cl < numClasses; cl++ {
			off := myRegion + cfg.classOffset(cl)
			buf := p.arena[off : off+cfg.classBytes(cl)]
			rcv, err := ledger.NewReceiver(buf, cfg.entrySize(cl), lk)
			if err != nil {
				return nil, err
			}
			ps.recv[cl] = rcv
			// Sender half: the peer's arena, my slot within it.
			peerRegion := p.rank * perPeer
			sndRB := mem.RemoteBuffer{
				Addr: ps.remoteArena.Addr + uint64(peerRegion+cfg.classOffset(cl)),
				RKey: ps.remoteArena.RKey,
				Len:  cfg.classBytes(cl),
			}
			snd, err := ledger.NewSender(sndRB, cfg.entrySize(cl))
			if err != nil {
				return nil, err
			}
			ps.send[cl] = snd
		}
		p.peers[peer] = ps
	}
	be.SetWakeSink(p.nfy.fanout)
	return p, nil
}

// Rank returns this instance's rank.
func (p *Photon) Rank() int { return p.rank }

// Size returns the job size.
func (p *Photon) Size() int { return p.size }

// Config returns the effective (defaulted) configuration.
func (p *Photon) Config() Config { return p.cfg }

// EagerThreshold reports the largest payload Send packs inline.
func (p *Photon) EagerThreshold() int {
	if p.cfg.ForceRendezvous {
		return 0
	}
	return p.cfg.packedCap()
}

// Stats returns an activity snapshot.
func (p *Photon) Stats() Stats {
	hits, misses := p.pool.Counters()
	overflows := p.eng.localCQ.overflows.Load() + p.eng.remoteCQ.overflows.Load()
	return Stats{
		PutsDirect:     p.stats.putsDirect.Load(),
		PutsPacked:     p.stats.putsPacked.Load(),
		Gets:           p.stats.gets.Load(),
		RdzvSends:      p.stats.rdzvSent.Load(),
		RdzvRecvs:      p.stats.rdzvRecvd.Load(),
		Atomics:        p.stats.atomics.Load(),
		CreditWrites:   p.stats.creditWrites.Load(),
		ProgressCalls:  p.stats.progress.Load(),
		DeferredWrites: p.stats.deferred.Load(),

		EntryPoolHits:   hits,
		EntryPoolMisses: misses,
		RingOverflows:   overflows,
		BatchPosts:      p.stats.batchPosts.Load(),
		BatchedOps:      p.stats.batchedOps.Load(),
	}
}

// RegisterBuffer pins buf for remote access and returns its descriptor
// (to be exchanged with peers) and a read-locker that must be held when
// locally reading bytes that remote peers write into buf.
func (p *Photon) RegisterBuffer(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	if p.closed.Load() {
		return mem.RemoteBuffer{}, nil, ErrClosed
	}
	return p.be.Register(buf)
}

// DeregisterBuffer releases a registration made with RegisterBuffer.
func (p *Photon) DeregisterBuffer(rb mem.RemoteBuffer) error {
	return p.be.Deregister(rb)
}

// bufBlobLen is the wire size of one exchanged buffer descriptor:
// addr8 | rkey4 | len8.
const bufBlobLen = 8 + 4 + 8

// ExchangeBuffers is a collective helper: every rank contributes one
// buffer descriptor and receives all of them indexed by rank. Ranks
// with nothing to share pass the zero RemoteBuffer.
func (p *Photon) ExchangeBuffers(rb mem.RemoteBuffer) ([]mem.RemoteBuffer, error) {
	blob := make([]byte, bufBlobLen)
	binary.LittleEndian.PutUint64(blob[0:], rb.Addr)
	binary.LittleEndian.PutUint32(blob[8:], rb.RKey)
	binary.LittleEndian.PutUint64(blob[12:], uint64(rb.Len))
	all, err := p.be.Exchange(blob)
	if err != nil {
		return nil, err
	}
	out := make([]mem.RemoteBuffer, len(all))
	for i, b := range all {
		if len(b) < bufBlobLen {
			return nil, fmt.Errorf("photon: short buffer blob from rank %d", i)
		}
		out[i] = mem.RemoteBuffer{
			Addr: binary.LittleEndian.Uint64(b[0:]),
			RKey: binary.LittleEndian.Uint32(b[8:]),
			Len:  int(binary.LittleEndian.Uint64(b[12:])),
		}
	}
	return out, nil
}

// Close shuts the instance down deterministically: every in-flight
// operation — pending backend tokens, parked deferred work, open
// rendezvous sends — is failed with an ErrClosed error completion
// before the transport is torn down, so concurrent waiters observe
// either their completion or the error rather than hanging.
func (p *Photon) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	// Serialize with the progress engine: with its mutex held the
	// engine is quiescent and every remaining token is ours to sweep.
	p.eng.mu.Lock()
	p.failAllInflight()
	p.eng.mu.Unlock()
	return p.be.Close()
}

// newToken registers a pending op and returns its token, stamping the
// OpTimeout deadline when deadlines are armed (one comparison and a
// monotonic clock read; no allocation).
func (p *Photon) newToken(op pendingOp) uint64 {
	if p.opTimeoutNS != 0 {
		op.deadlineNS = nowNanos() + p.opTimeoutNS
	}
	return p.tok.put(op)
}

// takeToken resolves and removes a pending op. Stale tokens — late or
// duplicated completions whose slot generation has moved on — return
// false and are ignored by the engine.
func (p *Photon) takeToken(tok uint64) (pendingOp, bool) { return p.tok.take(tok) }

// checkRank validates a peer rank.
func (p *Photon) checkRank(rank int) error {
	if rank < 0 || rank >= p.size {
		return fmt.Errorf("%w: %d", ErrBadRank, rank)
	}
	return nil
}

// pushLocal enqueues a local completion.
//
//photon:hotpath
func (p *Photon) pushLocal(c Completion) {
	c.Local = true
	p.eng.localCQ.push(c)
}

// pushRemote enqueues a remote completion.
//
//photon:hotpath
func (p *Photon) pushRemote(c Completion) {
	p.eng.remoteCQ.push(c)
}

// Package nicsim implements a software model of an RDMA-capable NIC
// ("RNIC") faithful enough to host the Photon middleware unchanged.
//
// The model follows the InfiniBand verbs architecture:
//
//   - Memory regions (MR): user buffers registered with the NIC,
//     addressable for remote access by a remote key (rkey) plus a
//     NIC-assigned virtual base address. Remote operations are bounds-
//     and access-checked against the MR table, exactly the checks a
//     hardware translation/protection table does.
//   - Queue pairs (QP): reliable connected endpoints. A posted send work
//     request goes onto the fabric on the caller's goroutine, and stays
//     outstanding until its ACK or response arrives; receives are posted
//     to a receive queue consumed by incoming SENDs.
//   - Completion queues (CQ): bounded rings that report work completion.
//     Send-side completions are generated when the responder's ACK (or
//     read/atomic response) arrives, so completion timing includes a
//     full round trip, as on real RC transports.
//
// Supported opcodes: SEND, RDMA WRITE, RDMA READ, and the two masked
// 64-bit atomics FETCH-ADD and COMPARE-SWAP. Unsignaled work requests
// suppress the sender-side CQE (selective signaling), which Photon uses
// on its ledger writes.
//
// The NIC attaches to a fabric.Fabric node; in-order per-link delivery
// gives the in-order guarantees of an RC queue pair.
//
// Where the responder runs. On a drained zero-delay link the fabric
// hands a frame to the destination NIC on the sending goroutine, so a
// post can run the responder's apply, and the ACK or response can run
// the initiator's completion, before PostSend returns. On that path
// the NIC never waits: every lock it needs — the MR and QPN lookups
// under the NIC lock, the region's DMA lock, the atomic lock, the QP
// lock — is only tried, and when one is held elsewhere the NIC refuses
// the frame before touching anything, and the fabric's delivery
// goroutine brings it back to be applied blocking, in order. (The CQ
// lock is taken outright: nobody holds it across anything else.)
// Neither may anyone hold one of those locks across a post or a
// fabric send: the fabric field carries a lockorder directive that
// makes photonvet check it.
package nicsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"photon/internal/fabric"
)

// Access is a bitmask of permissions granted when registering memory.
type Access uint8

// Access flag values, mirroring IBV_ACCESS_*.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteRead
	AccessRemoteWrite
	AccessRemoteAtomic
)

// AccessAll grants every permission; Photon registers its ledgers and
// eager buffers with this.
const AccessAll = AccessLocalWrite | AccessRemoteRead | AccessRemoteWrite | AccessRemoteAtomic

// Errors returned by NIC operations.
var (
	ErrClosed       = errors.New("nicsim: NIC closed")
	ErrSQFull       = errors.New("nicsim: send queue full")
	ErrRQFull       = errors.New("nicsim: receive queue full")
	ErrQPState      = errors.New("nicsim: queue pair not in a usable state")
	ErrBadWR        = errors.New("nicsim: malformed work request")
	ErrUnregistered = errors.New("nicsim: memory region not registered")
)

// MR is a registered memory region.
//
// Remote operations against the region (writes, reads, atomics) are
// serialized with an internal RWMutex; local code that polls memory the
// remote side writes (ledgers, mailboxes) must hold the read lock via
// RLocker while reading. This stands in for the cache-coherent ordered
// visibility real DMA provides.
//
// The NIC recycles MR objects: once DeregisterMemory returns, the *MR,
// its RLocker and its WriteActivity belong to whichever registration
// the NIC hands the object to next, and must not be used again.
type MR struct {
	nic *NIC
	//photon:lock mr 20
	mu     sync.RWMutex
	writes atomic.Uint64 // bumped after every remote write/atomic
	// buf, base, rkey and access are written under mu; remote
	// accesses read them under it, and the registration's owner
	// without it once RegisterMemory has returned. rkey is the
	// registration's generation: keys are never reused, and a
	// deregistered MR carries rkey 0.
	buf    []byte
	base   uint64
	rkey   uint32
	access Access
}

// WriteActivity returns a monotonic count of remote writes and atomics
// applied to the region — the software analogue of a DMA event counter.
// Pollers use it to skip sweeping rings when nothing has arrived.
func (m *MR) WriteActivity() uint64 { return m.writes.Load() }

// RLocker returns a read-locker that synchronizes local polling against
// remote DMA into the region.
func (m *MR) RLocker() sync.Locker { return m.mu.RLocker() }

// Base returns the NIC-assigned virtual base address of the region.
// Remote peers address bytes in the region as Base()+offset.
func (m *MR) Base() uint64 { return m.base }

// RKey returns the remote access key.
func (m *MR) RKey() uint32 { return m.rkey }

// Len returns the length of the registered buffer.
func (m *MR) Len() int { return len(m.buf) }

// Counters aggregates NIC activity, useful for ablation reporting.
type Counters struct {
	SendsPosted    int64
	RecvsPosted    int64
	WireFrames     int64
	WireBytes      int64
	Completions    int64
	RemoteWrites   int64
	RemoteReads    int64
	RemoteAtomics  int64
	RecvDelivered  int64
	ProtectionErrs int64
}

// Config tunes NIC behaviour.
type Config struct {
	// SQDepth bounds outstanding send work requests per QP: requests
	// posted and not yet answered by their ACK or response (default
	// 1024). A post past it fails with ErrSQFull.
	SQDepth int
	// RQDepth bounds posted receive buffers per QP (default 1024).
	RQDepth int
}

func (c *Config) setDefaults() {
	if c.SQDepth <= 0 {
		c.SQDepth = 1024
	}
	if c.RQDepth <= 0 {
		c.RQDepth = 1024
	}
}

// NIC is one simulated RDMA NIC attached to a fabric node.
type NIC struct {
	node int
	// A fabric send may run any NIC's frame handler before it returns.
	//photon:reenters onFrame
	fab    *fabric.Fabric
	cfg    Config
	closed atomic.Bool

	// mu guards the tables below. It is never held across another
	// lock, so frame handlers take it shared, and only try it on a
	// sender's goroutine.
	//photon:lock nic 10
	mu       sync.RWMutex
	mrsByKey map[uint32]*MR // rkey -> MR
	freeMRs  []*MR          // deregistered MRs, reused by RegisterMemory
	nextKey  uint32
	nextBase uint64
	qps      map[uint32]*QP
	nextQPN  uint32

	//photon:lock nicatomic 15
	atomicMu sync.Mutex // serializes remote atomics against this NIC's memory

	// writeHook, when set, runs after every remote write or atomic is
	// applied to this NIC's registered memory (and after loopback
	// LocalWrite) — the simulated analogue of a DMA-completion
	// interrupt. Middleware installs its notify kick here so waiters
	// park instead of polling for ledger arrivals.
	writeHook atomic.Pointer[func()]

	counters struct {
		sendsPosted, recvsPosted            atomic.Int64
		wireFrames, wireBytes               atomic.Int64
		completions                         atomic.Int64
		remoteWrites, remoteReads, remoteAt atomic.Int64
		recvDelivered, protErrs             atomic.Int64
	}
}

// New creates a NIC and attaches it to fabric node `node`.
func New(fab *fabric.Fabric, node int, cfg Config) (*NIC, error) {
	cfg.setDefaults()
	n := &NIC{
		node:     node,
		fab:      fab,
		cfg:      cfg,
		mrsByKey: make(map[uint32]*MR),
		nextKey:  1,
		nextBase: 0x1000, // never hand out address 0
		qps:      make(map[uint32]*QP),
		nextQPN:  1,
	}
	if err := fab.AttachTry(node, n.onFrame); err != nil {
		return nil, err
	}
	return n, nil
}

// Counters returns a snapshot of activity counters.
func (n *NIC) Counters() Counters {
	return Counters{
		SendsPosted:    n.counters.sendsPosted.Load(),
		RecvsPosted:    n.counters.recvsPosted.Load(),
		WireFrames:     n.counters.wireFrames.Load(),
		WireBytes:      n.counters.wireBytes.Load(),
		Completions:    n.counters.completions.Load(),
		RemoteWrites:   n.counters.remoteWrites.Load(),
		RemoteReads:    n.counters.remoteReads.Load(),
		RemoteAtomics:  n.counters.remoteAt.Load(),
		RecvDelivered:  n.counters.recvDelivered.Load(),
		ProtectionErrs: n.counters.protErrs.Load(),
	}
}

// RegisterMemory registers buf with the NIC and returns its MR. The
// buffer is pinned for the life of the registration: callers must keep
// it reachable and must not reallocate it. The MR object comes from the
// NIC's free list of deregistered regions when one is there, so a
// register/deregister cycle allocates nothing in steady state.
func (n *NIC) RegisterMemory(buf []byte, access Access) (*MR, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", ErrBadWR)
	}
	n.mu.Lock()
	key := n.nextKey
	n.nextKey++
	base := n.nextBase
	// Align bases to 4KiB pages like a real pin would, and keep a
	// guard gap so off-by-one remote addresses never alias regions.
	sz := (uint64(len(buf)) + 0xFFF) &^ uint64(0xFFF)
	n.nextBase += sz + 0x1000
	var mr *MR
	if k := len(n.freeMRs) - 1; k >= 0 {
		mr = n.freeMRs[k]
		n.freeMRs[k] = nil
		n.freeMRs = n.freeMRs[:k]
	} else {
		mr = &MR{nic: n}
	}
	n.mu.Unlock()
	// A stale access may still hold the recycled object; taking its
	// DMA lock waits it out, and the new rkey makes the next one NAK.
	mr.mu.Lock()
	mr.buf, mr.base, mr.rkey, mr.access = buf, base, key, access
	mr.mu.Unlock()
	n.mu.Lock()
	n.mrsByKey[key] = mr
	n.mu.Unlock()
	return mr, nil
}

// LocalWrite performs a loopback DMA write: it validates (rkey, addr,
// len) against the MR table exactly as a remote write would and places
// data under the region's DMA lock. Middleware uses it to land payloads
// that arrived packed inside other transfers.
func (n *NIC) LocalWrite(addr uint64, rkey uint32, data []byte) error {
	if err := n.accessMR(rkey, addr, len(data), AccessRemoteWrite, false, func(dst []byte) {
		copy(dst, data)
	}); err != nil {
		return err
	}
	n.counters.remoteWrites.Add(1)
	n.kickWriteHook()
	return nil
}

// SetWriteHook installs fn to run after every remote write/atomic
// applied to this NIC's memory (nil clears it). fn must be
// non-blocking and callable from any goroutine.
func (n *NIC) SetWriteHook(fn func()) {
	if fn == nil {
		n.writeHook.Store(nil)
		return
	}
	n.writeHook.Store(&fn)
}

func (n *NIC) kickWriteHook() {
	if f := n.writeHook.Load(); f != nil {
		(*f)()
	}
}

// DeregisterMemory removes a registration. Remote operations that race
// the deregistration either finish before it returns or fail with
// protection errors, as on real hardware: none touches buf afterwards.
// The MR object then goes back to the NIC's free list, so mr — and
// any RLocker or WriteActivity taken from it — is dead once this
// returns. A second DeregisterMemory of it returns ErrUnregistered
// only while the object waits on the free list.
func (n *NIC) DeregisterMemory(mr *MR) error {
	n.mu.Lock()
	if _, ok := n.mrsByKey[mr.rkey]; !ok {
		n.mu.Unlock()
		return ErrUnregistered
	}
	delete(n.mrsByKey, mr.rkey)
	n.mu.Unlock()
	// Taking the DMA lock waits out an operation already applying to
	// the region; one that looked the rkey up but has not locked yet
	// finds rkey 0 when it does.
	mr.mu.Lock()
	mr.buf, mr.rkey = nil, 0
	mr.mu.Unlock()
	n.mu.Lock()
	n.freeMRs = append(n.freeMRs, mr)
	n.mu.Unlock()
	return nil
}

// errBusy is accessMR's answer in try mode when a lock it needs is
// held elsewhere: nothing was touched, and the caller refuses the frame.
var errBusy = errors.New("nicsim: lock busy")

// accessMR is the single path by which a remote or loopback operation
// touches registered memory. It resolves rkey, takes the region's DMA
// lock (shared for reads; exclusive for writes; for atomics, the NIC's
// atomic lock first), re-checks the rkey under that lock — the MR may
// have been deregistered and recycled since the lookup — validates
// that [addr, addr+length) lies inside the region and that the region
// grants need, and runs apply on those bytes before unlocking. Any
// failure counts a protection error. apply must not retain its slice.
// In try mode it only tries each lock, and returns errBusy, having
// done nothing, when one is held elsewhere.
func (n *NIC) accessMR(rkey uint32, addr uint64, length int, need Access, try bool, apply func([]byte)) error {
	if !n.mu.TryRLock() {
		if try {
			return errBusy
		}
		n.mu.RLock()
	}
	mr, ok := n.mrsByKey[rkey]
	n.mu.RUnlock()
	if !ok {
		n.counters.protErrs.Add(1)
		return fmt.Errorf("%w: rkey %d", ErrUnregistered, rkey)
	}
	write := need != AccessRemoteRead
	if need == AccessRemoteAtomic && !n.atomicMu.TryLock() {
		if try {
			return errBusy
		}
		n.atomicMu.Lock()
	}
	var locked bool
	if write {
		locked = mr.mu.TryLock()
	} else {
		locked = mr.mu.TryRLock()
	}
	if !locked {
		if try {
			if need == AccessRemoteAtomic {
				n.atomicMu.Unlock()
			}
			return errBusy
		}
		if write {
			mr.mu.Lock()
		} else {
			mr.mu.RLock()
		}
	}
	var err error
	switch {
	case mr.rkey != rkey:
		err = fmt.Errorf("%w: rkey %d", ErrUnregistered, rkey)
	case mr.access&need != need:
		err = fmt.Errorf("nicsim: access violation on rkey %d", rkey)
	case addr < mr.base || addr+uint64(length) > mr.base+uint64(len(mr.buf)) || addr+uint64(length) < addr:
		err = fmt.Errorf("nicsim: address range [%#x,+%d) outside MR", addr, length)
	default:
		off := addr - mr.base
		apply(mr.buf[off : off+uint64(length)])
	}
	if write {
		mr.mu.Unlock()
	} else {
		mr.mu.RUnlock()
	}
	if need == AccessRemoteAtomic {
		n.atomicMu.Unlock()
	}
	if err != nil {
		n.counters.protErrs.Add(1)
		return err
	}
	// Bump the activity counter only after unlocking, so a poller
	// that sees it move finds the region lock free instead of parking
	// on it. The object may have been recycled by now; a spurious bump
	// costs its new owner one needless sweep.
	if write {
		mr.writes.Add(1)
	}
	return nil
}

// Close shuts the NIC down: every QP moves to the closed state, and
// requests already on the wire never complete. The fabric itself is
// left running (it may serve other NICs).
func (n *NIC) Close() {
	if n.closed.Swap(true) {
		return
	}
	n.mu.Lock()
	qps := make([]*QP, 0, len(n.qps))
	for _, qp := range n.qps {
		qps = append(qps, qp)
	}
	n.mu.Unlock()
	for _, qp := range qps {
		qp.close()
	}
}

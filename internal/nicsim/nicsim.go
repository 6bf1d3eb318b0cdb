// Package nicsim implements a software model of an RDMA-capable NIC
// ("RNIC") faithful enough to host the Photon middleware unchanged.
//
// The model follows the InfiniBand verbs architecture:
//
//   - Memory regions (MR): user buffers registered with the NIC,
//     addressable for remote access by a remote key (rkey) plus a
//     NIC-assigned virtual base address. The NIC's translation and
//     protection table is a mem.RegTable, the one registration table
//     every transport uses: it rkey-, rights-, bounds- and
//     alignment-checks each remote operation and applies it under the
//     region's own DMA lock.
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
// the NIC never waits: every lock it needs — the registration table's
// lock and the region's DMA lock (the table's try mode), the QP lock —
// is only tried, and when one is held elsewhere the NIC refuses the
// frame before touching anything, and the fabric's delivery goroutine
// brings it back to be applied blocking, in order. (The QPN lookup
// takes no lock, and the CQ lock is taken outright: nobody holds it
// across anything else.)
// Neither may anyone hold one of those locks across a post or a
// fabric send: the fabric field carries a lockorder directive that
// makes photonvet check it.
package nicsim

import (
	"errors"
	"sync/atomic"

	"photon/internal/fabric"
	"photon/internal/mem"
)

// Access is a bitmask of permissions granted when registering memory,
// mirroring IBV_ACCESS_*; the registration table checks it.
type Access = mem.Access

// Access flag values.
const (
	AccessLocalWrite   = mem.AccessLocalWrite
	AccessRemoteRead   = mem.AccessRemoteRead
	AccessRemoteWrite  = mem.AccessRemoteWrite
	AccessRemoteAtomic = mem.AccessRemoteAtomic
)

// AccessAll grants every permission; Photon registers its ledgers and
// eager buffers with this.
const AccessAll = mem.AccessAll

// Errors returned by NIC operations.
var (
	ErrClosed       = errors.New("nicsim: NIC closed")
	ErrSQFull       = errors.New("nicsim: send queue full")
	ErrRQFull       = errors.New("nicsim: receive queue full")
	ErrQPState      = errors.New("nicsim: queue pair not in a usable state")
	ErrBadWR        = errors.New("nicsim: malformed work request")
	ErrUnregistered = mem.ErrUnregistered
)

// MR is a registered memory region: a region of the NIC's registration
// table, with its own DMA lock (RLocker) and write-activity counter.
// The NIC recycles MR objects: once DeregisterMemory returns, the *MR,
// its RLocker and its WriteActivity belong to whichever registration
// the NIC hands the object to next, and must not be used again.
type MR = mem.Region

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

	// mem is the NIC's translation/protection table: every remote or
	// loopback access to registered memory goes through it.
	mem *mem.RegTable
	// qps is the QP table, indexed by QPN-1: a slice replaced whole by
	// CreateQP and QP.Close, so frame handlers look a QPN up without a
	// lock.
	qps atomic.Pointer[[]*QP]

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
	n := &NIC{node: node, fab: fab, cfg: cfg, mem: mem.NewRegTable("nicsim", nil)}
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
// table's free list of deregistered regions when one is there, so a
// register/deregister cycle allocates nothing in steady state.
func (n *NIC) RegisterMemory(buf []byte, access Access) (*MR, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	return n.mem.Register(buf, access)
}

// DeregisterMemory removes a registration. Remote operations that race
// the deregistration either finish before it returns or fail with
// protection errors, as on real hardware: none touches buf afterwards.
// The MR object then goes back to the free list, so mr — and any
// RLocker or WriteActivity taken from it — is dead once this returns.
// A second DeregisterMemory of it returns ErrUnregistered only while
// the object waits on the free list.
func (n *NIC) DeregisterMemory(mr *MR) error { return n.mem.Deregister(mr.Remote()) }

// Memory returns the NIC's registration table, through which a
// backend deregisters and watches registrations by descriptor.
func (n *NIC) Memory() *mem.RegTable { return n.mem }

// LocalWrite performs a loopback DMA write: it validates (rkey, addr,
// len) against the registration table exactly as a remote write would
// and places data under the region's DMA lock. Middleware uses it to
// land payloads that arrived packed inside other transfers.
func (n *NIC) LocalWrite(addr uint64, rkey uint32, data []byte) error {
	if err := n.counted(n.mem.Write(false, addr, rkey, data, nil)); err != nil {
		return err
	}
	n.counters.remoteWrites.Add(1)
	n.kickWriteHook()
	return nil
}

// counted passes through the result of a registration-table access,
// counting a rejection (anything but mem.ErrBusy) as a protection
// error.
func (n *NIC) counted(err error) error {
	if err != nil && !errors.Is(err, mem.ErrBusy) {
		n.counters.protErrs.Add(1)
	}
	return err
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

// Close shuts the NIC down: every QP moves to the closed state, and
// requests already on the wire never complete. The fabric itself is
// left running (it may serve other NICs).
func (n *NIC) Close() {
	if n.closed.Swap(true) {
		return
	}
	if qps := n.qps.Load(); qps != nil {
		for _, qp := range *qps {
			if qp != nil {
				qp.close()
			}
		}
	}
}

// Package vsim is Photon's simulated-verbs backend: it implements the
// core.Backend transport contract over the software RNIC (nicsim) and
// the in-process fabric, standing in for the IB-verbs backend of the
// original system.
//
// A Cluster owns the fabric and one backend per rank, wiring a full
// mesh of reliable-connected queue pairs (rank i's QP toward rank j is
// connected to rank j's QP toward rank i, including the self pair) and
// providing the collective bootstrap Exchange that Photon uses to
// publish ledger arenas.
package vsim

import (
	"errors"
	"fmt"
	"sync"

	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

// Cluster is a set of vsim backends sharing one fabric, one per rank.
type Cluster struct {
	fab      *fabric.Fabric
	ownsFab  bool
	backends []*Backend
	ag       *core.Allgather // bootstrap exchange
}

// NewCluster creates n ranks over a fresh fabric with the given delay
// model and NIC configuration.
func NewCluster(n int, fm fabric.Model, nc nicsim.Config) (*Cluster, error) {
	fab := fabric.New(n, fm)
	c, err := NewClusterOver(fab, nc)
	if err != nil {
		fab.Close()
		return nil, err
	}
	c.ownsFab = true
	return c, nil
}

// NewClusterOver creates one rank per fabric node on an existing
// fabric (which the caller continues to own).
func NewClusterOver(fab *fabric.Fabric, nc nicsim.Config) (*Cluster, error) {
	n := fab.NumNodes()
	c := &Cluster{fab: fab, ag: core.NewAllgather(n), backends: make([]*Backend, n)}
	for r := 0; r < n; r++ {
		nic, err := nicsim.New(fab, r, nc)
		if err != nil {
			c.Close()
			return nil, err
		}
		b := &Backend{
			cluster: c,
			rank:    r,
			nic:     nic,
			cq:      nicsim.NewCQ(8192),
			qps:     make([]*nicsim.QP, n),
			wake:    core.NewWakeChan(),
		}
		// Latch both event sources: local completions (CQ push) and
		// remote data landing in this rank's memory (NIC write hook),
		// so parked progress runners wake for either.
		b.cq.SetWakeHook(b.wake.Kick)
		nic.SetWriteHook(b.wake.Kick)
		c.backends[r] = b
	}
	// Full QP mesh: one QP at each rank toward every rank (self
	// included), cross-connected.
	for i := 0; i < n; i++ {
		bi := c.backends[i]
		for j := 0; j < n; j++ {
			qp, err := bi.nic.CreateQP(bi.cq, nicsim.NewCQ(16))
			if err != nil {
				c.Close()
				return nil, err
			}
			bi.qps[j] = qp
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if err := c.backends[i].qps[j].Connect(j, c.backends[j].qps[i].QPN()); err != nil {
				c.Close()
				return nil, err
			}
		}
	}
	return c, nil
}

// Backends returns the per-rank backends, indexed by rank.
func (c *Cluster) Backends() []*Backend { return c.backends }

// Backend returns the backend for one rank.
func (c *Cluster) Backend(rank int) *Backend { return c.backends[rank] }

// Fabric returns the underlying fabric (for stats and fault injection).
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }

// Close shuts down every backend and, if the cluster created it, the
// fabric.
func (c *Cluster) Close() {
	for _, b := range c.backends {
		if b != nil {
			b.closeLocal()
		}
	}
	if c.ownsFab {
		c.fab.Close()
	}
}

// Backend is one rank's transport endpoint.
type Backend struct {
	cluster *Cluster
	rank    int
	nic     *nicsim.NIC
	cq      *nicsim.CQ
	qps     []*nicsim.QP

	//photon:lock vsimpoll 30
	pollMu      sync.Mutex
	pollScratch []nicsim.CQE // reused across Poll calls (no per-call alloc)

	// wake latches backend activity: kicked by the simulated NIC after
	// every completion push and every remote write applied to this
	// rank's memory, so engine waiters park instead of yield-spinning.
	wake *core.WakeChan
}

var _ core.Backend = (*Backend)(nil)

// Notify returns the channel that receives a token whenever a
// completion is queued or remote data lands in registered memory, for
// callers driving the bare transport without an engine. It goes idle
// once a wake sink is installed.
func (b *Backend) Notify() <-chan struct{} { return b.wake.Chan() }

// SetWakeSink redirects activity events to fn instead of the Notify
// channel.
func (b *Backend) SetWakeSink(fn func()) { b.wake.SetSink(fn) }

// Rank returns this backend's rank.
func (b *Backend) Rank() int { return b.rank }

// Size returns the job size.
func (b *Backend) Size() int { return len(b.qps) }

// NIC exposes the rank's simulated NIC (counters, ablation).
func (b *Backend) NIC() *nicsim.NIC { return b.nic }

// Device returns the backend itself, whose NIC method is the device's
// accessor: callers reach the counters as Device().NIC().
func (b *Backend) Device() *Backend { return b }

// Register pins buf with the NIC; the locker is the registration's
// own DMA lock.
func (b *Backend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	mr, err := b.nic.RegisterMemory(buf, nicsim.AccessAll)
	if err != nil {
		return mem.RemoteBuffer{}, nil, err
	}
	return mr.Remote(), mr.RLocker(), nil
}

// Deregister releases a registration by descriptor.
func (b *Backend) Deregister(rb mem.RemoteBuffer) error { return b.nic.Memory().Deregister(rb) }

// translate maps transport errors to the core sentinel space.
func translate(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, nicsim.ErrSQFull):
		return core.ErrWouldBlock
	case errors.Is(err, nicsim.ErrClosed):
		return core.ErrClosed
	default:
		return err
	}
}

// PostWrite starts a one-sided RDMA write toward rank.
func (b *Backend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	if rank < 0 || rank >= len(b.qps) {
		return core.ErrBadRank
	}
	return translate(b.qps[rank].PostSend(nicsim.SendWR{
		WRID: token, Op: nicsim.OpRDMAWrite, Local: local,
		RemoteAddr: raddr, RKey: rkey, Signaled: signaled,
	}))
}

// PostWriteBatch posts a burst of writes toward rank with one call.
// Requests go to the same QP in order; posting stops at the first
// rejection and the accepted count is returned — the QP's post path
// snapshots each payload, so this behaves exactly like a doorbell
// covering the whole chain.
func (b *Backend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	if rank < 0 || rank >= len(b.qps) {
		return 0, core.ErrBadRank
	}
	qp := b.qps[rank]
	for i, r := range reqs {
		err := qp.PostSend(nicsim.SendWR{
			WRID: r.Token, Op: nicsim.OpRDMAWrite, Local: r.Local,
			RemoteAddr: r.RemoteAddr, RKey: r.RKey, Signaled: r.Signaled,
		})
		if err != nil {
			return i, translate(err)
		}
	}
	return len(reqs), nil
}

// PostRead starts a one-sided RDMA read from rank.
func (b *Backend) PostRead(rank int, local []byte, raddr uint64, rkey uint32, token uint64) error {
	if rank < 0 || rank >= len(b.qps) {
		return core.ErrBadRank
	}
	return translate(b.qps[rank].PostSend(nicsim.SendWR{
		WRID: token, Op: nicsim.OpRDMARead, Local: local,
		RemoteAddr: raddr, RKey: rkey, Signaled: true,
	}))
}

// PostFetchAdd starts a remote fetch-and-add on rank.
func (b *Backend) PostFetchAdd(rank int, result []byte, raddr uint64, rkey uint32, add uint64, token uint64) error {
	if rank < 0 || rank >= len(b.qps) {
		return core.ErrBadRank
	}
	return translate(b.qps[rank].PostSend(nicsim.SendWR{
		WRID: token, Op: nicsim.OpAtomicFetchAdd, Local: result,
		RemoteAddr: raddr, RKey: rkey, Add: add, Signaled: true,
	}))
}

// PostCompSwap starts a remote compare-and-swap on rank.
func (b *Backend) PostCompSwap(rank int, result []byte, raddr uint64, rkey uint32, compare, swap uint64, token uint64) error {
	if rank < 0 || rank >= len(b.qps) {
		return core.ErrBadRank
	}
	return translate(b.qps[rank].PostSend(nicsim.SendWR{
		WRID: token, Op: nicsim.OpAtomicCompSwap, Local: result,
		RemoteAddr: raddr, RKey: rkey, Compare: compare, Swap: swap, Signaled: true,
	}))
}

// ApplyLocal places data into this rank's own registered memory with
// full protection checks (loopback DMA for packed-put payloads).
func (b *Backend) ApplyLocal(raddr uint64, rkey uint32, data []byte) error {
	return b.nic.LocalWrite(raddr, rkey, data)
}

// WriteActivity exposes the registration's own DMA write counter.
func (b *Backend) WriteActivity(rb mem.RemoteBuffer) (func() uint64, bool) {
	return b.nic.Memory().WriteActivity(rb)
}

// Poll reaps transport completions.
func (b *Backend) Poll(dst []core.BackendCompletion) int {
	if len(dst) == 0 || b.cq.FastLen() == 0 {
		return 0
	}
	b.pollMu.Lock()
	defer b.pollMu.Unlock()
	if cap(b.pollScratch) < len(dst) {
		b.pollScratch = make([]nicsim.CQE, len(dst))
	}
	tmp := b.pollScratch[:len(dst)]
	n := b.cq.PollInto(tmp)
	for i := 0; i < n; i++ {
		dst[i] = core.BackendCompletion{
			Token: tmp[i].WRID,
			OK:    tmp[i].Status == nicsim.StatusOK,
		}
		if tmp[i].Status != nicsim.StatusOK {
			dst[i].Err = fmt.Errorf("vsim: completion status %v", tmp[i].Status)
		}
	}
	return n
}

// ClockOffset is zero: every rank lives in one process, so all clocks
// are identical by construction.
func (b *Backend) ClockOffset(rank int) (offsetNS, rttNS int64, ok bool) {
	return 0, 0, rank >= 0 && rank < len(b.qps)
}

// Exchange performs the collective bootstrap allgather.
func (b *Backend) Exchange(local []byte) ([][]byte, error) {
	return b.cluster.ag.Exchange(b.rank, local), nil
}

// closeLocal tears down this rank's device without touching the
// cluster.
func (b *Backend) closeLocal() {
	if b.nic != nil {
		b.nic.Close()
	}
}

// Close releases this rank's transport resources.
func (b *Backend) Close() error {
	b.closeLocal()
	return nil
}

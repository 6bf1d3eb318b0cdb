package nicsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/fabric"
)

// TestRegisterCycleAllocGuard pins the steady-state cost of one
// RegisterMemory+DeregisterMemory cycle at zero allocations: the NIC
// recycles deregistered MR objects, so a rendezvous send that
// registers its payload for the target's read allocates nothing.
func TestRegisterCycleAllocGuard(t *testing.T) {
	fab := fabric.New(1, fabric.Model{})
	defer fab.Close()
	nic, err := New(fab, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nic.Close()
	buf := make([]byte, 4096)
	cycle := func() {
		mr, err := nic.RegisterMemory(buf, AccessRemoteRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := nic.DeregisterMemory(mr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	avg := testing.AllocsPerRun(1000, cycle)
	t.Logf("%.2f allocs per register+deregister cycle", avg)
	if avg != 0 {
		t.Errorf("register+deregister cycle allocates %.2f times, want 0", avg)
	}
}

// connectQP opens one more connected QP pair between the two NICs and
// returns the initiator side, its send CQ and a func closing both
// ends. A remote access error moves an initiator QP to the error state
// for good, so every test step that expects a NAK needs a pair of its
// own.
func connectQP(a, b *NIC) (*QP, *CQ, func(), error) {
	cq := NewCQ(16)
	qpA, err := a.CreateQP(cq, NewCQ(16))
	if err != nil {
		return nil, nil, nil, err
	}
	qpB, err := b.CreateQP(NewCQ(16), NewCQ(16))
	if err != nil {
		qpA.Close()
		return nil, nil, nil, err
	}
	closeBoth := func() { qpA.Close(); qpB.Close() }
	if err := qpA.Connect(b.node, qpB.QPN()); err != nil {
		closeBoth()
		return nil, nil, nil, err
	}
	if err := qpB.Connect(a.node, qpA.QPN()); err != nil {
		closeBoth()
		return nil, nil, nil, err
	}
	return qpA, cq, closeBoth, nil
}

// awaitCQE polls cq for one entry; unlike waitCQE it is safe to call
// off the test goroutine.
func awaitCQE(cq *CQ) (CQE, error) {
	deadline := time.Now().Add(5 * time.Second)
	var got [1]CQE
	for time.Now().Before(deadline) {
		if cq.PollInto(got[:]) == 1 {
			return got[0], nil
		}
		runtime.Gosched()
	}
	return CQE{}, errors.New("timed out waiting for CQE")
}

// staleOp posts one work request on a fresh QP pair and returns its
// completion status.
func staleOp(t *testing.T, p *pair, wr SendWR) Status {
	t.Helper()
	qp, cq, closeQP, err := connectQP(p.nicA, p.nicB)
	if err != nil {
		t.Fatal(err)
	}
	defer closeQP()
	wr.Signaled = true
	if err := qp.PostSend(wr); err != nil {
		t.Fatal(err)
	}
	c, err := awaitCQE(cq)
	if err != nil {
		t.Fatal(err)
	}
	return c.Status
}

// TestRecycledMRRejectsStaleRKey: a deregistered MR object is handed
// to the next registration, and nothing addressed with the old
// registration's rkey and range — remote write, read or atomic, or a
// loopback LocalWrite — reaches either buffer.
func TestRecycledMRRejectsStaleRKey(t *testing.T) {
	p := newPair(t, Config{})
	memA := bytes.Repeat([]byte{0xA5}, 64)
	mrA, err := p.nicB.RegisterMemory(memA, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	oldKey, oldBase := mrA.RKey(), mrA.Base()
	if err := p.nicB.DeregisterMemory(mrA); err != nil {
		t.Fatal(err)
	}
	memB := bytes.Repeat([]byte{0x5B}, 64)
	mrB, err := p.nicB.RegisterMemory(memB, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	if mrB != mrA {
		t.Fatal("registration after a deregistration did not reuse the freed MR")
	}
	if mrB.RKey() == oldKey || mrB.Base() == oldBase {
		t.Fatalf("recycled MR kept its old identity: rkey %d base %#x", mrB.RKey(), mrB.Base())
	}
	before := p.nicB.Counters().ProtectionErrs

	for _, wr := range []SendWR{
		{Op: OpRDMAWrite, Local: []byte{1, 2, 3, 4}},
		{Op: OpRDMARead, Local: make([]byte, 4)},
		{Op: OpAtomicFetchAdd, Local: make([]byte, 8), Add: 1},
	} {
		wr.RemoteAddr, wr.RKey = oldBase, oldKey
		if st := staleOp(t, p, wr); st != StatusRemoteAccessError {
			t.Errorf("%v with a stale rkey: status %v, want %v", wr.Op, st, StatusRemoteAccessError)
		}
	}
	if err := p.nicB.LocalWrite(oldBase, oldKey, []byte{9}); !errors.Is(err, ErrUnregistered) {
		t.Errorf("LocalWrite with a stale rkey: %v, want %v", err, ErrUnregistered)
	}
	// B's own key over A's old range is out of bounds, not an alias.
	if err := p.nicB.LocalWrite(oldBase, mrB.RKey(), []byte{9}); err == nil {
		t.Error("LocalWrite of A's old range under B's rkey succeeded")
	}
	if got := p.nicB.Counters().ProtectionErrs - before; got != 5 {
		t.Errorf("protection errors = %d, want 5", got)
	}
	if !bytes.Equal(memA, bytes.Repeat([]byte{0xA5}, 64)) {
		t.Errorf("deregistered buffer written: %x", memA)
	}
	if !bytes.Equal(memB, bytes.Repeat([]byte{0x5B}, 64)) {
		t.Errorf("recycled registration's buffer written: %x", memB)
	}
}

// blockedOnRegionLock waits until some goroutine is parked on a
// region's lock inside the registration table's Access — while the
// test holds that region's DMA lock, the only lock it can wait on
// there — and reports whether one did within five seconds.
func blockedOnRegionLock() bool {
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		dump := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(dump, "\n\n") {
			if strings.Contains(g, "[sync.RWMutex.Lock") && strings.Contains(g, "mem.(*RegTable).Access") {
				return true
			}
		}
		runtime.Gosched()
	}
	return false
}

// TestRecycledMRInFlightAtomic holds A's DMA lock while a remote atomic
// against A is in flight, so the responder resolves A's rkey and then
// waits for the region lock. A is deregistered meanwhile — unmapped at
// once, its object recycled for B once the atomic is out of the way —
// and the atomic must find the rkey gone under the region lock and NAK
// rather than apply to A or to B.
func TestRecycledMRInFlightAtomic(t *testing.T) {
	p := newPair(t, Config{})
	memA := make([]byte, 64)
	mrA, err := p.nicB.RegisterMemory(memA, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	oldKey, oldBase := mrA.RKey(), mrA.Base()
	qp, cq, closeQP, err := connectQP(p.nicA, p.nicB)
	if err != nil {
		t.Fatal(err)
	}
	defer closeQP()

	dma := mrA.RLocker()
	dma.Lock()
	if err := qp.PostSend(SendWR{Op: OpAtomicFetchAdd, Local: make([]byte, 8),
		RemoteAddr: oldBase, RKey: oldKey, Add: 1, Signaled: true}); err != nil {
		dma.Unlock()
		t.Fatal(err)
	}
	if !blockedOnRegionLock() {
		dma.Unlock()
		t.Fatal("responder never blocked on the region lock")
	}
	deregistered := make(chan error, 1)
	go func() { deregistered <- p.nicB.DeregisterMemory(mrA) }()
	for deadline := time.Now().Add(5 * time.Second); mrA.RKey() != 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			dma.Unlock()
			t.Fatal("DeregisterMemory never unmapped the region")
		}
	}
	dma.Unlock()
	if err := <-deregistered; err != nil {
		t.Fatal(err)
	}
	memB := make([]byte, 64)
	mrB, err := p.nicB.RegisterMemory(memB, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	if mrB != mrA {
		t.Fatal("registration after a deregistration did not reuse the freed MR")
	}
	c, err := awaitCQE(cq)
	if err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusRemoteAccessError {
		t.Errorf("in-flight atomic against a recycled MR: status %v, want %v", c.Status, StatusRemoteAccessError)
	}
	if !bytes.Equal(memA, make([]byte, 64)) || !bytes.Equal(memB, make([]byte, 64)) {
		t.Errorf("in-flight atomic applied: A %x B %x", memA[:8], memB[:8])
	}
}

// TestMRRecycleHammer cycles registrations of one buffer while a peer
// streams reads at a stable region, at the cycling registration and at
// the rkey of the generation last deregistered. Each generation fills
// the buffer with its own number before it registers and refills only
// after DeregisterMemory returns, so a read that succeeds must return
// its own generation's bytes; reads at a deregistered rkey must NAK;
// stable reads must always succeed with the stable bytes. Run it under
// -race: a responder that touched the buffer after DeregisterMemory
// returned would also race the refill.
func TestMRRecycleHammer(t *testing.T) {
	const (
		size  = 256
		reads = 2000 // cycling and stale reads, alternating
	)
	p := newPair(t, Config{})
	stable := bytes.Repeat([]byte{0x3C}, size)
	smr, err := p.nicB.RegisterMemory(stable, AccessAll)
	if err != nil {
		t.Fatal(err)
	}

	type gen struct {
		n    uint64
		rkey uint32
		base uint64
	}
	var (
		mu        sync.Mutex
		live      gen // zero while between registrations
		dead      gen // the generation last deregistered
		done      atomic.Bool
		wg        sync.WaitGroup
		stableOKs atomic.Int64
	)

	wg.Add(1)
	go func() { // cycler
		defer wg.Done()
		buf := make([]byte, size)
		for g := uint64(1); !done.Load(); g++ {
			for off := 0; off < size; off += 8 {
				binary.LittleEndian.PutUint64(buf[off:], g)
			}
			mr, err := p.nicB.RegisterMemory(buf, AccessRemoteRead)
			if err != nil {
				t.Error(err)
				done.Store(true)
				return
			}
			mu.Lock()
			live = gen{n: g, rkey: mr.RKey(), base: mr.Base()}
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			cur := live
			live = gen{}
			mu.Unlock()
			if err := p.nicB.DeregisterMemory(mr); err != nil {
				t.Error(err)
				done.Store(true)
				return
			}
			mu.Lock()
			dead = cur
			mu.Unlock()
		}
	}()

	wg.Add(1)
	go func() { // stable reader: one QP, never NAKed
		defer wg.Done()
		qp, cq, closeQP, err := connectQP(p.nicA, p.nicB)
		if err != nil {
			t.Error(err)
			return
		}
		defer closeQP()
		dst := make([]byte, size)
		for !done.Load() {
			clear(dst)
			if err := qp.PostSend(SendWR{Op: OpRDMARead, Local: dst,
				RemoteAddr: smr.Base(), RKey: smr.RKey(), Signaled: true}); err != nil {
				t.Error(err)
				return
			}
			c, err := awaitCQE(cq)
			if err != nil {
				t.Error(err)
				return
			}
			if c.Status != StatusOK || !bytes.Equal(dst, stable) {
				t.Errorf("stable read: status %v, bytes %x", c.Status, dst[:8])
				return
			}
			stableOKs.Add(1)
		}
	}()

	// Cycling reader, on the test goroutine: even reads target the live
	// generation (which may die in flight), odd reads the dead one.
	var (
		qp      *QP
		cq      *CQ
		closeQP func()
		hits    int
		naks    int
	)
	dst := make([]byte, size)
	for i := 0; i < reads && !t.Failed(); {
		if qp == nil {
			if qp, cq, closeQP, err = connectQP(p.nicA, p.nicB); err != nil {
				t.Error(err)
				break
			}
		}
		mu.Lock()
		g, stale := live, i%2 == 1
		if stale {
			g = dead
		}
		mu.Unlock()
		if g.n == 0 {
			runtime.Gosched()
			continue
		}
		i++
		clear(dst)
		if err := qp.PostSend(SendWR{Op: OpRDMARead, Local: dst,
			RemoteAddr: g.base, RKey: g.rkey, Signaled: true}); err != nil {
			t.Error(err)
			break
		}
		c, err := awaitCQE(cq)
		if err != nil {
			t.Error(err)
			break
		}
		switch {
		case c.Status == StatusOK && stale:
			t.Errorf("read at generation %d's rkey succeeded after its deregistration", g.n)
		case c.Status == StatusOK:
			for off := 0; off < size; off += 8 {
				if v := binary.LittleEndian.Uint64(dst[off:]); v != g.n {
					t.Errorf("read at generation %d's rkey returned generation %d's bytes", g.n, v)
					break
				}
			}
			hits++
		case c.Status == StatusRemoteAccessError:
			naks++
			closeQP()
			qp = nil
		default:
			t.Errorf("cycling read: status %v", c.Status)
		}
	}
	if qp != nil {
		closeQP()
	}
	done.Store(true)
	wg.Wait()
	t.Logf("cycling reads: %d returned their generation, %d NAKed; %d stable reads", hits, naks, stableOKs.Load())
	if !t.Failed() && (stableOKs.Load() == 0 || naks < reads/2) {
		t.Errorf("%d stable reads completed and %d reads NAKed, want > 0 and >= %d", stableOKs.Load(), naks, reads/2)
	}
}

package nicsim

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"photon/internal/fabric"
)

// pair wires two NICs on a fresh fabric and returns a connected QP pair
// plus their CQs.
type pair struct {
	fab        *fabric.Fabric
	nicA, nicB *NIC
	qpA, qpB   *QP
	cqA, cqB   *CQ // send CQs
	rcqA, rcqB *CQ // recv CQs
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	return newPairOn(t, fabric.Model{}, cfg)
}

// newPairOn is newPair over a fabric with the given delay model.
func newPairOn(t *testing.T, m fabric.Model, cfg Config) *pair {
	t.Helper()
	fab := fabric.New(2, m)
	t.Cleanup(fab.Close)
	nicA, err := New(fab, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nicB, err := New(fab, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nicA.Close)
	t.Cleanup(nicB.Close)
	cqA, rcqA := NewCQ(256), NewCQ(256)
	cqB, rcqB := NewCQ(256), NewCQ(256)
	qpA, err := nicA.CreateQP(cqA, rcqA)
	if err != nil {
		t.Fatal(err)
	}
	qpB, err := nicB.CreateQP(cqB, rcqB)
	if err != nil {
		t.Fatal(err)
	}
	if err := qpA.Connect(1, qpB.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qpB.Connect(0, qpA.QPN()); err != nil {
		t.Fatal(err)
	}
	return &pair{fab, nicA, nicB, qpA, qpB, cqA, cqB, rcqA, rcqB}
}

// waitCQE polls a CQ until one entry arrives or the test times out.
func waitCQE(t *testing.T, cq *CQ) CQE {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var got [1]CQE
	for time.Now().Before(deadline) {
		if cq.PollInto(got[:]) == 1 {
			return got[0]
		}
		time.Sleep(20 * time.Microsecond)
	}
	t.Fatal("timed out waiting for CQE")
	return CQE{}
}

// A NIC cannot attach to a node its fabric does not have.
func TestNewOnBadNodeFails(t *testing.T) {
	fab := fabric.New(1, fabric.Model{})
	defer fab.Close()
	if nic, err := New(fab, 5, Config{}); err == nil {
		nic.Close()
		t.Fatal("New on an out-of-range node succeeded")
	}
}

func TestSendRecv(t *testing.T) {
	p := newPair(t, Config{})
	rbuf := make([]byte, 64)
	if err := p.qpB.PostRecv(RecvWR{WRID: 7, Buf: rbuf}); err != nil {
		t.Fatal(err)
	}
	msg := []byte("photon rma middleware")
	if err := p.qpA.PostSend(SendWR{WRID: 1, Op: OpSend, Local: msg, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	rc := waitCQE(t, p.rcqB)
	if rc.WRID != 7 || rc.Status != StatusOK || rc.Op != OpRecv {
		t.Fatalf("recv CQE = %+v", rc)
	}
	if rc.ByteLen != len(msg) || !bytes.Equal(rbuf[:rc.ByteLen], msg) {
		t.Fatalf("payload mismatch: %q", rbuf[:rc.ByteLen])
	}
	if rc.SrcNode != 0 || rc.SrcQPN != p.qpA.QPN() {
		t.Fatalf("source fields wrong: %+v", rc)
	}
	sc := waitCQE(t, p.cqA)
	if sc.WRID != 1 || sc.Status != StatusOK || sc.Op != OpSend {
		t.Fatalf("send CQE = %+v", sc)
	}
}

func TestSendBeforeRecvIsQueued(t *testing.T) {
	p := newPair(t, Config{})
	msg := []byte("early bird")
	if err := p.qpA.PostSend(SendWR{WRID: 1, Op: OpSend, Local: msg, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	// Give the frame time to arrive with no receive posted.
	time.Sleep(5 * time.Millisecond)
	rbuf := make([]byte, 64)
	if err := p.qpB.PostRecv(RecvWR{WRID: 9, Buf: rbuf}); err != nil {
		t.Fatal(err)
	}
	rc := waitCQE(t, p.rcqB)
	if rc.WRID != 9 || !bytes.Equal(rbuf[:rc.ByteLen], msg) {
		t.Fatalf("queued send not delivered: %+v %q", rc, rbuf[:rc.ByteLen])
	}
	waitCQE(t, p.cqA) // sender completes only after delivery+ack
}

func TestSendTooLargeForRecvBuffer(t *testing.T) {
	p := newPair(t, Config{})
	p.qpB.PostRecv(RecvWR{WRID: 1, Buf: make([]byte, 4)})
	p.qpA.PostSend(SendWR{WRID: 2, Op: OpSend, Local: make([]byte, 100), Signaled: true})
	rc := waitCQE(t, p.rcqB)
	if rc.Status != StatusLengthError {
		t.Fatalf("recv status = %v, want length-error", rc.Status)
	}
	sc := waitCQE(t, p.cqA)
	if sc.Status == StatusOK {
		t.Fatalf("send status = %v, want error", sc.Status)
	}
	if !p.qpA.Errored() {
		t.Fatal("sender QP should be in error state after NAK")
	}
}

func TestRDMAWrite(t *testing.T) {
	p := newPair(t, Config{})
	target := make([]byte, 128)
	mr, err := p.nicB.RegisterMemory(target, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("one-sided write")
	err = p.qpA.PostSend(SendWR{
		WRID: 3, Op: OpRDMAWrite, Local: payload,
		RemoteAddr: mr.Base() + 16, RKey: mr.RKey(), Signaled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := waitCQE(t, p.cqA)
	if sc.Status != StatusOK {
		t.Fatalf("write CQE = %+v", sc)
	}
	if !bytes.Equal(target[16:16+len(payload)], payload) {
		t.Fatalf("target memory = %q", target[16:16+len(payload)])
	}
	// No receive-side completion for plain RDMA WRITE.
	if p.rcqB.FastLen() != 0 {
		t.Fatal("plain RDMA write must not consume a receive")
	}
}

func TestRDMARead(t *testing.T) {
	p := newPair(t, Config{})
	src := []byte("remote data to fetch........")
	mr, _ := p.nicB.RegisterMemory(src, AccessAll)
	dst := make([]byte, 11)
	p.qpA.PostSend(SendWR{
		WRID: 5, Op: OpRDMARead, Local: dst,
		RemoteAddr: mr.Base() + 7, RKey: mr.RKey(), Signaled: true,
	})
	sc := waitCQE(t, p.cqA)
	if sc.Status != StatusOK {
		t.Fatalf("read CQE = %+v", sc)
	}
	if !bytes.Equal(dst, src[7:18]) {
		t.Fatalf("read returned %q, want %q", dst, src[7:18])
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 64)
	binary.LittleEndian.PutUint64(mem[8:], 100)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	res := make([]byte, 8)
	p.qpA.PostSend(SendWR{
		WRID: 6, Op: OpAtomicFetchAdd, Local: res,
		RemoteAddr: mr.Base() + 8, RKey: mr.RKey(), Add: 5, Signaled: true,
	})
	sc := waitCQE(t, p.cqA)
	if sc.Status != StatusOK {
		t.Fatalf("fadd CQE = %+v", sc)
	}
	if got := binary.LittleEndian.Uint64(res); got != 100 {
		t.Fatalf("fetch-add returned %d, want 100", got)
	}
	if got := binary.LittleEndian.Uint64(mem[8:]); got != 105 {
		t.Fatalf("memory = %d, want 105", got)
	}
}

func TestAtomicCompSwap(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 16)
	binary.LittleEndian.PutUint64(mem, 7)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	res := make([]byte, 8)
	// Successful CAS 7 -> 9.
	p.qpA.PostSend(SendWR{WRID: 1, Op: OpAtomicCompSwap, Local: res,
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Compare: 7, Swap: 9, Signaled: true})
	waitCQE(t, p.cqA)
	if got := binary.LittleEndian.Uint64(mem); got != 9 {
		t.Fatalf("CAS did not swap: %d", got)
	}
	if got := binary.LittleEndian.Uint64(res); got != 7 {
		t.Fatalf("CAS returned %d, want 7", got)
	}
	// Failed CAS (compare mismatch) leaves memory alone, returns current.
	p.qpA.PostSend(SendWR{WRID: 2, Op: OpAtomicCompSwap, Local: res,
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Compare: 7, Swap: 1, Signaled: true})
	waitCQE(t, p.cqA)
	if got := binary.LittleEndian.Uint64(mem); got != 9 {
		t.Fatalf("failed CAS mutated memory: %d", got)
	}
	if got := binary.LittleEndian.Uint64(res); got != 9 {
		t.Fatalf("failed CAS returned %d, want 9", got)
	}
}

func TestAtomicAlignmentRejected(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 16)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	err := p.qpA.PostSend(SendWR{WRID: 1, Op: OpAtomicFetchAdd, Local: make([]byte, 8),
		RemoteAddr: mr.Base() + 3, RKey: mr.RKey(), Add: 1, Signaled: true})
	if err == nil {
		t.Fatal("misaligned atomic accepted at post time")
	}
}

func TestBadRKeyNAKs(t *testing.T) {
	p := newPair(t, Config{})
	p.qpA.PostSend(SendWR{WRID: 1, Op: OpRDMAWrite, Local: []byte{1},
		RemoteAddr: 0x1000, RKey: 9999, Signaled: true})
	sc := waitCQE(t, p.cqA)
	if sc.Status != StatusRemoteAccessError {
		t.Fatalf("status = %v, want remote-access-error", sc.Status)
	}
	if !p.qpA.Errored() {
		t.Fatal("QP should be errored after remote access error")
	}
	// Posting after error fails.
	if err := p.qpA.PostSend(SendWR{WRID: 2, Op: OpSend, Local: []byte{1}}); err != ErrQPState {
		t.Fatalf("post after error: %v", err)
	}
}

func TestOutOfBoundsWriteNAKs(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 32)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	p.qpA.PostSend(SendWR{WRID: 1, Op: OpRDMAWrite, Local: make([]byte, 64),
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true})
	sc := waitCQE(t, p.cqA)
	if sc.Status != StatusRemoteAccessError {
		t.Fatalf("status = %v", sc.Status)
	}
	if c := p.nicB.Counters(); c.ProtectionErrs == 0 {
		t.Fatal("protection error not counted")
	}
}

func TestAccessFlagsEnforced(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 32)
	// Register with remote READ only.
	mr, _ := p.nicB.RegisterMemory(mem, AccessRemoteRead)
	p.qpA.PostSend(SendWR{WRID: 1, Op: OpRDMAWrite, Local: []byte{1},
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true})
	if sc := waitCQE(t, p.cqA); sc.Status != StatusRemoteAccessError {
		t.Fatalf("write into read-only MR: %v", sc.Status)
	}
}

func TestDeregisteredMRRejected(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 32)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	if err := p.nicB.DeregisterMemory(mr); err != nil {
		t.Fatal(err)
	}
	if err := p.nicB.DeregisterMemory(mr); err != ErrUnregistered {
		t.Fatalf("double deregister: %v", err)
	}
	p.qpA.PostSend(SendWR{WRID: 1, Op: OpRDMARead, Local: make([]byte, 4),
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true})
	if sc := waitCQE(t, p.cqA); sc.Status != StatusRemoteAccessError {
		t.Fatalf("read from deregistered MR: %v", sc.Status)
	}
}

func TestUnsignaledSuppressesCQE(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 32)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	p.qpA.PostSend(SendWR{WRID: 1, Op: OpRDMAWrite, Local: []byte{1, 2},
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: false})
	// Signaled marker write afterwards: once it completes, the
	// unsignaled one has too (in-order execution).
	p.qpA.PostSend(SendWR{WRID: 2, Op: OpRDMAWrite, Local: []byte{3},
		RemoteAddr: mr.Base() + 8, RKey: mr.RKey(), Signaled: true})
	sc := waitCQE(t, p.cqA)
	if sc.WRID != 2 {
		t.Fatalf("got CQE for WRID %d, want 2 (unsignaled suppressed)", sc.WRID)
	}
	if p.cqA.FastLen() != 0 {
		t.Fatal("unexpected extra CQE")
	}
	if mem[0] != 1 || mem[1] != 2 {
		t.Fatal("unsignaled write did not execute")
	}
}

func TestMRBaseAlignmentAndSeparation(t *testing.T) {
	fab := fabric.New(1, fabric.Model{})
	defer fab.Close()
	nic, _ := New(fab, 0, Config{})
	defer nic.Close()
	a, _ := nic.RegisterMemory(make([]byte, 100), AccessAll)
	b, _ := nic.RegisterMemory(make([]byte, 100), AccessAll)
	if a.Base()%0x1000 != 0 || b.Base()%0x1000 != 0 {
		t.Fatalf("bases not page aligned: %#x %#x", a.Base(), b.Base())
	}
	if b.Base() < a.Base()+uint64(a.Len()) {
		t.Fatal("MR address ranges overlap")
	}
	if a.RKey() == b.RKey() {
		t.Fatal("rkeys must be unique")
	}
	if a.Base() == 0 {
		t.Fatal("base address 0 must never be handed out")
	}
}

func TestRegisterEmptyBuffer(t *testing.T) {
	fab := fabric.New(1, fabric.Model{})
	defer fab.Close()
	nic, _ := New(fab, 0, Config{})
	defer nic.Close()
	if _, err := nic.RegisterMemory(nil, AccessAll); err == nil {
		t.Fatal("empty registration accepted")
	}
}

// TestSQFull: SQDepth bounds requests posted and not yet answered.
// With one allowed and a 2 ms wire, the second post is refused until
// the first one's ACK is back (no earlier than one round trip after
// it was posted), and then succeeds.
func TestSQFull(t *testing.T) {
	const lat = 2 * time.Millisecond
	p := newPairOn(t, fabric.Model{Latency: lat}, Config{SQDepth: 1})
	mr, err := p.nicB.RegisterMemory(make([]byte, 64), AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	write := func(id uint64) error {
		return p.qpA.PostSend(SendWR{WRID: id, Op: OpRDMAWrite, Local: []byte{byte(id)},
			RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true})
	}
	start := time.Now()
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	if err := write(2); err != ErrSQFull {
		if err != nil || time.Since(start) < 2*lat {
			t.Fatalf("second post inside the first one's round trip: %v, want ErrSQFull", err)
		}
		t.Skipf("poster descheduled past the round trip (%v): nothing to assert", time.Since(start))
	}
	if c := waitCQE(t, p.cqA); c.WRID != 1 || c.Status != StatusOK {
		t.Fatalf("first write completed as %+v", c)
	}
	if rtt := time.Since(start); rtt < 2*lat {
		t.Fatalf("ACK back after %v, under the %v round trip", rtt, 2*lat)
	}
	if err := write(3); err != nil {
		t.Fatalf("post after the ACK: %v", err)
	}
	if c := waitCQE(t, p.cqA); c.WRID != 3 || c.Status != StatusOK {
		t.Fatalf("third write completed as %+v", c)
	}
	if c := p.nicA.Counters(); c.SendsPosted != 2 || c.WireFrames != 2 {
		t.Fatalf("refused post counted: %+v", c)
	}
}

func TestRQFull(t *testing.T) {
	p := newPair(t, Config{RQDepth: 2})
	if err := p.qpB.PostRecv(RecvWR{WRID: 1, Buf: make([]byte, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := p.qpB.PostRecv(RecvWR{WRID: 2, Buf: make([]byte, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := p.qpB.PostRecv(RecvWR{WRID: 3, Buf: make([]byte, 1)}); err != ErrRQFull {
		t.Fatalf("overfull RQ: %v", err)
	}
}

func TestPostBeforeConnect(t *testing.T) {
	fab := fabric.New(1, fabric.Model{})
	defer fab.Close()
	nic, _ := New(fab, 0, Config{})
	defer nic.Close()
	cq := NewCQ(8)
	qp, _ := nic.CreateQP(cq, cq)
	if err := qp.PostSend(SendWR{Op: OpSend, Local: []byte{1}}); err != ErrQPState {
		t.Fatalf("post before connect: %v", err)
	}
	if qp.RemoteNode() != -1 {
		t.Fatalf("RemoteNode before connect = %d", qp.RemoteNode())
	}
}

func TestInvalidWRs(t *testing.T) {
	p := newPair(t, Config{})
	cases := []SendWR{
		{Op: OpInvalid, Local: []byte{1}},
		{Op: OpRDMAWrite, Local: []byte{1}},                                // zero remote addr
		{Op: OpRDMARead, RemoteAddr: 0x1000},                               // no dest
		{Op: OpAtomicFetchAdd, RemoteAddr: 0x1000, Local: []byte{1}},       // short result
		{Op: OpAtomicCompSwap, RemoteAddr: 0x1001, Local: make([]byte, 8)}, // misaligned
	}
	for i, wr := range cases {
		if err := p.qpA.PostSend(wr); err == nil {
			t.Fatalf("case %d accepted invalid WR", i)
		}
	}
}

func TestInOrderManyWrites(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 8)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	const n = 500
	for i := 0; i < n; i++ {
		val := []byte{byte(i)}
		sig := i == n-1
		for {
			err := p.qpA.PostSend(SendWR{WRID: uint64(i), Op: OpRDMAWrite, Local: val,
				RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: sig})
			if err == nil {
				break
			}
			if err != ErrSQFull {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	waitCQE(t, p.cqA)
	if want := byte((n - 1) % 256); mem[0] != want {
		t.Fatalf("final value = %d, want %d (in-order violated)", mem[0], want)
	}
}

func TestCountersTrackTraffic(t *testing.T) {
	p := newPair(t, Config{})
	mem := make([]byte, 64)
	mr, _ := p.nicB.RegisterMemory(mem, AccessAll)
	p.qpA.PostSend(SendWR{WRID: 1, Op: OpRDMAWrite, Local: make([]byte, 10),
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true})
	waitCQE(t, p.cqA)
	ca, cb := p.nicA.Counters(), p.nicB.Counters()
	if ca.SendsPosted != 1 || ca.WireFrames == 0 || ca.Completions != 1 {
		t.Fatalf("initiator counters = %+v", ca)
	}
	if cb.RemoteWrites != 1 {
		t.Fatalf("target counters = %+v", cb)
	}
}

func TestCQPollSemantics(t *testing.T) {
	cq := NewCQ(4)
	dst := make([]CQE, 10)
	if n := cq.PollInto(dst); n != 0 {
		t.Fatalf("empty poll = %d entries", n)
	}
	for i := 0; i < 4; i++ {
		cq.push(CQE{WRID: uint64(i)})
	}
	cq.push(CQE{WRID: 99}) // overflow
	if cq.Overflows() != 1 {
		t.Fatalf("overflows = %d", cq.Overflows())
	}
	n := cq.PollInto(dst)
	if n != 4 {
		t.Fatalf("poll = %d entries", n)
	}
	for i, e := range dst[:n] {
		if e.WRID != uint64(i) {
			t.Fatalf("order violated: %+v", dst[:n])
		}
	}
}

func TestCQPollInto(t *testing.T) {
	cq := NewCQ(8)
	for i := 0; i < 5; i++ {
		cq.push(CQE{WRID: uint64(i)})
	}
	dst := make([]CQE, 3)
	if n := cq.PollInto(dst); n != 3 || dst[0].WRID != 0 || dst[2].WRID != 2 {
		t.Fatalf("PollInto = %d %+v", n, dst)
	}
	if n := cq.PollInto(dst); n != 2 || dst[0].WRID != 3 {
		t.Fatalf("second PollInto = %d %+v", n, dst[:n])
	}
	if n := cq.PollInto(nil); n != 0 {
		t.Fatalf("PollInto(nil) = %d", n)
	}
}

func TestQPCloseStopsTraffic(t *testing.T) {
	p := newPair(t, Config{})
	p.qpA.Close()
	if err := p.qpA.PostSend(SendWR{Op: OpSend, Local: []byte{1}}); err != ErrQPState {
		t.Fatalf("post on closed QP: %v", err)
	}
	if err := p.qpA.PostRecv(RecvWR{WRID: 1}); err != ErrQPState {
		t.Fatalf("recv on closed QP: %v", err)
	}
}

func TestNICCloseIdempotentAndRejects(t *testing.T) {
	fab := fabric.New(1, fabric.Model{})
	defer fab.Close()
	nic, _ := New(fab, 0, Config{})
	nic.Close()
	nic.Close()
	if _, err := nic.RegisterMemory(make([]byte, 8), AccessAll); err != ErrClosed {
		t.Fatalf("register after close: %v", err)
	}
	if _, err := nic.CreateQP(NewCQ(1), NewCQ(1)); err != ErrClosed {
		t.Fatalf("createQP after close: %v", err)
	}
}

func TestSharedCQAcrossQPs(t *testing.T) {
	fab := fabric.New(2, fabric.Model{})
	defer fab.Close()
	nicA, _ := New(fab, 0, Config{})
	nicB, _ := New(fab, 1, Config{})
	defer nicA.Close()
	defer nicB.Close()
	shared := NewCQ(64)
	rcq := NewCQ(64)
	qp1, _ := nicA.CreateQP(shared, rcq)
	qp2, _ := nicA.CreateQP(shared, rcq)
	rq1, _ := nicB.CreateQP(NewCQ(8), NewCQ(8))
	rq2, _ := nicB.CreateQP(NewCQ(8), NewCQ(8))
	qp1.Connect(1, rq1.QPN())
	rq1.Connect(0, qp1.QPN())
	qp2.Connect(1, rq2.QPN())
	rq2.Connect(0, qp2.QPN())
	mem := make([]byte, 16)
	mr, _ := nicB.RegisterMemory(mem, AccessAll)
	qp1.PostSend(SendWR{WRID: 101, Op: OpRDMAWrite, Local: []byte{1}, RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true})
	qp2.PostSend(SendWR{WRID: 202, Op: OpRDMAWrite, Local: []byte{2}, RemoteAddr: mr.Base() + 8, RKey: mr.RKey(), Signaled: true})
	seen := map[uint64]bool{}
	deadline := time.Now().Add(2 * time.Second)
	for len(seen) < 2 && time.Now().Before(deadline) {
		var got [4]CQE
		n := shared.PollInto(got[:])
		for _, e := range got[:n] {
			seen[e.WRID] = true
			if e.Status != StatusOK {
				t.Fatalf("bad completion %+v", e)
			}
		}
		time.Sleep(20 * time.Microsecond)
	}
	if !seen[101] || !seen[202] {
		t.Fatalf("missing completions: %v", seen)
	}
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	if OpRDMAWrite.String() != "rdma-write" || OpRecv.String() != "recv" {
		t.Fatal("opcode names wrong")
	}
	if StatusOK.String() != "ok" || StatusRNRExceeded.String() != "rnr-exceeded" {
		t.Fatal("status names wrong")
	}
	if Opcode(200).String() != "opcode(?)" || Status(200).String() != "status(?)" {
		t.Fatal("unknown enum names wrong")
	}
}

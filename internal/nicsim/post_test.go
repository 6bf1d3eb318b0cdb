package nicsim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"photon/internal/fabric"
)

// pendingLen reads the number of outstanding send work requests.
func (qp *QP) pendingLen() int {
	qp.mu.Lock()
	defer qp.mu.Unlock()
	return len(qp.pending)
}

// TestPostToFullLinkRefused: with a one-frame link whose target is
// stalled on its region lock, a post that finds the link full returns
// ErrSQFull at once instead of waiting for room, and keeps doing so
// while the link stays full. Once the target runs again, every
// accepted signaled write completes exactly once, in post order, and
// nothing stays pending.
func TestPostToFullLinkRefused(t *testing.T) {
	p := newPairOn(t, fabric.Model{QueueDepth: 1}, Config{})
	mr, err := p.nicB.RegisterMemory(make([]byte, 64), AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	write := func(id uint64) error {
		return p.qpA.PostSend(SendWR{WRID: id, Op: OpRDMAWrite, Local: []byte{byte(id)},
			RemoteAddr: mr.Base() + id%8*8, RKey: mr.RKey(), Signaled: true})
	}
	dma := mr.RLocker()
	dma.Lock()
	// Write 0 is refused on the poster's goroutine (the region lock is
	// held) and the link's delivery goroutine then waits on the lock;
	// write 1 takes the link's one queue slot.
	if err := write(0); err != nil {
		dma.Unlock()
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); p.fab.Stats(0, 1).Frames == 0; {
		if time.Now().After(deadline) {
			dma.Unlock()
			t.Fatal("first write never reached the target")
		}
		runtime.Gosched()
	}
	if err := write(1); err != nil {
		dma.Unlock()
		t.Fatal(err)
	}
	const accepted = 2
	refused := make(chan error, 1)
	go func() {
		for i := 0; i < 4; i++ {
			if err := write(99); err != ErrSQFull {
				refused <- err
				return
			}
		}
		refused <- nil
	}()
	select {
	case err := <-refused:
		if err != nil {
			dma.Unlock()
			t.Fatalf("post toward a full link: %v, want ErrSQFull", err)
		}
	case <-time.After(5 * time.Second):
		dma.Unlock()
		t.Fatal("PostSend blocked on a full link")
	}
	if n := p.qpA.pendingLen(); n != accepted {
		dma.Unlock()
		t.Fatalf("%d pending after %d accepted posts", n, accepted)
	}
	dma.Unlock()
	for i := 0; i < accepted; i++ {
		if c := waitCQE(t, p.cqA); c.WRID != uint64(i) || c.Status != StatusOK {
			t.Fatalf("completion %d = %+v, want WRID %d ok", i, c, i)
		}
	}
	time.Sleep(time.Millisecond)
	if n := p.cqA.FastLen(); n != 0 {
		t.Fatalf("%d extra completions", n)
	}
	if n := p.qpA.pendingLen(); n != 0 {
		t.Fatalf("%d requests still pending", n)
	}
	if c := p.nicA.Counters(); c.SendsPosted != int64(accepted) || c.Completions != int64(accepted) {
		t.Fatalf("counters %+v, want %d posted and completed", c, accepted)
	}
}

// TestConcurrentPostersOneQP: eight goroutines post signaled writes on
// one QP. Every request completes exactly once and successfully, each
// poster's requests complete in its own post order (one goroutine's
// posts reach the wire in call order), and the NIC counts as many
// completions as accepted posts.
func TestConcurrentPostersOneQP(t *testing.T) {
	const (
		posters = 8
		each    = 500
	)
	fab := fabric.New(2, fabric.Model{})
	t.Cleanup(fab.Close)
	nicA, err := New(fab, 0, Config{SQDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	nicB, err := New(fab, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nicA.Close)
	t.Cleanup(nicB.Close)
	cq := NewCQ(posters * each)
	qpA, _ := nicA.CreateQP(cq, NewCQ(1))
	qpB, _ := nicB.CreateQP(NewCQ(1), NewCQ(1))
	if err := qpA.Connect(1, qpB.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qpB.Connect(0, qpA.QPN()); err != nil {
		t.Fatal(err)
	}
	mr, err := nicB.RegisterMemory(make([]byte, posters*8), AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				wr := SendWR{WRID: uint64(g*each + i), Op: OpRDMAWrite, Local: []byte{byte(i)},
					RemoteAddr: mr.Base() + uint64(g*8), RKey: mr.RKey(), Signaled: true}
				for {
					err := qpA.PostSend(wr)
					if err == nil {
						break
					}
					if err != ErrSQFull {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}
		}(g)
	}
	wg.Wait()
	next := make([]int, posters)
	buf := make([]CQE, 64)
	deadline := time.Now().Add(10 * time.Second)
	for got := 0; got < posters*each; {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d completions", got, posters*each)
		}
		n := cq.PollInto(buf)
		for _, c := range buf[:n] {
			g, i := int(c.WRID)/each, int(c.WRID)%each
			if c.Status != StatusOK || g >= posters || i != next[g] {
				t.Fatalf("completion %+v: poster %d expected request %d next", c, g, next[g])
			}
			next[g]++
		}
		got += n
		if n == 0 {
			runtime.Gosched()
		}
	}
	time.Sleep(time.Millisecond)
	if n := cq.FastLen(); n != 0 || cq.Overflows() != 0 {
		t.Fatalf("%d extra completions, %d overflows", n, cq.Overflows())
	}
	if c := nicA.Counters(); c.SendsPosted != posters*each || c.Completions != c.SendsPosted {
		t.Fatalf("counters %+v: want %d posted, as many completed", c, posters*each)
	}
	if n := qpA.pendingLen(); n != 0 {
		t.Fatalf("%d requests still pending", n)
	}
}

// TestCreateQPStartsNoGoroutine guards the post path against a relay
// goroutine coming back: creating and connecting QPs costs no
// goroutine, so posts run on their callers.
func TestCreateQPStartsNoGoroutine(t *testing.T) {
	fab := fabric.New(2, fabric.Model{})
	defer fab.Close()
	nic, err := New(fab, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nic.Close()
	before := runtime.NumGoroutine()
	for i := 0; i < 64; i++ {
		cq := NewCQ(4)
		qp, err := nic.CreateQP(cq, cq)
		if err != nil {
			t.Fatal(err)
		}
		if err := qp.Connect(1, uint32(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("64 QPs started %d goroutines", after-before)
	}
}

// TestPostSendAllocGuard pins a signaled 8 B RDMA write and the poll
// that reaps its completion at zero allocations: the request, its
// frame, the ACK and the CQE all come from pools or the CQ's ring.
func TestPostSendAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop entries")
	}
	p := newPair(t, Config{})
	mr, err := p.nicB.RegisterMemory(make([]byte, 64), AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8)
	wr := SendWR{WRID: 1, Op: OpRDMAWrite, Local: payload,
		RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true}
	var got [1]CQE
	op := func() {
		if err := p.qpA.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		for p.cqA.PollInto(got[:]) == 0 {
			runtime.Gosched()
		}
		if got[0].Status != StatusOK {
			t.Fatalf("write completed as %+v", got[0])
		}
	}
	for i := 0; i < 100; i++ {
		op()
	}
	avg := testing.AllocsPerRun(1000, op)
	t.Logf("%.2f allocs per signaled 8 B write and its poll", avg)
	if avg != 0 {
		t.Errorf("signaled 8 B write allocates %.2f times, want 0", avg)
	}
	if hw := p.fab.TotalStats().MaxQueued; hw != 0 {
		t.Errorf("a frame was queued (high-water %d): the guard did not run the inline path", hw)
	}
}

// TestPostCompletesInline: on drained zero-delay links a signaled
// 8 B write is applied, ACKed and its CQE queued before PostSend
// returns — no goroutine stands between the post and its completion —
// and so are a read (its destination filled) and a fetch-add.
func TestPostCompletesInline(t *testing.T) {
	p := newPair(t, Config{})
	target := make([]byte, 64)
	mr, err := p.nicB.RegisterMemory(target, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	dst, old := make([]byte, 8), make([]byte, 8)
	for i, wr := range []SendWR{
		{Op: OpRDMAWrite, Local: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Op: OpRDMARead, Local: dst},
		{Op: OpAtomicFetchAdd, Local: old, Add: 5},
	} {
		wr.WRID, wr.RemoteAddr, wr.RKey, wr.Signaled = uint64(i), mr.Base(), mr.RKey(), true
		if err := p.qpA.PostSend(wr); err != nil {
			t.Fatal(err)
		}
		if n := p.cqA.FastLen(); n != 1 {
			t.Fatalf("%v: %d completions queued when PostSend returned, want 1", wr.Op, n)
		}
		if c := waitCQE(t, p.cqA); c.WRID != uint64(i) || c.Status != StatusOK {
			t.Fatalf("%v completed as %+v", wr.Op, c)
		}
	}
	if string(dst) != "\x01\x02\x03\x04\x05\x06\x07\x08" || old[0] != 1 || target[0] != 6 {
		t.Fatalf("read %x, fetch-add returned %x, target now %x", dst, old, target[:8])
	}
	if hw := p.fab.TotalStats().MaxQueued; hw != 0 {
		t.Fatalf("%d frames queued on drained links", hw)
	}
}

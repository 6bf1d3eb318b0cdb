package tcp

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"photon/internal/core"
)

// --- replyQueue retention / order ---

// TestReplyQueueNoRetention is the regression test for the pop path: a
// popped frame must not stay reachable from the queue, or the queue
// pins every response payload ever queued (reads of large buffers
// would accumulate as garbage the GC cannot reclaim). The payload's
// finalizer runs only once nothing references it.
func TestReplyQueueNoRetention(t *testing.T) {
	rq := newReplyQueue()
	freed := make(chan struct{})
	big := make([]byte, 1<<20)
	runtime.SetFinalizer(&big[0], func(*byte) { close(freed) })
	rq.push(replyFrame{data: big})
	rq.push(replyFrame{data: []byte("tail")})
	big = nil
	if f, ok := rq.pop(); !ok || len(f.data) != 1<<20 {
		t.Fatalf("first pop = %d bytes, %v", len(f.data), ok)
	}
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-freed:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("popped payload is still reachable from the queue")
			}
		}
	}
	if f, ok := rq.pop(); !ok || string(f.data) != "tail" {
		t.Fatalf("tail pop = %q, %v", f.data, ok)
	}
	if _, ok := rq.pop(); ok {
		t.Fatal("pop from a drained queue succeeded")
	}
}

// TestReplyQueueRequeue covers a flush lost with its connection: the
// writer requeues the frames it had popped, and they must go out
// again first, in their original order, ahead of a non-empty backlog
// that has wrapped the queue's ring, even when they outgrow it.
func TestReplyQueueRequeue(t *testing.T) {
	rq := newReplyQueue()
	const n = 600
	for i := 0; i < n; i++ {
		rq.push(replyFrame{stamp: uint64(i)})
	}
	var popped []replyFrame
	for i := 0; i < n/2; i++ {
		f, ok := rq.pop()
		if !ok || f.stamp != uint64(i) {
			t.Fatalf("pop %d = stamp %d, %v", i, f.stamp, ok)
		}
		popped = append(popped, f)
	}
	for i := n; i < 2*n; i++ {
		rq.push(replyFrame{stamp: uint64(i)})
	}
	rq.requeue(popped[n/6:])
	for want := uint64(n / 6); want < 2*n; want++ {
		f, ok := rq.pop()
		if !ok || f.stamp != want {
			t.Fatalf("pop after requeue = stamp %d, %v (want %d)", f.stamp, ok, want)
		}
	}
	if _, ok := rq.pop(); ok {
		t.Fatal("queue holds frames it was never given")
	}
}

// --- backend-level harness ---

// newBackendPair boots two connected TCP backends over loopback.
func newBackendPair(t *testing.T, cfg Config) [2]*Backend {
	t.Helper()
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	var bes [2]*Backend
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cfg
			c.Rank = r
			c.Addrs = addrs
			c.Listener = lns[r]
			bes[r], errs[r] = New(c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, be := range bes {
			if be != nil {
				be.Close()
			}
		}
	})
	return bes
}

// waitComps polls be until want completions arrive or the deadline
// passes, parking on the backend's Notify channel between polls.
func waitComps(t *testing.T, be *Backend, want int) []core.BackendCompletion {
	t.Helper()
	var got []core.BackendCompletion
	buf := make([]core.BackendCompletion, 64)
	deadline := time.Now().Add(20 * time.Second)
	for len(got) < want {
		n := be.Poll(buf)
		got = append(got, buf[:n]...)
		if n == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("timeout: %d/%d completions", len(got), want)
			}
			select {
			case <-be.Notify():
			case <-time.After(time.Millisecond):
			}
		}
	}
	return got
}

// --- pipelined stress: coalescing and cumulative acks under load ---

// TestTCPPipelinedStress drives bidirectional pipelined writes, reads,
// and atomics between two ranks and then checks the data path actually
// coalesced: multiple frames per Write syscall, cumulative acks
// covering many signaled writes per ack event, and a nonzero share of
// acks piggybacked on data-bearing flushes. Run under -race in CI.
func TestTCPPipelinedStress(t *testing.T) {
	bes := newBackendPair(t, Config{})
	const (
		ops    = 400
		window = 64
		size   = 4096
	)
	var sinks [2][]byte
	var descs [2]struct {
		addr uint64
		rkey uint32
	}
	for r := 0; r < 2; r++ {
		sinks[r] = make([]byte, 1<<20)
		rb, _, err := bes[r].Register(sinks[r])
		if err != nil {
			t.Fatal(err)
		}
		descs[r] = struct {
			addr uint64
			rkey uint32
		}{rb.Addr, rb.RKey}
	}

	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			peer := 1 - r
			src := bytes.Repeat([]byte{byte(r + 1)}, size)
			resBufs := make([][]byte, 0, ops/8+1)
			inflight, completed, posted := 0, 0, 0
			buf := make([]core.BackendCompletion, 64)
			reap := func() {
				n := bes[r].Poll(buf)
				for _, c := range buf[:n] {
					if !c.OK {
						t.Errorf("rank %d: op %d failed: %v", r, c.Token, c.Err)
					}
				}
				inflight -= n
				completed += n
			}
			for posted < ops {
				for inflight >= window {
					reap()
				}
				tok := uint64(posted + 1)
				var err error
				switch {
				case posted%16 == 7:
					res := make([]byte, 8)
					resBufs = append(resBufs, res)
					err = bes[r].PostFetchAdd(peer, res, descs[peer].addr+uint64(size), descs[peer].rkey, 1, tok)
				case posted%8 == 3:
					res := make([]byte, size)
					resBufs = append(resBufs, res)
					err = bes[r].PostRead(peer, res, descs[peer].addr, descs[peer].rkey, tok)
				default:
					err = bes[r].PostWrite(peer, src, descs[peer].addr+uint64(posted%4)*size, descs[peer].rkey, tok, true)
				}
				if err == core.ErrWouldBlock {
					reap()
					continue
				}
				if err != nil {
					t.Errorf("rank %d post %d: %v", r, posted, err)
					return
				}
				posted++
				inflight++
			}
			for completed < ops {
				reap()
				if inflight > 0 {
					select {
					case <-bes[r].Notify():
					case <-time.After(time.Millisecond):
					}
				}
			}
		}(r)
	}
	wg.Wait()

	for r := 0; r < 2; r++ {
		s := bes[r].Stats()
		if s.FramesOut <= s.Flushes {
			t.Errorf("rank %d: %d frames in %d flushes, want frames/flush > 1 (no coalescing happened): %+v", r, s.FramesOut, s.Flushes, s)
		}
		if s.AckFramesSent >= s.SignaledAcked {
			t.Errorf("rank %d: %d standalone ack frames for %d acked writes, want cumulative acks to cover several writes each",
				r, s.AckFramesSent, s.SignaledAcked)
		}
		if s.AcksPiggybacked == 0 {
			t.Errorf("rank %d: no acks piggybacked on data frames under bidirectional load", r)
		}
		if s.NacksSent != 0 {
			t.Errorf("rank %d: unexpected nacks: %d", r, s.NacksSent)
		}
	}
}

// --- slow reader backpressure ---

// TestTCPSlowReaderBackpressure stalls the target's reader (by holding
// the registration lock its apply path needs) while the initiator
// floods large writes. The flood must surface as ErrWouldBlock at the
// initiator — bounded queues, no unbounded buffering — and every write
// must still complete once the reader resumes. The stall lasts until
// the first ErrWouldBlock, or until the flood is far past what loopback
// socket buffers can absorb (autotuning grows a receive buffer to 32
// MiB), so a fast host cannot swallow the flood before backpressure
// shows.
func TestTCPSlowReaderBackpressure(t *testing.T) {
	bes := newBackendPair(t, Config{SendDepth: 8})
	sink := make([]byte, 1<<20)
	rb, dma, err := bes[1].Register(sink)
	if err != nil {
		t.Fatal(err)
	}

	// Stall rank 1's reader: its next opWrite apply blocks while a
	// local reader holds the DMA lock.
	dma.Lock()
	stalled := true
	release := func() {
		if stalled {
			stalled = false
			dma.Unlock()
		}
	}
	defer release()

	const floodBound = 128 << 20
	src := make([]byte, 64<<10)
	posted, wouldBlock := 0, 0
	post := func() error {
		return bes[0].PostWrite(1, src, rb.Addr, rb.RKey, uint64(posted+1), true)
	}
	for posted*len(src) < floodBound {
		err := post()
		if err == core.ErrWouldBlock {
			wouldBlock++
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		posted++
	}
	release()
	if wouldBlock == 0 {
		t.Errorf("%d MiB flood against a stalled reader never hit ErrWouldBlock; send queue is not applying backpressure", posted*len(src)>>20)
	}
	// A tail posted behind the stall must drain too.
	for tail := posted + 16; posted < tail; {
		err := post()
		if err == core.ErrWouldBlock {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		posted++
	}
	comps := waitComps(t, bes[0], posted)
	for _, c := range comps {
		if !c.OK {
			t.Fatalf("write %d failed: %v", c.Token, c.Err)
		}
	}
}

// --- mixed-kind completion ordering ---

// TestTCPAckOrderingMixed pipelines a deliberately awkward interleaving
// toward one peer — signaled writes (one with a bad rkey, which must
// come back as a nacked error), unsignaled writes, reads, and atomics —
// without waiting in between, then asserts the completions arrive in
// exact posting order with the right status. This is the backend
// contract the engine builds on: per-rank posting order, and a
// signaled completion implying everything earlier completed.
func TestTCPAckOrderingMixed(t *testing.T) {
	bes := newBackendPair(t, Config{})
	sink := make([]byte, 4096)
	rb, lk, err := bes[1].Register(sink)
	if err != nil {
		t.Fatal(err)
	}

	type step struct {
		kind string
		tok  uint64
		ok   bool
	}
	var plan []step
	var resBufs [][]byte
	post := func(kind string, tok uint64, ok bool, f func() error) {
		t.Helper()
		for {
			err := f()
			if err == core.ErrWouldBlock {
				continue
			}
			if err != nil {
				t.Fatalf("post %s tok %d: %v", kind, tok, err)
			}
			break
		}
		plan = append(plan, step{kind, tok, ok})
	}

	payload := []byte("ordering probe payload")
	for round := 0; round < 50; round++ {
		base := uint64(round * 10)
		post("write", base+1, true, func() error {
			return bes[0].PostWrite(1, payload, rb.Addr, rb.RKey, base+1, true)
		})
		res := make([]byte, len(payload))
		resBufs = append(resBufs, res)
		post("read", base+2, true, func() error {
			return bes[0].PostRead(1, res, rb.Addr, rb.RKey, base+2)
		})
		post("badwrite", base+3, false, func() error {
			return bes[0].PostWrite(1, payload, rb.Addr, 0xdead, base+3, true)
		})
		fres := make([]byte, 8)
		resBufs = append(resBufs, fres)
		post("fadd", base+4, true, func() error {
			return bes[0].PostFetchAdd(1, fres, rb.Addr+1024, rb.RKey, 1, base+4)
		})
		// Unsignaled write: no completion, but later signaled ops must
		// still ack past it correctly.
		for {
			err := bes[0].PostWrite(1, payload, rb.Addr+2048, rb.RKey, 0, false)
			if err == core.ErrWouldBlock {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		post("write", base+5, true, func() error {
			return bes[0].PostWrite(1, payload, rb.Addr, rb.RKey, base+5, true)
		})
	}

	comps := waitComps(t, bes[0], len(plan))
	for i, c := range comps {
		want := plan[i]
		if c.Token != want.tok || c.OK != want.ok {
			t.Fatalf("completion %d = tok %d ok=%v, want %s tok %d ok=%v",
				i, c.Token, c.OK, want.kind, want.tok, want.ok)
		}
	}
	lk.Lock()
	ok := bytes.Equal(sink[:len(payload)], payload) && bytes.Equal(sink[2048:2048+len(payload)], payload)
	lk.Unlock()
	if !ok {
		t.Fatal("payloads not visible at target")
	}
	if n := bes[1].Stats().NacksSent; n != 50 {
		t.Errorf("target nacks = %d, want 50", n)
	}
	_ = resBufs // result buffers stay owned by the backend until completion
}

// --- wire-supplied lengths ---

// TestReadLengthValidatedBeforeAlloc feeds the agent a 25-byte read
// request whose length field claims 4 GiB. The length must be checked
// against the registration before it sizes anything: the request gets a
// failed-status response and the agent allocates next to nothing.
func TestReadLengthValidatedBeforeAlloc(t *testing.T) {
	bes := newBackendPair(t, Config{})
	be := bes[1]
	rb, _, err := be.Register(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	const token = 42
	f := make([]byte, 25)
	f[0] = opRead
	binary.LittleEndian.PutUint64(f[1:], token)
	binary.LittleEndian.PutUint64(f[9:], rb.Addr)
	binary.LittleEndian.PutUint32(f[17:], rb.RKey)
	binary.LittleEndian.PutUint32(f[21:], 0xFFFFFFFF)

	// Loopback dispatch answers inline, so the response lands on this
	// backend's own pending table and completion queue.
	be.pendMu.Lock()
	be.pendBuf[token] = pendDst{buf: make([]byte, 8), rank: be.rank}
	be.pendMu.Unlock()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	be.handleFrame(be.rank, f)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a malformed read made the agent allocate %d bytes", grew)
	}
	comps := waitComps(t, be, 1)
	if comps[0].Token != token || comps[0].OK {
		t.Fatalf("oversized read completed as %+v, want a failed completion", comps[0])
	}
}

// TestHeartbeatBodyLengthChecked feeds handleFrame heartbeat bodies of
// every interesting length. The handshake admits only wireVersion
// peers, so a body shorter than hbBodyLen is malformed: it must be
// dropped before the fixed-offset timestamp reads, leaving the link's
// clock-sync state untouched. A full body is recorded for the echo.
func TestHeartbeatBodyLengthChecked(t *testing.T) {
	be := newBackendPair(t, Config{})[1]
	const peer = 0
	lk := be.links[peer]
	for _, c := range []struct {
		name   string
		n      int
		synced bool
	}{
		{"bare opcode", 1, false},
		{"one byte short", hbBodyLen - 1, false},
		{"full body", hbBodyLen, true},
	} {
		lk.hbPeerTx.Store(0)
		lk.hbPeerRx.Store(0)
		f := make([]byte, c.n)
		f[0] = opHeartbeat
		if c.n >= 9 {
			binary.LittleEndian.PutUint64(f[1:], 12345) // peer's tx stamp
		}
		if be.handleFrame(peer, f) {
			t.Errorf("%s: a heartbeat counted as an applied signaled write", c.name)
		}
		if got := lk.hbPeerTx.Load() != 0 || lk.hbPeerRx.Load() != 0; got != c.synced {
			t.Errorf("%s (%d bytes): clock-sync state touched = %v, want %v", c.name, c.n, got, c.synced)
		}
		if n := be.PeerStats(peer).ClockSamples; n != 0 {
			t.Errorf("%s: %d clock samples from a heartbeat that echoes nothing", c.name, n)
		}
	}
}

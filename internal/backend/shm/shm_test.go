package shm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/shm"
	"photon/internal/core"
	"photon/internal/mem"
	"photon/internal/trace"
)

const waitT = 5 * time.Second

func newCluster(t *testing.T, n int) *shm.Cluster {
	t.Helper()
	cl, err := shm.NewCluster(n, shm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// waitComps polls b until want completions arrive, failing on error
// completions.
func waitComps(t *testing.T, b *shm.Backend, want int) []core.BackendCompletion {
	t.Helper()
	var out []core.BackendCompletion
	var buf [16]core.BackendCompletion
	deadline := time.Now().Add(waitT)
	for len(out) < want {
		n := b.Poll(buf[:])
		for i := 0; i < n; i++ {
			if !buf[i].OK {
				t.Fatalf("completion %d failed: %v", buf[i].Token, buf[i].Err)
			}
			out = append(out, buf[i])
		}
		if n == 0 && time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d completions", len(out), want)
		}
	}
	return out
}

// TestNewClusterStartsNoGoroutine pins the shape of the backend: a
// job of 8 ranks, and traffic through its backlogs, run entirely on
// the callers' goroutines. Goroutines left by earlier tests may still
// be exiting, so the baseline is taken once the count holds still, and
// the count must not rise above it.
func TestNewClusterStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for deadline := time.Now().Add(waitT); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	cl, err := shm.NewCluster(8, shm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewCluster(8) changed the goroutine count %d → %d", before, n)
	}
	rb, dma, err := cl.Backend(7).Register(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	dma.Lock()
	for r := 0; r < 7; r++ {
		if err := cl.Backend(r).PostWrite(7, []byte{byte(r)}, rb.Addr+uint64(r), rb.RKey, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	dma.Unlock()
	cl.Backend(7).Poll(nil)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("backlogged traffic changed the goroutine count %d → %d", before, n)
	}
}

// TestBackloggedPutLandsWithPosterParked queues one unsignaled write
// behind rank 1's held DMA lock; rank 0 then neither posts nor polls
// again. Once the lock is released, rank 1's own Poll must land the
// bytes and move its write-activity counter.
func TestBackloggedPutLandsWithPosterParked(t *testing.T) {
	cl := newCluster(t, 2)
	b0, b1 := cl.Backend(0), cl.Backend(1)
	target := make([]byte, 64)
	rb, dma, err := b1.Register(target)
	if err != nil {
		t.Fatal(err)
	}
	act, _ := b1.WriteActivity(rb)
	dma.Lock()
	if err := b0.PostWrite(1, []byte{0xC0, 0xDE}, rb.Addr+8, rb.RKey, 0, false); err != nil {
		t.Fatal(err)
	}
	a0 := act()
	dma.Unlock()
	if framesOut(b0) != 1 {
		t.Fatalf("the write posted behind a held table lock was not backlogged (frames out %d)", framesOut(b0))
	}
	select {
	case <-b1.Notify():
	default:
		t.Fatal("backlogging the write did not kick the target")
	}
	if n := b1.Poll(make([]core.BackendCompletion, 4)); n != 0 {
		t.Fatalf("target reaped %d completions for an unsignaled write", n)
	}
	dma.Lock()
	landed := target[8] == 0xC0 && target[9] == 0xDE
	dma.Unlock()
	if !landed || act() == a0 {
		t.Fatalf("target's Poll did not land the backlogged write: bytes % x, activity %d → %d", target[8:10], a0, act())
	}
}

// TestDMAUnlockWakesRefusedTarget: when rank 1's Poll finds a
// backlogged write behind rank 1's held DMA lock, releasing the lock
// must wake rank 1 again, so a parked engine retries at once instead of
// waiting for some unrelated event.
func TestDMAUnlockWakesRefusedTarget(t *testing.T) {
	cl := newCluster(t, 2)
	b0, b1 := cl.Backend(0), cl.Backend(1)
	target := make([]byte, 8)
	rb, dma, err := b1.Register(target)
	if err != nil {
		t.Fatal(err)
	}
	woken := func() bool {
		select {
		case <-b1.Notify():
			return true
		default:
			return false
		}
	}
	dma.Lock()
	if err := b0.PostWrite(1, []byte{0x5A}, rb.Addr, rb.RKey, 0, false); err != nil {
		t.Fatal(err)
	}
	if !woken() {
		t.Fatal("backlogging the write did not kick the target")
	}
	b1.Poll(nil) // refused: the table lock is held
	if woken() {
		t.Fatal("target woken while its DMA lock is still held")
	}
	dma.Unlock()
	if !woken() {
		t.Fatal("releasing the DMA lock did not wake the target that was refused")
	}
	b1.Poll(nil)
	dma.Lock()
	landed := target[0] == 0x5A
	dma.Unlock()
	if !landed {
		t.Fatal("the woken target's Poll did not land the write")
	}
}

func TestBackendIdentity(t *testing.T) {
	cl := newCluster(t, 3)
	for r, b := range cl.Backends() {
		if b.Rank() != r || b.Size() != 3 {
			t.Fatalf("backend %d: rank=%d size=%d", r, b.Rank(), b.Size())
		}
	}
}

func TestWriteReadAtomicMesh(t *testing.T) {
	cl := newCluster(t, 3)
	bufs := make([][]byte, 3)
	rbs := make([]struct {
		addr uint64
		rkey uint32
	}, 3)
	for r, b := range cl.Backends() {
		bufs[r] = make([]byte, 256)
		rb, lk, err := b.Register(bufs[r])
		if err != nil {
			t.Fatal(err)
		}
		if lk == nil {
			t.Fatal("nil read locker")
		}
		rbs[r].addr, rbs[r].rkey = rb.Addr, rb.RKey
	}

	// Every rank writes its signature to every other rank.
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			msg := []byte{byte(10*src + dst), 0xAB}
			off := uint64(src * 16)
			if err := cl.Backend(src).PostWrite(dst, msg, rbs[dst].addr+off, rbs[dst].rkey, uint64(100*src+dst), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	for src := 0; src < 3; src++ {
		waitComps(t, cl.Backend(src), 2)
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			if bufs[dst][src*16] != byte(10*src+dst) || bufs[dst][src*16+1] != 0xAB {
				t.Fatalf("write %d->%d not applied: %x", src, dst, bufs[dst][src*16:src*16+2])
			}
		}
	}

	// Read back: rank 2 reads rank 0's region written by rank 1.
	got := make([]byte, 2)
	if err := cl.Backend(2).PostRead(0, got, rbs[0].addr+16, rbs[0].rkey, 777); err != nil {
		t.Fatal(err)
	}
	waitComps(t, cl.Backend(2), 1)
	if !bytes.Equal(got, []byte{10, 0xAB}) {
		t.Fatalf("read returned %x", got)
	}

	// Atomics: fetch-add then comp-swap on a word at rank 1.
	binary.LittleEndian.PutUint64(bufs[1][128:], 40)
	prior := make([]byte, 8)
	if err := cl.Backend(0).PostFetchAdd(1, prior, rbs[1].addr+128, rbs[1].rkey, 2, 801); err != nil {
		t.Fatal(err)
	}
	waitComps(t, cl.Backend(0), 1)
	if binary.LittleEndian.Uint64(prior) != 40 {
		t.Fatalf("fetch-add prior = %d", binary.LittleEndian.Uint64(prior))
	}
	if err := cl.Backend(0).PostCompSwap(1, prior, rbs[1].addr+128, rbs[1].rkey, 42, 7, 802); err != nil {
		t.Fatal(err)
	}
	waitComps(t, cl.Backend(0), 1)
	if binary.LittleEndian.Uint64(prior) != 42 {
		t.Fatalf("comp-swap prior = %d", binary.LittleEndian.Uint64(prior))
	}
	if binary.LittleEndian.Uint64(bufs[1][128:]) != 7 {
		t.Fatalf("comp-swap result = %d", binary.LittleEndian.Uint64(bufs[1][128:]))
	}
}

// TestSignaledFencesEarlier pins the RC ordering contract: a signaled
// completion implies every earlier (unsignaled) write toward the same
// rank has been applied.
func TestSignaledFencesEarlier(t *testing.T) {
	cl := newCluster(t, 2)
	target := make([]byte, 1024)
	rb, _, err := cl.Backend(1).Register(target)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < 7; i++ {
			p := []byte{byte(round), byte(i)}
			if err := cl.Backend(0).PostWrite(1, p, rb.Addr+uint64(i*2), rb.RKey, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Backend(0).PostWrite(1, []byte{0xFF}, rb.Addr+512, rb.RKey, uint64(round), true); err != nil {
			t.Fatal(err)
		}
		waitComps(t, cl.Backend(0), 1)
		for i := 0; i < 7; i++ {
			if target[i*2] != byte(round) || target[i*2+1] != byte(i) {
				t.Fatalf("round %d: unsignaled write %d not fenced", round, i)
			}
		}
	}
}

// TestConcurrentBidirectionalRace hammers writes in both directions
// from multiple goroutines per rank (run under -race in CI): the
// per-target producer lock must serialize same-pair posters while both
// ranks' Polls drain backlogs concurrently.
func TestConcurrentBidirectionalRace(t *testing.T) {
	cl := newCluster(t, 2)
	const perWorker = 200
	bufs := [2][]byte{make([]byte, 4096), make([]byte, 4096)}
	var addrs [2]uint64
	var rkeys [2]uint32
	for r := 0; r < 2; r++ {
		rb, _, err := cl.Backend(r).Register(bufs[r])
		if err != nil {
			t.Fatal(err)
		}
		addrs[r], rkeys[r] = rb.Addr, rb.RKey
	}
	var wg sync.WaitGroup
	post := func(src, dst, worker int) {
		defer wg.Done()
		payload := []byte{byte(src), byte(worker), 0, 0, 0, 0, 0, 0}
		for i := 0; i < perWorker; i++ {
			tok := uint64(src)<<32 | uint64(worker)<<16 | uint64(i)
			off := uint64((worker*perWorker + i) % 512 * 8)
			for {
				err := cl.Backend(src).PostWrite(dst, payload, addrs[dst]+off, rkeys[dst], tok, true)
				if err == nil {
					break
				}
				if err != core.ErrWouldBlock {
					t.Error(err)
					return
				}
				// Full ring: drain our own completions and retry.
				var tmp [8]core.BackendCompletion
				cl.Backend(src).Poll(tmp[:])
			}
		}
	}
	for src := 0; src < 2; src++ {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go post(src, 1-src, w)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Concurrently reap both ranks until all posts complete.
	total := [2]int{}
	var buf [16]core.BackendCompletion
	deadline := time.Now().Add(waitT)
	for total[0]+total[1] < 2*2*perWorker {
		select {
		case <-done:
		default:
		}
		for r := 0; r < 2; r++ {
			n := cl.Backend(r).Poll(buf[:])
			for i := 0; i < n; i++ {
				if !buf[i].OK {
					t.Fatalf("completion failed: %v", buf[i].Err)
				}
			}
			total[r] += n
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d+%d completions", total[0], total[1])
		}
	}
	wg.Wait()
}

func TestExchangeRepeatedGenerations(t *testing.T) {
	cl := newCluster(t, 3)
	for gen := 0; gen < 5; gen++ {
		var wg sync.WaitGroup
		outs := make([][][]byte, 3)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				outs[r], _ = cl.Backend(r).Exchange([]byte{byte(gen), byte(r)})
			}(r)
		}
		wg.Wait()
		for r := 0; r < 3; r++ {
			for s := 0; s < 3; s++ {
				if !bytes.Equal(outs[r][s], []byte{byte(gen), byte(s)}) {
					t.Fatalf("gen %d rank %d slot %d = %x", gen, r, s, outs[r][s])
				}
			}
		}
	}
}

// newShmJob boots an n-rank Photon job over the shm transport.
func newShmJob(t *testing.T, n int, cfg core.Config) []*core.Photon {
	t.Helper()
	cl := newCluster(t, n)
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			phs[r], errs[r] = core.Init(cl.Backend(r), cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, p := range phs {
			p.Close()
		}
	})
	return phs
}

// shareTarget registers buf at rank 1 and returns rank 0's view of
// the descriptor directory (ExchangeBuffers is collective).
func shareTarget(t *testing.T, phs []*core.Photon, buf []byte) []mem.RemoteBuffer {
	t.Helper()
	rb, _, err := phs[1].RegisterBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	var d0 []mem.RemoteBuffer
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, errs[1] = phs[1].ExchangeBuffers(rb) }()
	go func() { defer wg.Done(); d0, errs[0] = phs[0].ExchangeBuffers(mem.RemoteBuffer{}) }()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return d0
}

// TestPhotonOverShm runs the full middleware stack — ledgers, credit
// flow, token table, progress engine — over the shm transport.
func TestPhotonOverShm(t *testing.T) {
	phs := newShmJob(t, 2, core.Config{})
	buf := make([]byte, 4096)
	d0 := shareTarget(t, phs, buf)
	payload := []byte("engine-shm-put")
	if err := phs[0].PutBlocking(1, payload, d0[1], 0, 11, 22); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(11, waitT); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(22, waitT); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(payload)], payload) {
		t.Fatalf("payload = %q", buf[:len(payload)])
	}

	// One-sided get of the same region.
	got := make([]byte, len(payload))
	for {
		err := phs[0].GetWithCompletion(1, got, d0[1], 0, 33, 0)
		if err == nil {
			break
		}
		if err != core.ErrWouldBlock {
			t.Fatal(err)
		}
		phs[0].Progress()
	}
	if _, err := phs[0].WaitLocal(33, waitT); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("get returned %q", got)
	}

	// NIC-style atomic.
	binary.LittleEndian.PutUint64(buf[1024:], 5)
	for {
		err := phs[0].FetchAdd(1, d0[1], 1024, 3, 44)
		if err == nil {
			break
		}
		if err != core.ErrWouldBlock {
			t.Fatal(err)
		}
		phs[0].Progress()
	}
	lc, err := phs[0].WaitLocal(44, waitT)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Value != 5 {
		t.Fatalf("fetch-add prior = %d", lc.Value)
	}
	if binary.LittleEndian.Uint64(buf[1024:]) != 8 {
		t.Fatalf("fetch-add result = %d", binary.LittleEndian.Uint64(buf[1024:]))
	}
}

// TestShmPutAllocGuard extends the zero-allocation guard to the shm
// hot path: post, in-place apply, completion push/drain — the full put
// round trip, and a get and a fetch-add round trip, must stay
// allocation-free in steady state, and so must a put, a get and a
// fetch-add that go through the backlog.
// Waits spin on Progress rather than parking (the parked path's timer
// is not part of the data path).
func TestShmPutAllocGuard(t *testing.T) {
	phs := newShmJob(t, 2, core.Config{})
	buf := make([]byte, 4096)
	d0 := shareTarget(t, phs, buf)
	payload := make([]byte, 8)
	put := func() {
		for {
			err := phs[0].PutWithCompletion(1, payload, d0[1], 0, 1, 2)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				t.Fatal(err)
			}
			phs[0].Progress()
		}
		gotL, gotR := false, false
		for !gotL || !gotR {
			if !gotL {
				if c, ok := phs[0].Probe(core.ProbeLocal); ok {
					if c.Err != nil {
						t.Fatal(c.Err)
					}
					gotL = true
				}
			}
			if !gotR {
				if c, ok := phs[1].Probe(core.ProbeRemote); ok {
					if c.Err != nil {
						t.Fatal(c.Err)
					}
					gotR = true
				}
			}
		}
	}
	// localOp posts a one-sided op completing only at rank 0 and spins
	// until its local completion.
	localOp := func(post func() error) func() {
		return func() {
			for {
				err := post()
				if err == nil {
					break
				}
				if err != core.ErrWouldBlock {
					t.Fatal(err)
				}
				phs[0].Progress()
			}
			for {
				if c, ok := phs[0].Probe(core.ProbeLocal); ok {
					if c.Err != nil {
						t.Fatal(c.Err)
					}
					return
				}
			}
		}
	}
	got := make([]byte, 64)
	get := localOp(func() error { return phs[0].GetWithCompletion(1, got, d0[1], 64, 3, 0) })
	fadd := localOp(func() error { return phs[0].FetchAdd(1, d0[1], 1024, 1, 4) })
	for _, tc := range []struct {
		name string
		op   func()
		max  float64
	}{
		{"put", put, 1},
		{"get", get, 0},
		{"fetch-add", fadd, 0},
		{"backlog", backlogLeg(t), 0},
	} {
		for i := 0; i < 100; i++ {
			tc.op()
		}
		allocs := testing.AllocsPerRun(200, tc.op)
		t.Logf("shm %s round trip: %.2f allocs/op", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("shm %s allocates %.2f times per op, want <= %v", tc.name, allocs, tc.max)
		}
	}
}

// backlogLeg returns one round of the backlog path on a bare 2-rank
// cluster: with rank 1's DMA lock held, rank 0 posts a put, a get and a
// fetch-add, which all join the backlog; the lock is released, rank 1's
// Poll drains them, and rank 0 reaps the three completions.
func backlogLeg(t *testing.T) func() {
	cl := newCluster(t, 2)
	b0, b1 := cl.Backend(0), cl.Backend(1)
	rb, dma, err := b1.Register(make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	payload, got, result := make([]byte, 8), make([]byte, 64), make([]byte, 8)
	var comps [4]core.BackendCompletion
	return func() {
		before := framesOut(b0)
		dma.Lock()
		if err := b0.PostWrite(1, payload, rb.Addr, rb.RKey, 1, true); err != nil {
			t.Fatal(err)
		}
		if err := b0.PostRead(1, got, rb.Addr+64, rb.RKey, 2); err != nil {
			t.Fatal(err)
		}
		if err := b0.PostFetchAdd(1, result, rb.Addr+1024, rb.RKey, 1, 3); err != nil {
			t.Fatal(err)
		}
		dma.Unlock()
		if framesOut(b0)-before != 3 {
			t.Fatal("an op posted behind a held table lock was not backlogged")
		}
		b1.Poll(comps[:0])
		for n := 0; n < 3; {
			k := b0.Poll(comps[:])
			for _, c := range comps[:k] {
				if !c.OK {
					t.Fatal(c.Err)
				}
			}
			n += k
		}
	}
}

// TestTracedShmPutAllocGuard is the fully-observed variant of the put
// guard: an enabled trace ring with every op sampled, so each round
// trip records post, wire-context link, complete, and reap events and
// carries the trace context through the ledger entry shm writes — and must
// still never touch the heap.
func TestTracedShmPutAllocGuard(t *testing.T) {
	ring := trace.NewRing(4096)
	ring.Enable(true)
	phs := newShmJob(t, 2, core.Config{Trace: ring})
	buf := make([]byte, 4096)
	d0 := shareTarget(t, phs, buf)
	payload := make([]byte, 8)
	put := func() {
		for {
			err := phs[0].PutWithCompletion(1, payload, d0[1], 0, 1, 2)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				t.Fatal(err)
			}
			phs[0].Progress()
		}
		gotL, gotR := false, false
		for !gotL || !gotR {
			if !gotL {
				if c, ok := phs[0].Probe(core.ProbeLocal); ok {
					if c.Err != nil {
						t.Fatal(c.Err)
					}
					gotL = true
				}
			}
			if !gotR {
				if c, ok := phs[1].Probe(core.ProbeRemote); ok {
					if c.Err != nil {
						t.Fatal(c.Err)
					}
					gotR = true
				}
			}
		}
	}
	for i := 0; i < 100; i++ {
		put()
	}
	allocs := testing.AllocsPerRun(200, put)
	t.Logf("traced shm put round trip: %.2f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("traced shm put allocates %.2f times per op, want 0", allocs)
	}
	posts := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == trace.KindPost {
			posts++
		}
	}
	if posts == 0 {
		t.Fatal("trace ring recorded no post events — tracing was not active")
	}
}

// framesOut reads b's shm_frames_out: how many requests went through
// a backlog rather than being applied in place.
func framesOut(b *shm.Backend) int64 {
	var n int64
	b.TransportStats(func(name string, v int64) {
		if name == "shm_frames_out" {
			n = v
		}
	})
	return n
}

// TestInPlaceNeverOvertakesRing pins the ordering rule. Each round
// holds rank 1's DMA lock, so a run of unsignaled writes and a signaled
// one must queue in the backlog; then the lock is released and every
// slot is overwritten at once, behind another signaled write. An
// in-place write may only run on a drained backlog: the signaled
// completions must arrive in posting order and the slots must end with
// the second values.
// The test opens with the in-place path's own case: an idle target.
func TestInPlaceNeverOvertakesRing(t *testing.T) {
	cl := newCluster(t, 2)
	b0 := cl.Backend(0)
	target := make([]byte, 64)
	rb, dma, err := cl.Backend(1).Register(target)
	if err != nil {
		t.Fatal(err)
	}
	const slots, rounds = 8, 200
	write := func(slot int, v byte, token uint64, signaled bool) {
		t.Helper()
		if err := b0.PostWrite(1, []byte{v}, rb.Addr+uint64(slot), rb.RKey, token, signaled); err != nil {
			t.Fatal(err)
		}
	}

	// An idle target is written in place: no frame goes out, and the
	// completion is queued before PostWrite returns.
	write(0, 0xFF, 1<<40, true)
	var c [1]core.BackendCompletion
	if framesOut(b0) != 0 || b0.Poll(c[:]) != 1 || c[0].Token != 1<<40 || target[0] != 0xFF {
		t.Fatalf("write to an idle target was not applied in place (frames out %d)", framesOut(b0))
	}

	for round := 0; round < rounds; round++ {
		first, second := byte(2*round), byte(2*round+1)
		before := framesOut(b0)
		dma.Lock()
		for i := 0; i < slots; i++ {
			write(i, first, 0, false)
		}
		write(slots, first, uint64(2*round+1), true)
		if queued := framesOut(b0) - before; queued != slots+1 {
			t.Fatalf("round %d: %d of %d writes were backlogged while the target's table was locked", round, queued, slots+1)
		}
		dma.Unlock()
		for i := 0; i < slots; i++ {
			write(i, second, 0, false)
		}
		write(slots, second, uint64(2*round+2), true)

		comps := waitComps(t, b0, 2)
		if comps[0].Token != uint64(2*round+1) || comps[1].Token != uint64(2*round+2) {
			t.Fatalf("round %d: completions %d, %d out of posting order", round, comps[0].Token, comps[1].Token)
		}
		dma.Lock()
		for i := 0; i <= slots; i++ {
			if target[i] != second {
				dma.Unlock()
				t.Fatalf("round %d: slot %d holds %d, want %d: a queued write landed after a later one", round, i, target[i], second)
			}
		}
		dma.Unlock()
	}
}

// TestCrossedDMALocksDoNotDeadlock has each rank hold its own
// registration read lock while posting a write and a fetch-add to the
// other. A poster never waits for a peer's table lock, so every post
// returns at once and queues, and everything completes once the locks
// are released.
func TestCrossedDMALocksDoNotDeadlock(t *testing.T) {
	cl := newCluster(t, 2)
	var rbs [2]mem.RemoteBuffer
	var dmas [2]sync.Locker
	for r := 0; r < 2; r++ {
		var err error
		rbs[r], dmas[r], err = cl.Backend(r).Register(make([]byte, 64))
		if err != nil {
			t.Fatal(err)
		}
	}
	results := [2][]byte{make([]byte, 8), make([]byte, 8)}
	posted := make(chan error, 2)
	for r := 0; r < 2; r++ {
		dmas[r].Lock()
		go func(r int) {
			peer := 1 - r
			err := cl.Backend(r).PostWrite(peer, []byte{byte(r + 1)}, rbs[peer].Addr, rbs[peer].RKey, 1, true)
			if err == nil {
				err = cl.Backend(r).PostFetchAdd(peer, results[r], rbs[peer].Addr+8, rbs[peer].RKey, 5, 2)
			}
			posted <- err
		}(r)
	}
	for r := 0; r < 2; r++ {
		select {
		case err := <-posted:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(waitT):
			t.Fatal("a post blocked on the peer's table lock")
		}
	}
	for r := 0; r < 2; r++ {
		dmas[r].Unlock()
	}
	for r := 0; r < 2; r++ {
		waitComps(t, cl.Backend(r), 2)
		if binary.LittleEndian.Uint64(results[r]) != 0 {
			t.Errorf("rank %d fetch-add prior = %d, want 0", r, binary.LittleEndian.Uint64(results[r]))
		}
	}
}

// TestPostToClosedPeerFails pins the closed-peer contract: a post
// toward a closed rank fails at once with core.ErrPeerDown naming the
// rank, and Close fails every request still queued toward the closing
// rank instead of leaving it without a completion.
func TestPostToClosedPeerFails(t *testing.T) {
	cl := newCluster(t, 3)
	b0 := cl.Backend(0)
	target := make([]byte, 64)
	rb, dma, err := cl.Backend(1).Register(target)
	if err != nil {
		t.Fatal(err)
	}

	// Queue two signaled writes and a read behind rank 1's held DMA
	// lock, then close rank 1 under them.
	dma.Lock()
	for tok := uint64(1); tok <= 2; tok++ {
		if err := b0.PostWrite(1, []byte{1}, rb.Addr, rb.RKey, tok, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := b0.PostRead(1, make([]byte, 8), rb.Addr, rb.RKey, 3); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() { cl.Backend(1).Close(); close(closed) }()
	want := 3 // tokens awaiting a completion
	deadline := time.Now().Add(waitT)
	for tok := uint64(100); ; tok++ {
		err := b0.PostWrite(1, []byte{1}, rb.Addr, rb.RKey, tok, true)
		if errors.Is(err, core.ErrPeerDown) {
			if !strings.Contains(err.Error(), "rank 1") {
				t.Errorf("post to closed rank: %q does not name the rank", err)
			}
			break
		}
		switch {
		case err == nil: // queued before the close landed
			want++
		case err != core.ErrWouldBlock:
			t.Fatalf("post to closing rank: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("post to a closed rank never failed")
		}
	}
	dma.Unlock()
	<-closed

	// Every queued request completes once; all but token 1, at the
	// front, must fail with ErrPeerDown.
	var comps [8]core.BackendCompletion
	seen := map[uint64]bool{}
	for deadline := time.Now().Add(waitT); len(seen) < want; {
		n := b0.Poll(comps[:])
		for _, c := range comps[:n] {
			if seen[c.Token] {
				t.Fatalf("token %d completed twice", c.Token)
			}
			seen[c.Token] = true
			if c.Token != 1 && (c.OK || !errors.Is(c.Err, core.ErrPeerDown)) {
				t.Errorf("queued token %d completed ok=%v err=%v, want ErrPeerDown", c.Token, c.OK, c.Err)
			}
		}
		if n == 0 && time.Now().After(deadline) {
			t.Fatalf("queued requests never completed: %d of %d", len(seen), want)
		}
	}

	// A fresh post toward the closed rank fails fast; the other peer is
	// unaffected.
	if err := b0.PostFetchAdd(1, make([]byte, 8), rb.Addr, rb.RKey, 1, 10); !errors.Is(err, core.ErrPeerDown) {
		t.Fatalf("fetch-add to closed rank: %v, want ErrPeerDown", err)
	}
	other := make([]byte, 8)
	rb2, _, err := cl.Backend(2).Register(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := b0.PostWrite(2, []byte{7}, rb2.Addr, rb2.RKey, 11, true); err != nil {
		t.Fatal(err)
	}
	if c := waitComps(t, b0, 1); c[0].Token != 11 || other[0] != 7 {
		t.Fatalf("write to a live peer: token %d, memory %d", c[0].Token, other[0])
	}
}

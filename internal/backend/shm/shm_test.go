package shm_test

import (
	"bytes"
	"encoding/binary"
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
// per-target producer lock must serialize same-ring posters while the
// two agents drain concurrently.
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
// hot path: post, ring enqueue, agent dequeue/apply, completion
// push/drain — the full put round trip must stay allocation-free in
// steady state. Waits spin on Progress rather than parking (the
// parked path's timer is not part of the data path).
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
	for i := 0; i < 100; i++ {
		put()
	}
	allocs := testing.AllocsPerRun(200, put)
	t.Logf("shm put round trip: %.2f allocs/op", allocs)
	if allocs > 1 {
		t.Fatalf("shm put allocates %.2f times per op, want <= 1", allocs)
	}
}

// TestTracedShmPutAllocGuard is the fully-observed variant of the put
// guard: an enabled trace ring with every op sampled, so each round
// trip records post, wire-context link, complete, and reap events and
// carries the trace context through the shm ring frame — and must
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

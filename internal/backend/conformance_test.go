// Package backend_test holds the transport conformance suite: one
// table-driven check of the core.Backend contract, run over every
// shipped transport and over the chaos wrapper, so the engine's single
// post/wake/sweep path can rely on the same behaviour everywhere.
package backend_test

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/shm"
	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

const stall = 10 * time.Second

// transports boot a fresh 2-rank job each, with queues small enough
// that a stalled target pushes back within a few MiB.
var transports = []struct {
	name string
	boot func(t *testing.T) []core.Backend
}{
	{"vsim", bootVsim},
	{"tcp", bootTCP},
	{"shm", bootShm},
	{"chaos(vsim)", func(t *testing.T) []core.Backend {
		bes := bootVsim(t)
		for r, be := range bes {
			bes[r] = chaos.Wrap(be, chaos.Plan{Seed: int64(r)})
		}
		return bes
	}},
}

func bootVsim(t *testing.T) []core.Backend {
	cl, err := vsim.NewCluster(2, fabric.Model{QueueDepth: 8}, nicsim.Config{SQDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return []core.Backend{cl.Backend(0), cl.Backend(1)}
}

func bootShm(t *testing.T) []core.Backend {
	cl, err := shm.NewCluster(2, shm.Config{RingBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return []core.Backend{cl.Backend(0), cl.Backend(1)}
}

func bootTCP(t *testing.T) []core.Backend {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	bes := make([]core.Backend, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range bes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			be, err := tcp.New(tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r], SendDepth: 8})
			if err != nil {
				errs[r] = err
				return
			}
			bes[r] = be
			t.Cleanup(func() { be.Close() }) //nolint:errcheck // teardown
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return bes
}

// await polls cond until it holds or the stall budget runs out.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(stall); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// reap polls be until one completion arrives and returns it.
func reap(t *testing.T, be core.Backend) core.BackendCompletion {
	t.Helper()
	var c [1]core.BackendCompletion
	await(t, "a completion", func() bool { return be.Poll(c[:]) == 1 })
	return c[0]
}

func TestBackendConformance(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			t.Run("batch", func(t *testing.T) { testBatch(t, tr.boot(t)) })
			t.Run("wake", func(t *testing.T) { testWakeAndActivity(t, tr.boot(t)) })
			t.Run("wide-token", func(t *testing.T) { testWideTokens(t, tr.boot(t)) })
			t.Run("region-lock", func(t *testing.T) { writeBesideHeldRegion(t, tr.boot(t)) })
			t.Run("region-activity", func(t *testing.T) {
				actA, a0, actB, b0 := writeBesideHeldRegion(t, tr.boot(t))
				if actA() != a0 {
					t.Errorf("a write into region B moved region A's activity counter by %d", actA()-a0)
				}
				if actB() == b0 {
					t.Error("a write into region B left B's activity counter where it was")
				}
			})
			for _, rj := range rejections {
				t.Run("reject/"+rj.name, func(t *testing.T) { testRejected(t, tr.boot(t), rj.post) })
			}
		})
	}
}

// testBatch floods signaled doorbell batches at a target whose agent is
// stalled on the DMA lock until the transport pushes back, then lets it
// drain. Whatever count each PostWriteBatch call accepted must be a
// prefix of its requests: reposting only the tail, every token has to
// complete exactly once and in posting order, and the target has to end
// up holding the last payload.
func testBatch(t *testing.T, bes []core.Backend) {
	const (
		size  = 64 << 10
		total = 128 // writes; 8 MiB against a stalled target
		burst = 4
	)
	target := make([]byte, size)
	rb, dma, err := bes[1].Register(target)
	if err != nil {
		t.Fatal(err)
	}
	// One payload per batch slot, stamped with its token: the payload is
	// snapshotted at post, so the slots are reusable across batches, and
	// in-order execution leaves the target holding the last token.
	var payloads [burst][]byte
	for i := range payloads {
		payloads[i] = make([]byte, size)
	}

	var comps [16]core.BackendCompletion
	done := uint64(0) // tokens completed so far; they must arrive as 1, 2, 3, ...
	drain := func() {
		for _, c := range comps[:bes[0].Poll(comps[:])] {
			if !c.OK || c.Token != done+1 {
				t.Fatalf("completion %d ok=%v (%v) after token %d: posting order broken", c.Token, c.OK, c.Err, done)
			}
			done++
		}
	}

	dma.Lock() // stall rank 1's agent mid-apply
	stalled, short := true, 0
	deadline := time.Now().Add(stall)
	for next := uint64(1); next <= total; {
		reqs := make([]core.WriteReq, 0, burst)
		for tok := next; tok <= total && len(reqs) < burst; tok++ {
			local := payloads[len(reqs)]
			binary.LittleEndian.PutUint64(local, tok)
			reqs = append(reqs, core.WriteReq{Local: local, RemoteAddr: rb.Addr, RKey: rb.RKey, Token: tok, Signaled: true})
		}
		n, err := bes[0].PostWriteBatch(1, reqs)
		if n < 0 || n > len(reqs) {
			t.Fatalf("PostWriteBatch accepted %d of %d", n, len(reqs))
		}
		if err != nil && !errors.Is(err, core.ErrWouldBlock) {
			t.Fatalf("PostWriteBatch: %v", err)
		}
		if n == len(reqs) && err != nil {
			t.Fatalf("PostWriteBatch accepted everything yet returned %v", err)
		}
		next += uint64(n)
		if n < len(reqs) {
			short++
			if stalled {
				dma.Unlock()
				stalled = false
			}
			drain()
			if time.Now().After(deadline) {
				t.Fatalf("flood stuck at token %d", next)
			}
		}
	}
	if stalled {
		dma.Unlock()
	}
	if short == 0 {
		t.Error("8 MiB flood against a stalled target never saw a short batch; no backpressure")
	}
	await(t, "every batched write to complete", func() bool { drain(); return done == total })
	dma.Lock()
	last := binary.LittleEndian.Uint64(target)
	dma.Unlock()
	if last != total {
		t.Fatalf("target holds write %d, want the last one posted (%d)", last, total)
	}
}

// testWideTokens posts one of each signaled op with a token whose high
// 32 bits are set — the slot generation core's token table issues
// there — and checks that Poll hands every token back whole: a backend
// that narrows a token to 32 bits completes a different op.
func testWideTokens(t *testing.T, bes []core.Backend) {
	target := make([]byte, 64)
	rb, _, err := bes[1].Register(target)
	if err != nil {
		t.Fatal(err)
	}
	const gen = uint64(0xa5a5_0001) << 32
	posts := []func(tok uint64) error{
		func(tok uint64) error { return bes[0].PostWrite(1, make([]byte, 8), rb.Addr, rb.RKey, tok, true) },
		func(tok uint64) error { return bes[0].PostRead(1, make([]byte, 8), rb.Addr+8, rb.RKey, tok) },
		func(tok uint64) error { return bes[0].PostFetchAdd(1, make([]byte, 8), rb.Addr+16, rb.RKey, 1, tok) },
		func(tok uint64) error {
			return bes[0].PostCompSwap(1, make([]byte, 8), rb.Addr+24, rb.RKey, 0, 1, tok)
		},
		func(tok uint64) error {
			_, err := bes[0].PostWriteBatch(1, []core.WriteReq{
				{Local: make([]byte, 8), RemoteAddr: rb.Addr + 32, RKey: rb.RKey, Token: tok, Signaled: true},
				{Local: make([]byte, 8), RemoteAddr: rb.Addr + 40, RKey: rb.RKey, Token: tok + 1, Signaled: true},
			})
			return err
		},
	}
	want := map[uint64]bool{}
	for i, post := range posts {
		tok := gen | uint64(2*i+1)
		if err := post(tok); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		want[tok] = true
	}
	want[gen|uint64(2*len(posts))] = true // the batch's second write
	var comps [8]core.BackendCompletion
	await(t, "every wide-token completion", func() bool {
		bes[1].Poll(comps[:])
		for _, c := range comps[:bes[0].Poll(comps[:])] {
			if !want[c.Token] || !c.OK {
				t.Fatalf("completion token %#x ok=%v (%v): not a token posted, or posted twice", c.Token, c.OK, c.Err)
			}
			delete(want, c.Token)
		}
		return len(want) == 0
	})
}

// testWakeAndActivity checks the event plumbing the engine parks on:
// the sink fires when an unsignaled remote write lands and when a
// completion is queued, and the activity counter moves on remote
// writes and on ApplyLocal.
func testWakeAndActivity(t *testing.T, bes []core.Backend) {
	target := make([]byte, 64)
	rb, dma, err := bes[1].Register(target)
	if err != nil {
		t.Fatal(err)
	}
	var kicks [2]atomic.Int64
	for r, be := range bes {
		be.SetWakeSink(func() { kicks[r].Add(1) })
	}
	act, ok := bes[1].WriteActivity(rb)
	if !ok {
		t.Fatal("no write-activity counter for a live registration")
	}

	a0, k0 := act(), kicks[1].Load()
	if err := bes[0].PostWrite(1, []byte{1, 2, 3, 4, 5, 6, 7, 8}, rb.Addr, rb.RKey, 0, false); err != nil {
		t.Fatal(err)
	}
	await(t, "the target's sink to fire for an unsignaled write", func() bool { return kicks[1].Load() > k0 })
	await(t, "the activity counter to move on a remote write", func() bool { return act() > a0 })
	dma.Lock()
	landed := target[7] == 8
	dma.Unlock()
	if !landed {
		t.Fatal("sink fired before the write was visible")
	}

	k0 = kicks[0].Load()
	if err := bes[0].PostWrite(1, []byte{9}, rb.Addr, rb.RKey, 77, true); err != nil {
		t.Fatal(err)
	}
	await(t, "the initiator's sink to fire for a completion", func() bool { return kicks[0].Load() > k0 })
	if c := reap(t, bes[0]); c.Token != 77 || !c.OK {
		t.Fatalf("completion %+v", c)
	}

	a0 = act()
	if err := bes[1].ApplyLocal(rb.Addr+8, rb.RKey, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if act() <= a0 {
		t.Fatal("ApplyLocal did not advance the activity counter")
	}
	for _, bad := range []struct {
		what string
		addr uint64
		rkey uint32
		n    int
	}{
		{"unknown rkey", rb.Addr, rb.RKey + 1000, 1},
		{"out of bounds", rb.Addr + uint64(rb.Len) - 4, rb.RKey, 8},
		{"wrapping address", ^uint64(0) - 3, rb.RKey, 8},
	} {
		if bes[1].ApplyLocal(bad.addr, bad.rkey, make([]byte, bad.n)) == nil {
			t.Errorf("ApplyLocal accepted %s", bad.what)
		}
	}
}

// writeBesideHeldRegion registers regions A and B at rank 1 and, while
// holding A's DMA lock, writes into B from rank 0 with a signaled write:
// every registration has its own lock, so the write lands and completes
// while A stays locked. It returns A's and B's activity loaders with
// their readings before the write.
func writeBesideHeldRegion(t *testing.T, bes []core.Backend) (actA func() uint64, a0 uint64, actB func() uint64, b0 uint64) {
	rbA, dmaA, err := bes[1].Register(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	target := make([]byte, 64)
	rbB, dmaB, err := bes[1].Register(target)
	if err != nil {
		t.Fatal(err)
	}
	actA, okA := bes[1].WriteActivity(rbA)
	actB, okB := bes[1].WriteActivity(rbB)
	if !okA || !okB {
		t.Fatal("no write-activity counter for a live registration")
	}
	a0, b0 = actA(), actB()

	dmaA.Lock()
	defer dmaA.Unlock()
	if err := bes[0].PostWrite(1, []byte{1, 2, 3, 4, 5, 6, 7, 8}, rbB.Addr+8, rbB.RKey, 7, true); err != nil {
		t.Fatal(err)
	}
	var c [1]core.BackendCompletion
	await(t, "a write into region B while region A's DMA lock is held", func() bool {
		bes[1].Poll(c[:0])
		return bes[0].Poll(c[:]) == 1
	})
	if c[0].Token != 7 || !c[0].OK {
		t.Fatalf("completion %+v", c[0])
	}
	dmaB.Lock()
	landed := target[15] == 8
	dmaB.Unlock()
	if !landed {
		t.Fatal("write into region B completed before it was visible")
	}
	return actA, a0, actB, b0
}

const rejectTok = 99

// rejections are remote accesses every transport must refuse, posted
// from rank 0 at rank 1's 64-byte registration.
var rejections = []struct {
	name string
	post func(be core.Backend, rb mem.RemoteBuffer) error
}{
	{"unknown-rkey", func(be core.Backend, rb mem.RemoteBuffer) error {
		return be.PostWrite(1, make([]byte, 8), rb.Addr, rb.RKey+1000, rejectTok, true)
	}},
	{"out-of-bounds", func(be core.Backend, rb mem.RemoteBuffer) error {
		return be.PostWrite(1, make([]byte, 8), rb.Addr+uint64(rb.Len)-4, rb.RKey, rejectTok, true)
	}},
	{"wrapping-address", func(be core.Backend, rb mem.RemoteBuffer) error {
		return be.PostWrite(1, make([]byte, 8), ^uint64(0)-3, rb.RKey, rejectTok, true)
	}},
	{"out-of-bounds-read", func(be core.Backend, rb mem.RemoteBuffer) error {
		return be.PostRead(1, make([]byte, 128), rb.Addr, rb.RKey, rejectTok)
	}},
	{"misaligned-fetch-add", func(be core.Backend, rb mem.RemoteBuffer) error {
		return be.PostFetchAdd(1, make([]byte, 8), rb.Addr+4, rb.RKey, 1, rejectTok)
	}},
	{"misaligned-comp-swap", func(be core.Backend, rb mem.RemoteBuffer) error {
		return be.PostCompSwap(1, make([]byte, 8), rb.Addr+4, rb.RKey, 0, 1, rejectTok)
	}},
}

// testRejected posts one bad access: it must fail — at post, or as an
// error completion — and leave the target's memory untouched.
func testRejected(t *testing.T, bes []core.Backend, post func(core.Backend, mem.RemoteBuffer) error) {
	target := make([]byte, 64)
	rb, dma, err := bes[1].Register(target)
	if err != nil {
		t.Fatal(err)
	}
	switch err := post(bes[0], rb); {
	case errors.Is(err, core.ErrWouldBlock):
		t.Fatalf("idle transport pushed back: %v", err)
	case err == nil:
		if c := reap(t, bes[0]); c.Token != rejectTok || c.OK {
			t.Fatalf("bad access completed as %+v", c)
		}
	}
	dma.Lock()
	defer dma.Unlock()
	for i, b := range target {
		if b != 0 {
			t.Fatalf("rejected access modified target[%d] = %#x", i, b)
		}
	}
}

package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

const waitT = 5 * time.Second

// newJob boots an n-rank Photon job over a fresh simulated cluster.
func newJob(t *testing.T, n int, cfg core.Config) []*core.Photon {
	t.Helper()
	_, phs := faultJob(t, n, cfg)
	return phs
}

// initRanks runs the collective core.Init over one backend per rank.
func initRanks(t *testing.T, cfg core.Config, bes ...core.Backend) []*core.Photon {
	t.Helper()
	phs := make([]*core.Photon, len(bes))
	errs := make([]error, len(bes))
	var wg sync.WaitGroup
	for r, be := range bes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phs[r], errs[r] = core.Init(be, cfg)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", r, err)
		}
	}
	return phs
}

// registerAndShare registers buf at owner and returns the descriptors
// visible from every rank (collective).
func registerAndShare(t *testing.T, phs []*core.Photon, owner int, buf []byte) ([]mem.RemoteBuffer, sync.Locker) {
	t.Helper()
	var lk sync.Locker
	var rb mem.RemoteBuffer
	if buf != nil {
		var err error
		rb, lk, err = phs[owner].RegisterBuffer(buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	descs := make([][]mem.RemoteBuffer, len(phs))
	var wg sync.WaitGroup
	for r := range phs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			contrib := mem.RemoteBuffer{}
			if r == owner {
				contrib = rb
			}
			descs[r], _ = phs[r].ExchangeBuffers(contrib)
		}(r)
	}
	wg.Wait()
	return descs[0], lk
}

func TestInitBasics(t *testing.T) {
	phs := newJob(t, 3, core.Config{})
	for r, p := range phs {
		if p.Rank() != r || p.Size() != 3 {
			t.Fatalf("rank/size = %d/%d", p.Rank(), p.Size())
		}
	}
	cfg := phs[0].Config()
	if cfg.LedgerSlots != 64 || cfg.EagerEntrySize != 1024 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if phs[0].EagerThreshold() != 1024-8-9 {
		t.Fatalf("EagerThreshold = %d", phs[0].EagerThreshold())
	}
}

// TestConfigRejectsNegativeSizes: a negative rendezvous slab or credit
// batch is an error from Init, not a panic sizing the slab, an arena
// error, or a value Config reports back.
func TestConfigRejectsNegativeSizes(t *testing.T) {
	cl, err := vsim.NewCluster(1, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, cfg := range []core.Config{
		{RdzvSlabSize: -8 << 20},
		{RdzvSlabSize: -1},
		{CreditBatch: -3},
	} {
		ph, err := core.Init(cl.Backend(0), cfg)
		if err == nil {
			ph.Close()
			t.Errorf("Init accepted %+v", cfg)
		} else if !strings.Contains(err.Error(), "non-negative") {
			t.Errorf("Init(%+v): %v, want a non-negative-size error", cfg, err)
		}
	}
}

func TestPutWithCompletionDirect(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	target := make([]byte, 256)
	descs, lk := registerAndShare(t, phs, 1, target)

	payload := []byte("photon put-with-completion")
	err := phs[0].PutWithCompletion(1, payload, descs[1], 32, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := phs[0].WaitLocal(100, waitT)
	if err != nil || lc.Err != nil {
		t.Fatalf("local completion: %v %v", err, lc.Err)
	}
	if lc.Rank != 1 {
		t.Fatalf("local completion rank = %d", lc.Rank)
	}
	rc, err := phs[1].WaitRemote(200, waitT)
	if err != nil || rc.Err != nil {
		t.Fatalf("remote completion: %v %v", err, rc.Err)
	}
	if rc.Rank != 0 {
		t.Fatalf("remote completion rank = %d", rc.Rank)
	}
	lk.Lock()
	got := append([]byte(nil), target[32:32+len(payload)]...)
	lk.Unlock()
	if !bytes.Equal(got, payload) {
		t.Fatalf("target = %q", got)
	}
}

func TestPutLocalOnly(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	target := make([]byte, 64)
	descs, lk := registerAndShare(t, phs, 1, target)
	if err := phs[0].PutWithCompletion(1, []byte{7, 8, 9}, descs[1], 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(5, waitT); err != nil {
		t.Fatal(err)
	}
	lk.Lock()
	ok := target[0] == 7 && target[2] == 9
	lk.Unlock()
	if !ok {
		t.Fatal("data not written")
	}
	// No remote completion should appear.
	phs[1].Progress()
	if phs[1].Metrics().Gauges["remote_cq_highwater"] != 0 {
		t.Fatal("unexpected remote completion for remoteRID=0")
	}
}

func TestPutRemoteOnly(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	target := make([]byte, 64)
	descs, _ := registerAndShare(t, phs, 1, target)
	if err := phs[0].PutWithCompletion(1, []byte{1}, descs[1], 0, 0, 77); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(77, waitT); err != nil {
		t.Fatal(err)
	}
	phs[0].Progress()
	if phs[0].Metrics().Gauges["local_cq_highwater"] != 0 {
		t.Fatal("unexpected local completion for localRID=0")
	}
}

func TestPutBoundsRejected(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	target := make([]byte, 16)
	descs, _ := registerAndShare(t, phs, 1, target)
	if err := phs[0].PutWithCompletion(1, make([]byte, 32), descs[1], 0, 1, 0); err == nil {
		t.Fatal("out-of-bounds put accepted")
	}
	if err := phs[0].PutWithCompletion(5, []byte{1}, descs[1], 0, 1, 0); !errors.Is(err, core.ErrBadRank) {
		t.Fatalf("bad rank: %v", err)
	}
}

func TestGetWithCompletion(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	src := []byte("remote data for one-sided get..")
	descs, _ := registerAndShare(t, phs, 1, src)

	dst := make([]byte, 11)
	if err := phs[0].GetWithCompletion(1, dst, descs[1], 7, 300, 400); err != nil {
		t.Fatal(err)
	}
	lc, err := phs[0].WaitLocal(300, waitT)
	if err != nil || lc.Err != nil {
		t.Fatalf("get local completion: %v %v", err, lc.Err)
	}
	if !bytes.Equal(dst, src[7:18]) {
		t.Fatalf("get returned %q, want %q", dst, src[7:18])
	}
	// The target learns of the get through the remote completion.
	rc, err := phs[1].WaitRemote(400, waitT)
	if err != nil || rc.Rank != 0 {
		t.Fatalf("get remote notify: %v %+v", err, rc)
	}
}

func TestGetValidation(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	src := make([]byte, 8)
	descs, _ := registerAndShare(t, phs, 1, src)
	if err := phs[0].GetWithCompletion(1, nil, descs[1], 0, 1, 0); err == nil {
		t.Fatal("zero-length get accepted")
	}
	if err := phs[0].GetWithCompletion(1, make([]byte, 16), descs[1], 0, 1, 0); err == nil {
		t.Fatal("out-of-bounds get accepted")
	}
}

func TestSendPackedSmall(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	msg := []byte("eager packed message")
	if err := phs[0].Send(1, msg, 11, 22); err != nil {
		t.Fatal(err)
	}
	rc, err := phs[1].WaitRemote(22, waitT)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rc.Data, msg) {
		t.Fatalf("delivered %q", rc.Data)
	}
	if _, err := phs[0].WaitLocal(11, waitT); err != nil {
		t.Fatal(err)
	}
	st := phs[0].Stats()
	if st.PutsPacked != 1 || st.RdzvSends != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendEmptyMessage(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	if err := phs[0].Send(1, nil, 0, 33); err != nil {
		t.Fatal(err)
	}
	rc, err := phs[1].WaitRemote(33, waitT)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Data) != 0 {
		t.Fatalf("empty send delivered %d bytes", len(rc.Data))
	}
}

func TestSendRendezvousLarge(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	big := make([]byte, 64*1024)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := phs[0].Send(1, big, 44, 55); err != nil {
		t.Fatal(err)
	}
	// Sender's FIN only arrives if the receiver progresses; drive both.
	done := make(chan core.Completion, 1)
	go func() {
		rc, err := phs[1].WaitRemote(55, waitT)
		if err != nil {
			t.Error(err)
		}
		done <- rc
	}()
	if _, err := phs[0].WaitLocal(44, waitT); err != nil {
		t.Fatal(err)
	}
	rc := <-done
	if !bytes.Equal(rc.Data, big) {
		t.Fatal("rendezvous payload corrupted")
	}
	st0, st1 := phs[0].Stats(), phs[1].Stats()
	if st0.RdzvSends != 1 {
		t.Fatalf("sender stats = %+v", st0)
	}
	if st1.RdzvRecvs != 1 {
		t.Fatalf("receiver stats = %+v", st1)
	}
}

func TestForceRendezvousAblation(t *testing.T) {
	phs := newJob(t, 2, core.Config{ForceRendezvous: true})
	if phs[0].EagerThreshold() != 0 {
		t.Fatalf("forced-rdzv threshold = %d", phs[0].EagerThreshold())
	}
	msg := []byte("small but forced through rendezvous")
	if err := phs[0].Send(1, msg, 1, 2); err != nil {
		t.Fatal(err)
	}
	go phs[0].WaitLocal(1, waitT)
	rc, err := phs[1].WaitRemote(2, waitT)
	if err != nil || !bytes.Equal(rc.Data, msg) {
		t.Fatalf("forced rdzv: %v %q", err, rc.Data)
	}
	if st := phs[0].Stats(); st.RdzvSends != 1 || st.PutsPacked != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCreditExhaustionWouldBlock(t *testing.T) {
	phs := newJob(t, 2, core.Config{LedgerSlots: 4})
	// Receiver never progresses: after 4 packed sends the eager
	// ledger is out of credits.
	var err error
	sent := 0
	for i := 0; i < 10; i++ {
		err = phs[0].Send(1, []byte{byte(i)}, 0, uint64(i+1))
		if err != nil {
			break
		}
		sent++
	}
	if !errors.Is(err, core.ErrWouldBlock) {
		t.Fatalf("err = %v after %d sends, want ErrWouldBlock", err, sent)
	}
	if sent != 4 {
		t.Fatalf("sent %d before blocking, want 4", sent)
	}
	// Once the receiver consumes, credits flow back and sending resumes.
	for i := 0; i < sent; i++ {
		if _, err := phs[1].WaitRemote(uint64(i+1), waitT); err != nil {
			t.Fatal(err)
		}
	}
	phs[1].Flush() // push credit returns out eagerly
	deadline := time.Now().Add(waitT)
	for {
		if err = phs[0].Send(1, []byte{99}, 0, 99); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("credits never returned: %v", err)
		}
		phs[0].Progress()
	}
	if _, err := phs[1].WaitRemote(99, waitT); err != nil {
		t.Fatal(err)
	}
}

func TestSendBlockingUnderPressure(t *testing.T) {
	phs := newJob(t, 2, core.Config{LedgerSlots: 4, CreditBatch: 1})
	const n = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := phs[0].SendBlocking(1, []byte{byte(i)}, 0, uint64(i+1)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		rc, err := phs[1].WaitRemote(uint64(i+1), waitT)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if rc.Data[0] != byte(i) {
			t.Fatalf("message %d carried %d", i, rc.Data[0])
		}
	}
	wg.Wait()
}

// fillCredits sends packed messages from rank 0 to rank 1, which never
// progresses, until the eager ledger is out of credits.
func fillCredits(t *testing.T, phs []*core.Photon) {
	t.Helper()
	for i := 0; ; i++ {
		err := phs[0].Send(1, []byte{byte(i)}, 0, uint64(i+1))
		if errors.Is(err, core.ErrWouldBlock) {
			return
		}
		if err != nil || i > 1<<10 {
			t.Fatalf("send %d: %v, want ErrWouldBlock once credits run out", i, err)
		}
	}
}

// retryAsync runs a blocking post on its own goroutine and returns its
// error, or fails the test when it has not returned after limit.
func retryAsync(t *testing.T, limit time.Duration, post func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- post() }()
	select {
	case err := <-done:
		return err
	case <-time.After(limit):
		t.Fatalf("blocking post still blocked after %v", limit)
		return nil
	}
}

// TestSendBlockingTimesOutWithoutCredits: with op deadlines armed, a
// blocking send toward a peer that never returns credits gives up with
// ErrTimeout after 2×OpTimeout, as a wait for that peer would.
func TestSendBlockingTimesOutWithoutCredits(t *testing.T) {
	const opTimeout = 100 * time.Millisecond
	phs := newJob(t, 2, core.Config{LedgerSlots: 4, OpTimeout: opTimeout})
	fillCredits(t, phs)
	start := time.Now()
	err := retryAsync(t, 20*opTimeout, func() error { return phs[0].SendBlocking(1, []byte{1}, 0, 99) })
	if el := time.Since(start); !errors.Is(err, core.ErrTimeout) || el < 2*opTimeout {
		t.Fatalf("SendBlocking returned %v after %v, want ErrTimeout after at least %v", err, el, 2*opTimeout)
	}
}

// TestRetryAbortedByNotice: a post retried under a spec ends with
// ErrWaitAborted when one of the spec's abort RIDs arrives, and the
// spec carries the consumed notice.
func TestRetryAbortedByNotice(t *testing.T) {
	const notice = 0x77
	phs := newJob(t, 3, core.Config{LedgerSlots: 4})
	fillCredits(t, phs)
	if err := phs[2].Send(0, []byte("revoke"), 0, notice); err != nil {
		t.Fatal(err)
	}
	w := core.NewWaiter(phs[0])
	defer w.Release()
	spec := core.WaitSpec{AbortRIDs: []uint64{notice + 1, notice}}
	err := retryAsync(t, waitT, func() error {
		return phs[0].Retry(w, &spec, func() error { return phs[0].Send(1, []byte{1}, 0, 99) })
	})
	if !errors.Is(err, core.ErrWaitAborted) {
		t.Fatalf("Retry returned %v, want ErrWaitAborted", err)
	}
	if spec.AbortIdx != 1 || spec.Aborted.RID != notice || string(spec.Aborted.Data) != "revoke" {
		t.Fatalf("spec records notice %d: RID %#x data %q, want 1: %#x %q",
			spec.AbortIdx, spec.Aborted.RID, spec.Aborted.Data, notice, "revoke")
	}
}

func TestFetchAddAndCompSwap(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	words := make([]byte, 64)
	binary.LittleEndian.PutUint64(words[8:], 1000)
	descs, lk := registerAndShare(t, phs, 1, words)

	if err := phs[0].FetchAdd(1, descs[1], 8, 42, 70); err != nil {
		t.Fatal(err)
	}
	lc, err := phs[0].WaitLocal(70, waitT)
	if err != nil || lc.Err != nil {
		t.Fatalf("fadd: %v %v", err, lc.Err)
	}
	if lc.Value != 1000 {
		t.Fatalf("fadd prior value = %d", lc.Value)
	}
	lk.Lock()
	now := binary.LittleEndian.Uint64(words[8:])
	lk.Unlock()
	if now != 1042 {
		t.Fatalf("memory after fadd = %d", now)
	}

	if err := phs[0].CompSwap(1, descs[1], 8, 1042, 7, 71); err != nil {
		t.Fatal(err)
	}
	lc, err = phs[0].WaitLocal(71, waitT)
	if err != nil || lc.Value != 1042 {
		t.Fatalf("cas: %v value=%d", err, lc.Value)
	}
	lk.Lock()
	now = binary.LittleEndian.Uint64(words[8:])
	lk.Unlock()
	if now != 7 {
		t.Fatalf("memory after cas = %d", now)
	}
	// Misaligned/out-of-bounds atomics rejected up front.
	if err := phs[0].FetchAdd(1, descs[1], 60, 1, 72); err == nil {
		t.Fatal("out-of-bounds atomic accepted")
	}
}

func TestOrderingDataBeforeNotification(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	target := make([]byte, 4096)
	descs, lk := registerAndShare(t, phs, 1, target)
	// Burst of unnotified puts, then one notified put; when the
	// notification arrives, every prior byte must be visible.
	for i := 0; i < 32; i++ {
		if err := phs[0].PutWithCompletion(1, []byte{byte(i + 1)}, descs[1], uint64(i*8), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := phs[0].PutWithCompletion(1, []byte{0xFF}, descs[1], 4000, 0, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(9, waitT); err != nil {
		t.Fatal(err)
	}
	lk.Lock()
	defer lk.Unlock()
	for i := 0; i < 32; i++ {
		if target[i*8] != byte(i+1) {
			t.Fatalf("byte %d not visible at notification time", i)
		}
	}
	if target[4000] != 0xFF {
		t.Fatal("final put not visible")
	}
}

func TestThreeRankCrossTraffic(t *testing.T) {
	phs := newJob(t, 3, core.Config{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				dst := (r + 1) % 3
				rid := uint64(r*1000 + k + 1)
				if err := phs[r].SendBlocking(dst, []byte{byte(r), byte(k)}, 0, rid); err != nil {
					t.Errorf("rank %d send: %v", r, err)
					return
				}
			}
		}(r)
	}
	// Each rank receives 20 messages from (r+2)%3.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src := (r + 2) % 3
			for k := 0; k < 20; k++ {
				rid := uint64(src*1000 + k + 1)
				rc, err := phs[r].WaitRemote(rid, waitT)
				if err != nil {
					t.Errorf("rank %d recv %d: %v", r, k, err)
					return
				}
				if rc.Rank != src || rc.Data[0] != byte(src) || rc.Data[1] != byte(k) {
					t.Errorf("rank %d got %+v", r, rc)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestSelfSend(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	if err := phs[0].Send(0, []byte("loopback"), 1, 2); err != nil {
		t.Fatal(err)
	}
	rc, err := phs[0].WaitRemote(2, waitT)
	if err != nil || string(rc.Data) != "loopback" {
		t.Fatalf("self send: %v %q", err, rc.Data)
	}
	if rc.Rank != 0 {
		t.Fatalf("self send rank = %d", rc.Rank)
	}
}

func TestProbeFlags(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	if err := phs[0].Send(1, []byte{1}, 50, 60); err != nil {
		t.Fatal(err)
	}
	// Receiver: remote-only probe must surface it; local-only must not.
	deadline := time.Now().Add(waitT)
	for {
		if _, ok := phs[1].Probe(core.ProbeLocal); ok {
			t.Fatal("ProbeLocal returned a remote completion")
		}
		if c, ok := phs[1].Probe(core.ProbeRemote); ok {
			if c.RID != 60 {
				t.Fatalf("probe RID = %d", c.RID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never saw the message")
		}
	}
	if c, ok := phs[0].Probe(core.ProbeAny); !ok || !c.Local || c.RID != 50 {
		// May need more progress rounds.
		lc, err := phs[0].WaitLocal(50, waitT)
		if err != nil {
			t.Fatalf("local completion: %v (first probe %+v ok=%v)", err, c, ok)
		}
		_ = lc
	}
}

func TestWaitTimeout(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	start := time.Now()
	_, err := phs[0].WaitLocal(999, 50*time.Millisecond)
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("returned before deadline")
	}
}

func TestCompletionFIFOPerStream(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	for i := 1; i <= 5; i++ {
		if err := phs[0].Send(1, []byte{byte(i)}, 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 5; i++ {
		deadline := time.Now().Add(waitT)
		for {
			phs[1].Progress()
			if c, ok := phs[1].PopRemote(); ok {
				if c.RID != uint64(i) {
					t.Fatalf("out of order: got %d want %d", c.RID, i)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("message %d never arrived", i)
			}
		}
	}
}

func TestCloseRejectsOps(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	if err := phs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := phs[0].Send(1, []byte{1}, 0, 1); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, _, err := phs[0].RegisterBuffer(make([]byte, 8)); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("register after close: %v", err)
	}
	if err := phs[0].Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestManyRendezvousRecycleSlab(t *testing.T) {
	// Slab smaller than total traffic: blocks must recycle.
	phs := newJob(t, 2, core.Config{RdzvSlabSize: 256 * 1024})
	const n = 16
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := phs[0].SendBlocking(1, payload, uint64(1000+i), uint64(i+1)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if _, err := phs[0].WaitLocal(uint64(1000+i), waitT); err != nil {
				t.Errorf("fin %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		rc, err := phs[1].WaitRemote(uint64(i+1), waitT)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(rc.Data, payload) {
			t.Fatalf("payload %d corrupted", i)
		}
	}
	wg.Wait()
}

func TestStatsProgressCounters(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	phs[0].Progress()
	st := phs[0].Stats()
	if st.ProgressCalls == 0 {
		t.Fatal("progress not counted")
	}
}

func TestPackedPutSingleWireOp(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	target := make([]byte, 256)
	descs, lk := registerAndShare(t, phs, 1, target)
	payload := []byte("packed small put")
	if err := phs[0].PutWithCompletion(1, payload, descs[1], 16, 7, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(8, waitT); err != nil {
		t.Fatal(err)
	}
	lk.Lock()
	ok := bytes.Equal(target[16:16+len(payload)], payload)
	lk.Unlock()
	if !ok {
		t.Fatal("packed put payload not placed")
	}
	if _, err := phs[0].WaitLocal(7, waitT); err != nil {
		t.Fatal(err)
	}
	// The packed path counts as a packed put, not a direct one.
	if st := phs[0].Stats(); st.PutsPacked != 1 || st.PutsDirect != 0 {
		t.Fatalf("stats = %+v, want packed path", st)
	}
}

func TestPackedPutBadAddressSurfacesError(t *testing.T) {
	phs := newJob(t, 2, core.Config{})
	// Descriptor that passes local Contains but points at unregistered
	// remote memory: the target-side placement must fail and surface
	// an error completion there.
	bogus := mem.RemoteBuffer{Addr: 0xDEAD000, RKey: 9999, Len: 1024}
	if err := phs[0].PutWithCompletion(1, []byte{1}, bogus, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitT)
	for {
		phs[1].Progress()
		if c, ok := phs[1].PopRemote(); ok {
			if c.Err == nil {
				t.Fatalf("bogus packed put delivered without error: %+v", c)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("error completion never surfaced")
		}
	}
}

package chaos_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

// fakeBackend records forwarded posts so injection decisions can be
// observed directly, without a transport or engine in the way.
type fakeBackend struct {
	mu     sync.Mutex
	writes [][]byte
	comps  []core.BackendCompletion

	wake *core.WakeChan // sink fires for every forwarded write
	act  atomic.Uint64  // forwarded writes, as the activity counter
}

func newFake() *fakeBackend { return &fakeBackend{wake: core.NewWakeChan()} }

func (f *fakeBackend) SetWakeSink(fn func()) { f.wake.SetSink(fn) }
func (f *fakeBackend) WriteActivity(mem.RemoteBuffer) (func() uint64, bool) {
	return f.act.Load, true
}
func (f *fakeBackend) ClockOffset(int) (offsetNS, rttNS int64, ok bool) { return 0, 0, true }
func (f *fakeBackend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	for _, r := range reqs {
		_ = f.PostWrite(rank, r.Local, r.RemoteAddr, r.RKey, r.Token, r.Signaled)
	}
	return len(reqs), nil
}

func (f *fakeBackend) Rank() int { return 0 }
func (f *fakeBackend) Size() int { return 2 }
func (f *fakeBackend) Register(buf []byte) (mem.RemoteBuffer, sync.Locker, error) {
	return mem.RemoteBuffer{}, nil, nil
}
func (f *fakeBackend) Deregister(mem.RemoteBuffer) error                  { return nil }
func (f *fakeBackend) ApplyLocal(uint64, uint32, []byte) error            { return nil }
func (f *fakeBackend) Exchange(local []byte) ([][]byte, error)            { return [][]byte{local}, nil }
func (f *fakeBackend) Close() error                                       { return nil }
func (f *fakeBackend) PostRead(int, []byte, uint64, uint32, uint64) error { return nil }
func (f *fakeBackend) PostFetchAdd(int, []byte, uint64, uint32, uint64, uint64) error {
	return nil
}
func (f *fakeBackend) PostCompSwap(int, []byte, uint64, uint32, uint64, uint64, uint64) error {
	return nil
}

func (f *fakeBackend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	f.mu.Lock()
	f.writes = append(f.writes, append([]byte(nil), local...))
	f.mu.Unlock()
	f.act.Add(1)
	f.wake.Kick()
	return nil
}

func (f *fakeBackend) Poll(dst []core.BackendCompletion) int {
	f.mu.Lock()
	n := copy(dst, f.comps)
	f.comps = f.comps[n:]
	f.mu.Unlock()
	return n
}

func (f *fakeBackend) writeCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.writes)
}

// Identical seeds over identical op sequences must inject identical
// faults — the property that makes a failing chaos run replayable.
func TestChaosDeterministic(t *testing.T) {
	run := func() (chaos.Stats, int) {
		fake := newFake()
		b := chaos.Wrap(fake, chaos.Plan{Seed: 99, DropProb: 0.2, DelayProb: 0.2, DupProb: 0.2, DelayPolls: 2})
		buf := []byte{0}
		for i := 0; i < 500; i++ {
			buf[0] = byte(i)
			if err := b.PostWrite(1, buf, uint64(i), 7, uint64(i), true); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			b.Poll(nil)
		}
		return b.Stats(), fake.writeCount()
	}
	s1, w1 := run()
	s2, w2 := run()
	if s1 != s2 || w1 != w2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", s1, w1, s2, w2)
	}
	if s1.Dropped == 0 || s1.Delayed == 0 || s1.Duplicated == 0 {
		t.Fatalf("plan injected nothing: %+v", s1)
	}
}

// A delayed write must carry a private copy of the payload: the
// caller is free to recycle its buffer the moment PostWrite returns.
func TestChaosDelaySnapshotsPayload(t *testing.T) {
	fake := newFake()
	b := chaos.Wrap(fake, chaos.Plan{Seed: 1, DelayProb: 1.0, DelayPolls: 3})
	buf := []byte{42}
	if err := b.PostWrite(1, buf, 0, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xFF // caller recycles the buffer while the op is held
	if got := fake.writeCount(); got != 0 {
		t.Fatalf("delayed op forwarded immediately (%d writes)", got)
	}
	b.Poll(nil)
	b.Poll(nil)
	b.Poll(nil) // third tick releases it
	if got := fake.writeCount(); got != 1 {
		t.Fatalf("delayed op not released after DelayPolls ticks: %d writes", got)
	}
	if fake.writes[0][0] != 42 {
		t.Fatalf("delayed op delivered recycled payload %#x, want snapshot 42", fake.writes[0][0])
	}
}

// chaosJob boots a vsim job with every rank's backend wrapped by the
// plan (per-rank seed offsets keep the streams independent).
func chaosJob(t *testing.T, n int, cfg core.Config, plan chaos.Plan) ([]*chaos.Backend, []*core.Photon) {
	t.Helper()
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cbs := make([]*chaos.Backend, n)
	for r := 0; r < n; r++ {
		p := plan
		p.Seed = plan.Seed + int64(r)*1000003
		cbs[r] = chaos.Wrap(cl.Backend(r), p)
	}
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			phs[r], errs[r] = core.Init(cbs[r], cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return cbs, phs
}

// sharedTarget registers a buffer on rank 1 and returns its descriptor
// as rank 0 addresses it.
func sharedTarget(t *testing.T, phs []*core.Photon, size int) mem.RemoteBuffer {
	t.Helper()
	rb, _, err := phs[1].RegisterBuffer(make([]byte, size))
	if err != nil {
		t.Fatal(err)
	}
	descs := make([][]mem.RemoteBuffer, len(phs))
	var wg sync.WaitGroup
	for r := range phs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			contrib := mem.RemoteBuffer{}
			if r == 1 {
				contrib = rb
			}
			descs[r], _ = phs[r].ExchangeBuffers(contrib)
		}(r)
	}
	wg.Wait()
	if len(descs[0]) != len(phs) {
		t.Fatal("buffer exchange failed")
	}
	return descs[0][1]
}

// An engine over the chaos wrapper must run the production path — the
// doorbell batch for a direct put's data+notification pair, the wake
// sink behind BackendNotify — not a fallback only fault tests reach.
func TestChaosRunsProductionPath(t *testing.T) {
	_, phs := chaosJob(t, 2, core.Config{}, chaos.Plan{Seed: 3})
	dst := sharedTarget(t, phs, 4096)
	if phs[0].BackendNotify() == nil {
		t.Fatal("chaos-wrapped instance has no activity latch")
	}
	// 2 KiB is past the packed-put capacity: a data write plus a ledger
	// entry, posted as one batch.
	if err := phs[0].PutBlocking(1, make([]byte, 2048), dst, 0, 5, 6); err != nil {
		t.Fatal(err)
	}
	if c, err := phs[0].WaitLocal(5, 3*time.Second); err != nil || c.Err != nil {
		t.Fatalf("put: %v / %v", err, c.Err)
	}
	if st := phs[0].Stats(); st.BatchPosts == 0 || st.BatchedOps < 2 {
		t.Fatalf("direct put over chaos did not take the batch path: %+v", st)
	}
}

// Held writes are released by Poll calls, so chaos must keep a parked
// waiter polling: with every write held for 1000 polls, a blocking wait
// that re-polled only on its 1 ms grace timer would take over a second.
func TestChaosDelayKeepsWaiterPolling(t *testing.T) {
	cbs, phs := chaosJob(t, 2, core.Config{}, chaos.Plan{Seed: 5, DelayProb: 1, DelayPolls: 1000})
	dst := sharedTarget(t, phs, 4096)
	start := time.Now()
	if err := phs[0].PutBlocking(1, make([]byte, 2048), dst, 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if c, err := phs[0].WaitLocal(5, 10*time.Second); err != nil || c.Err != nil {
		t.Fatalf("delayed put: %v / %v", err, c.Err)
	}
	if cbs[0].Stats().Delayed == 0 {
		t.Fatal("plan delayed nothing; test proved nothing")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("1000 held polls took %v: the waiter slept through them instead of polling", el)
	}
}

// Under random frame loss every signaled send must still resolve —
// delivered or swept into ErrTimeout — and whatever the receiver
// harvests must be intact and in order. This is the OpTimeout sweep
// and receiver in-order ledger head under fire.
func TestChaosDropsResolveEveryWaiter(t *testing.T) {
	cbs, phs := chaosJob(t, 2,
		core.Config{LedgerSlots: 64, OpTimeout: 150 * time.Millisecond},
		chaos.Plan{Seed: 7, DropProb: 0.3})
	const n = 20
	for i := 1; i <= n; i++ {
		_ = phs[0].Send(1, []byte{byte(i)}, uint64(i), uint64(i))
		phs[0].Progress()
		phs[1].Progress()
	}
	delivered, timedOut := 0, 0
	for i := 1; i <= n; i++ {
		c, err := phs[0].WaitLocal(uint64(i), 3*time.Second)
		if err != nil {
			t.Fatalf("send %d: waiter wedged: %v", i, err)
		}
		if c.Err == nil {
			delivered++
		} else if errors.Is(c.Err, core.ErrTimeout) || errors.Is(c.Err, core.ErrPeerDown) {
			timedOut++
		} else {
			t.Fatalf("send %d: unexpected completion error %v", i, c.Err)
		}
	}
	if cbs[0].Stats().Dropped == 0 {
		t.Fatal("plan dropped nothing; test proved nothing")
	}
	if timedOut == 0 {
		t.Logf("note: %d delivered, no drops hit signaled frames this seed", delivered)
	}
	// Whatever arrived must be uncorrupted and strictly ordered.
	last := uint64(0)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		phs[0].Progress()
		phs[1].Progress()
		c, ok := phs[1].PopRemote()
		if !ok {
			continue
		}
		if c.RID <= last {
			t.Fatalf("reordered or duplicated delivery: %d after %d", c.RID, last)
		}
		if len(c.Data) != 1 || c.Data[0] != byte(c.RID) {
			t.Fatalf("corrupted payload for RID %d: %v", c.RID, c.Data)
		}
		last = c.RID
	}
}

// Pure delay loses nothing: every send completes OK and arrives
// intact, even though held frames are overtaken in flight.
func TestChaosDelayedDeliveryCompletes(t *testing.T) {
	_, phs := chaosJob(t, 2,
		core.Config{LedgerSlots: 64},
		chaos.Plan{Seed: 11, DelayProb: 0.5, DelayPolls: 8})
	const n = 16
	for i := 1; i <= n; i++ {
		if err := phs[0].Send(1, []byte{byte(i)}, uint64(i), uint64(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got, last := 0, uint64(0)
	deadline := time.Now().Add(5 * time.Second)
	for got < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d deliveries; delayed frames lost", got, n)
		}
		phs[0].Progress() // releases held frames
		phs[1].Progress()
		if c, ok := phs[1].PopRemote(); ok {
			if c.RID <= last || c.Data[0] != byte(c.RID) {
				t.Fatalf("bad delivery RID %d (last %d) data %v", c.RID, last, c.Data)
			}
			last = c.RID
			got++
		}
	}
	for i := 1; i <= n; i++ {
		if c, err := phs[0].WaitLocal(uint64(i), 3*time.Second); err != nil || c.Err != nil {
			t.Fatalf("send %d local completion: %v / %v", i, err, c.Err)
		}
	}
}

// Duplicated frames must be invisible: one completion per RID at the
// sender (token generations reject the replay) and one delivery per
// RID at the receiver.
func TestChaosDuplicatesRejected(t *testing.T) {
	cbs, phs := chaosJob(t, 2,
		core.Config{LedgerSlots: 64},
		chaos.Plan{Seed: 13, DupProb: 1.0})
	const n = 12
	for i := 1; i <= n; i++ {
		if err := phs[0].Send(1, []byte{byte(i)}, uint64(i), uint64(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	seen := make(map[uint64]int)
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < n && time.Now().Before(deadline) {
		phs[0].Progress()
		phs[1].Progress()
		if c, ok := phs[1].PopRemote(); ok {
			seen[c.RID]++
			if c.Data[0] != byte(c.RID) {
				t.Fatalf("corrupted payload for RID %d: %v", c.RID, c.Data)
			}
		}
	}
	for rid, count := range seen {
		if count != 1 {
			t.Fatalf("RID %d delivered %d times", rid, count)
		}
	}
	if len(seen) != n {
		t.Fatalf("only %d/%d RIDs delivered", len(seen), n)
	}
	locals := make(map[uint64]int)
	for i := 1; i <= n; i++ {
		c, err := phs[0].WaitLocal(uint64(i), 3*time.Second)
		if err != nil || c.Err != nil {
			t.Fatalf("send %d local completion: %v / %v", i, err, c.Err)
		}
		locals[c.RID]++
	}
	// Drain: any surviving duplicate completion would surface now.
	for i := 0; i < 50; i++ {
		phs[0].Progress()
		if c, ok := phs[0].PopLocal(); ok {
			locals[c.RID]++
		}
	}
	for rid, count := range locals {
		if count != 1 {
			t.Fatalf("RID %d completed locally %d times (duplicate leaked past token generation)", rid, count)
		}
	}
	if cbs[0].Stats().Duplicated == 0 {
		t.Fatal("plan duplicated nothing; test proved nothing")
	}
}

// A crashed peer fails fast: in-flight ops resolve within the sweep
// bound, fresh posts surface ErrPeerDown, and the engine's health
// view latches PeerDown.
func TestChaosCrashPeerFailsFast(t *testing.T) {
	cbs, phs := chaosJob(t, 2,
		core.Config{
			OpTimeout:         100 * time.Millisecond,
			HeartbeatInterval: 5 * time.Millisecond,
			SuspectAfter:      20 * time.Millisecond,
			FlightRecords:     4,
		},
		chaos.Plan{Seed: 17})
	var blackBox strings.Builder
	if !chaos.ArmFlightDump(phs[0], &blackBox) {
		t.Fatal("flight recorder not armed despite FlightRecords > 0")
	}
	for i := 1; i <= 3; i++ {
		_ = phs[0].Send(1, []byte{byte(i)}, uint64(i), uint64(i))
	}
	cbs[0].CrashPeer(1)
	start := time.Now()
	for i := 1; i <= 3; i++ {
		c, err := phs[0].WaitLocal(uint64(i), 2*time.Second)
		if err != nil {
			t.Fatalf("send %d: waiter wedged after crash: %v", i, err)
		}
		if c.Err != nil && !errors.Is(c.Err, core.ErrTimeout) && !errors.Is(c.Err, core.ErrPeerDown) {
			t.Fatalf("send %d: unexpected error %v", i, c.Err)
		}
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("in-flight ops took %v to resolve, want well under 2×OpTimeout-ish bound", el)
	}
	// Fresh post: ErrPeerDown at post time or via error completion.
	if err := phs[0].Send(1, []byte{9}, 9, 9); err != nil {
		if !errors.Is(err, core.ErrPeerDown) {
			t.Fatalf("post after crash: %v, want ErrPeerDown", err)
		}
	} else {
		c, werr := phs[0].WaitLocal(9, 2*time.Second)
		if werr != nil {
			t.Fatalf("post-crash send never resolved: %v", werr)
		}
		if c.Err == nil {
			t.Fatal("send to crashed peer completed OK")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for phs[0].PeerHealthState(1) != core.PeerDown {
		if time.Now().After(deadline) {
			t.Fatalf("health never latched PeerDown: %v", phs[0].PeerHealthState(1))
		}
		phs[0].Progress()
		time.Sleep(time.Millisecond)
	}
	// The crash must have auto-dumped a non-empty black box.
	dump := blackBox.String()
	if !strings.Contains(dump, `"to": "down"`) {
		t.Fatalf("chaos crash left no →down flight record:\n%s", dump)
	}
	if !strings.Contains(dump, "chaos_dropped") {
		t.Fatalf("flight record missing chaos transport gauges:\n%s", dump)
	}
}

// A one-way partition blackholes silently: the sender's ops time out
// (posts "succeed" but vanish), while the reverse direction still
// flows.
func TestChaosPartitionTimesOut(t *testing.T) {
	cbs, phs := chaosJob(t, 2,
		core.Config{OpTimeout: 80 * time.Millisecond},
		chaos.Plan{Seed: 23})
	cbs[0].Partition(1, true)
	if err := phs[0].Send(1, []byte{1}, 1, 1); err != nil {
		t.Fatal(err)
	}
	c, err := phs[0].WaitLocal(1, 2*time.Second)
	if err != nil {
		t.Fatalf("partitioned send never resolved: %v", err)
	}
	if !errors.Is(c.Err, core.ErrTimeout) {
		t.Fatalf("partitioned send completed with %v, want ErrTimeout", c.Err)
	}
	if err := phs[1].Send(0, []byte{2}, 2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitRemote(2, 5*time.Second); err != nil {
		t.Fatalf("reverse direction broken by one-way partition: %v", err)
	}
}

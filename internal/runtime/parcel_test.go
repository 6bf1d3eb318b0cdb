package runtime_test

import (
	"bytes"
	"errors"
	"hash/fnv"
	gort "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/core"
	"photon/internal/runtime"
)

// Tests of the parcel path: timer-free futures, persistent workers,
// pooled encode, the parking dispatcher.

func echoJob(t *testing.T, n int) ([]*runtime.Locality, runtime.ActionID) {
	locs := job(t, n, func(l *runtime.Locality) {
		l.RegisterAction("echo", func(ctx *runtime.Context) ([]byte, error) { return ctx.Payload, nil })
	})
	return locs, runtime.ActionIDFor("echo")
}

// TestParcelAllocGuard pins what a parcel costs the allocator. A wait
// on a resolved future takes the fast path: no channel, no timer, no
// allocation. A Call→Wait round trip allocates four times across both
// ranks — the future, the channel its waiter blocks on, and the two
// delivery buffers (parcel and reply) the engine hands the dispatcher —
// where it used to allocate fifteen. The race detector's sync.Pool
// drops items at random, so under -race the count is only bounded.
func TestParcelAllocGuard(t *testing.T) {
	locs, echo := echoJob(t, 2)
	var body [8]byte
	f, err := locs[0].Call(1, echo, body[:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(waitT); err != nil {
		t.Fatal(err)
	}
	rewait := func() {
		if _, err := f.Wait(waitT); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, rewait); allocs != 0 {
		t.Fatalf("Wait on a resolved future allocates %.2f times, want 0", allocs)
	}

	roundTrip := func() {
		f, err := locs[0].Call(1, echo, body[:])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(waitT); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ { // pools, rings and workers reach steady state
		roundTrip()
	}
	want := 4.0
	if raceEnabled {
		want = 8
	}
	allocs := testing.AllocsPerRun(2000, roundTrip)
	t.Logf("Call→Wait round trip: %.2f allocs", allocs)
	if allocs > want {
		t.Fatalf("Call→Wait round trip allocates %.2f times, want at most %.0f", allocs, want)
	}
}

// TestWaitLeavesNoTimer: 10 000 blocking waits with a 30 s bound leave
// nothing pending. The check is the live heap: a pending timer is not a
// goroutine (NumGoroutine cannot see it), timing a burst of sleeps on a
// shared 2-vCPU host is noise, but every abandoned timer keeps itself
// and its channel reachable from the runtime's timer heap until it
// fires — 10 000 of them are more than 2 MiB that a collection cannot
// free.
func TestWaitLeavesNoTimer(t *testing.T) {
	locs, echo := echoJob(t, 2)
	var body [8]byte
	waits := func(n int) {
		for i := 0; i < n; i++ {
			f, err := locs[0].Call(1, echo, body[:])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Wait(30 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func() uint64 {
		gort.GC()
		var m gort.MemStats
		gort.ReadMemStats(&m)
		return m.HeapAlloc
	}
	waits(500)
	before := live()
	waits(10_000)
	if after := live(); after > before+512<<10 {
		t.Fatalf("live heap grew from %d to %d bytes over 10000 waits", before, after)
	}
}

// after is the tests' timeout channel.
func after(d time.Duration) <-chan time.Time { return time.NewTimer(d).C }

// gate is a handler that reports it is running and then blocks until
// released.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

// workers is the runtime's worker bound, the most handlers one
// locality runs at a time.
const workers = 64

func newGate() *gate {
	// entered never blocks a handler: no more than workers run.
	return &gate{entered: make(chan struct{}, workers), release: make(chan struct{})}
}

func (g *gate) handler(*runtime.Context) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.release
	return []byte("released"), nil
}

func (g *gate) waitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-after(waitT):
			t.Fatalf("only %d of %d handlers started", i, n)
		}
	}
}

// TestBlockedHandlersDoNotStarveParcels: below the worker bound a
// blocked handler never stands in a parcel's way (a parcel goes to an
// idle worker or a new one, never into a queue behind a busy one); at
// the bound — every worker blocked — replies still resolve, because the
// dispatcher resolves them itself, and one more parcel waits for a
// worker, which pins the bound at 64.
func TestBlockedHandlersDoNotStarveParcels(t *testing.T) {
	g := newGate()
	locs := job(t, 2, func(l *runtime.Locality) {
		l.RegisterAction("block", g.handler)
		l.RegisterAction("ping", func(*runtime.Context) ([]byte, error) { return []byte("pong"), nil })
	})
	block, ping := runtime.ActionIDFor("block"), runtime.ActionIDFor("ping")
	var blocked []*runtime.Future
	// Also when the test fails early, release the blocked handlers and
	// let their replies land before Shutdown stops the dispatchers: a
	// handler still sending to a stopped rank would never return.
	release := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(func() {
		release()
		for _, f := range blocked {
			f.Wait(waitT)
		}
	})
	callBlock := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			f, err := locs[0].Call(1, block, nil)
			if err != nil {
				t.Fatal(err)
			}
			blocked = append(blocked, f)
		}
		g.waitEntered(t, n)
	}
	callBlock(workers - 1)

	// All but one of rank 1's workers are blocked: one more parcel runs.
	f, err := locs[0].Call(1, ping, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := f.Wait(waitT); err != nil || string(out) != "pong" {
		t.Fatalf("parcel with %d handlers blocked: %q, %v", workers-1, out, err)
	}

	// Block the last one too. Rank 1 now has no worker to give, yet a
	// reply addressed to it resolves its future.
	callBlock(1)
	f, err = locs[1].Call(0, ping, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := f.Wait(waitT); err != nil || string(out) != "pong" {
		t.Fatalf("reply with every worker blocked: %q, %v", out, err)
	}

	// A parcel past the bound waits until a worker is free.
	f, err = locs[0].Call(1, ping, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := f.Wait(20 * time.Millisecond); !errors.Is(err, runtime.ErrTimeout) {
		t.Fatalf("parcel past the %d-worker bound ran: %q, %v", workers, out, err)
	}

	release()
	for i, f := range blocked {
		if out, err := f.Wait(waitT); err != nil || string(out) != "released" {
			t.Fatalf("blocked call %d: %q, %v", i, out, err)
		}
	}
	if out, err := f.Wait(waitT); err != nil || string(out) != "pong" {
		t.Fatalf("parcel past the bound after release: %q, %v", out, err)
	}
}

// TestShutdownWaitsForHandlers: Shutdown returns only after a running
// handler has returned, and the dispatcher and every worker are gone
// afterwards.
func TestShutdownWaitsForHandlers(t *testing.T) {
	phs := photons(t, 2)
	// The simulated fabric starts a link's goroutine on its first frame;
	// put traffic on both links before taking the baseline.
	for r, ph := range phs {
		if err := ph.SendBlocking(1-r, []byte("warm"), 0, 7); err != nil {
			t.Fatal(err)
		}
	}
	for _, ph := range phs {
		if _, err := ph.WaitRemote(7, waitT); err != nil {
			t.Fatal(err)
		}
	}
	goroutines := gort.NumGoroutine()

	g := newGate()
	var finished atomic.Bool
	locs := make([]*runtime.Locality, 2)
	for r, ph := range phs {
		l := runtime.NewLocality(ph, runtime.Config{Timeout: waitT})
		l.RegisterAction("slow", func(ctx *runtime.Context) ([]byte, error) {
			defer finished.Store(true)
			return g.handler(ctx)
		})
		l.RegisterAction("echo", func(ctx *runtime.Context) ([]byte, error) { return ctx.Payload, nil })
		locs[r] = l
	}
	for _, l := range locs {
		l.Start()
	}
	// Grow a few workers on both ranks, then park one in a handler.
	var futs []*runtime.Future
	for i := 0; i < 32; i++ {
		f, err := locs[i%2].Call(1-i%2, runtime.ActionIDFor("echo"), nil)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if _, err := f.Wait(waitT); err != nil {
			t.Fatal(err)
		}
	}
	if err := locs[0].Apply(1, runtime.ActionIDFor("slow"), nil); err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t, 1)

	down := make(chan struct{})
	go func() {
		locs[1].Shutdown()
		close(down)
	}()
	select {
	case <-down:
		t.Fatal("Shutdown returned while a handler was still running")
	case <-after(50 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-down:
	case <-after(waitT):
		t.Fatal("Shutdown did not return after the handler finished")
	}
	if !finished.Load() {
		t.Fatal("Shutdown returned before the handler did")
	}
	locs[0].Shutdown()

	// A goroutine is still counted for an instant after its last
	// statement; give the stragglers a moment.
	deadline := time.Now().Add(waitT)
	for gort.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before Start", gort.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}

// stalledJob boots 2 localities with the given Timeout, registers
// "noop" and a "flood" handler that applies noop parcels toward rank 0
// until a send fails (its error goes to the returned channel), and
// shuts rank 0's locality down, so rank 0 drains no ledger and returns
// no credits. Cleanup is the caller's: a locality whose Shutdown hangs
// must not also hang the test's cleanup.
func stalledJob(t *testing.T, timeout time.Duration) ([]*runtime.Locality, *gate, chan error) {
	t.Helper()
	g := newGate()
	floodErr := make(chan error, 1)
	locs := make([]*runtime.Locality, 2)
	for r, ph := range photons(t, 2) {
		l := runtime.NewLocality(ph, runtime.Config{Timeout: timeout})
		l.RegisterAction("noop", func(*runtime.Context) ([]byte, error) { return nil, nil })
		l.RegisterAction("flood", func(ctx *runtime.Context) ([]byte, error) {
			g.entered <- struct{}{}
			<-g.release
			for {
				if err := ctx.Rt.Apply(0, runtime.ActionIDFor("noop"), nil); err != nil {
					floodErr <- err
					return nil, err
				}
			}
		})
		locs[r] = l
	}
	for _, l := range locs {
		l.Start()
	}
	if err := locs[0].Apply(1, runtime.ActionIDFor("flood"), nil); err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t, 1)
	locs[0].Shutdown()
	return locs, g, floodErr
}

// TestShutdownBoundsBlockedSends: a handler on rank 1 floods rank 0,
// whose locality has shut down, until its send blocks on credits.
// Rank 1's Shutdown, which waits for every handler, must end that send
// with ErrStopped and return well inside Config.Timeout instead of
// hanging for good.
func TestShutdownBoundsBlockedSends(t *testing.T) {
	locs, g, floodErr := stalledJob(t, waitT)
	close(g.release)
	// Shut rank 1 down only once the flood has stalled on credits: a
	// send that starts after Shutdown fails at once with ErrStopped.
	for sent := int64(-1); ; {
		time.Sleep(20 * time.Millisecond)
		now := locs[1].Counters().ParcelsSent
		if now == sent {
			break
		}
		sent = now
	}
	down := make(chan struct{})
	go func() {
		locs[1].Shutdown()
		close(down)
	}()
	select {
	case <-down:
	case <-after(time.Second):
		t.Fatalf("rank 1's Shutdown still blocked after 1s (Timeout %v)", waitT)
	}
	if err := <-floodErr; !errors.Is(err, runtime.ErrStopped) {
		t.Fatalf("blocked send: want runtime.ErrStopped, got %v", err)
	}
}

// TestBlockedSendTimesOut: a send toward a rank that returns no credits
// gives up with runtime.ErrTimeout after Config.Timeout.
func TestBlockedSendTimesOut(t *testing.T) {
	const timeout = 200 * time.Millisecond
	locs, g, floodErr := stalledJob(t, timeout)
	start := time.Now()
	close(g.release)
	select {
	case err := <-floodErr:
		if !errors.Is(err, runtime.ErrTimeout) || time.Since(start) < timeout {
			t.Fatalf("blocked send returned %v after %v, want runtime.ErrTimeout after at least %v", err, time.Since(start), timeout)
		}
		locs[1].Shutdown()
	case <-after(10 * timeout):
		t.Fatalf("blocked send still blocked after %v (Timeout %v)", 10*timeout, timeout)
	}
}

// TestWaitTimeoutAndRepeat: a timed-out wait matches both timeout
// sentinels and leaves the future usable; every wait after resolution
// returns the same value.
func TestWaitTimeoutAndRepeat(t *testing.T) {
	g := newGate()
	locs := job(t, 2, func(l *runtime.Locality) { l.RegisterAction("block", g.handler) })
	f, err := locs[0].Call(1, runtime.ActionIDFor("block"), nil)
	if err != nil {
		t.Fatal(err)
	}
	g.waitEntered(t, 1)
	_, err = f.Wait(5 * time.Millisecond)
	if !errors.Is(err, runtime.ErrTimeout) || !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("timed-out Wait = %v, want runtime.ErrTimeout wrapping core.ErrTimeout", err)
	}
	if _, err = f.Value(5 * time.Millisecond); !errors.Is(err, runtime.ErrTimeout) {
		t.Fatalf("timed-out Value = %v", err)
	}
	close(g.release)
	first, err := f.Wait(waitT)
	if err != nil || string(first) != "released" {
		t.Fatalf("wait after timeout: %q, %v", first, err)
	}
	for i := 0; i < 3; i++ {
		again, err := f.Wait(waitT)
		if err != nil || !bytes.Equal(again, first) {
			t.Fatalf("repeat wait %d: %q, %v", i, again, err)
		}
	}
	if again, err := f.Wait(0); err != nil || !bytes.Equal(again, first) { // wait-forever form
		t.Fatalf("repeat untimed wait: %q, %v", again, err)
	}
}

// TestResolvesWhileDispatcherParked: after an idle stretch the
// dispatcher is parked on its waiter; a self-targeted Call (no other
// rank's traffic to wake anyone) and one-sided GAS operations still
// resolve. The latency is logged, not asserted: a wake the backend
// failed to deliver would show as ~1 ms (the waiter's park bound).
func TestResolvesWhileDispatcherParked(t *testing.T) {
	locs, echo := echoJob(t, 2)
	gas := make([]*runtime.GlobalArray, 2)
	var wg sync.WaitGroup
	for r, l := range locs {
		wg.Add(1)
		go func(r int, l *runtime.Locality) {
			defer wg.Done()
			var err error
			if gas[r], err = runtime.NewGlobalArray(l, 4096); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r, l)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	payload := []byte("written while parked")
	var lat []time.Duration
	for i := 0; i < 20; i++ {
		time.Sleep(3 * time.Millisecond) // several park bounds of silence
		start := time.Now()
		f, err := locs[0].Call(0, echo, payload)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := f.Wait(waitT); err != nil || !bytes.Equal(out, payload) {
			t.Fatalf("self call: %q, %v", out, err)
		}
		lat = append(lat, time.Since(start))

		time.Sleep(3 * time.Millisecond)
		idx := uint64(4096 + 64*i) // owned by rank 1
		if f, err = gas[0].Put(idx, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(waitT); err != nil {
			t.Fatal(err)
		}
		time.Sleep(3 * time.Millisecond)
		if f, err = gas[0].Get(idx, len(payload)); err != nil {
			t.Fatal(err)
		}
		if out, err := f.Wait(waitT); err != nil || !bytes.Equal(out, payload) {
			t.Fatalf("gas get: %q, %v", out, err)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	t.Logf("self Call→Wait from a parked dispatcher: median %v", lat[len(lat)/2])
}

// TestActionIDIsFNV1a: the allocation-free hash is still the FNV-1a the
// IDs were defined as, so IDs agree with peers built before the change.
func TestActionIDIsFNV1a(t *testing.T) {
	for _, name := range []string{"", "a", "echo", "__runtime_reply", "bfs_visit", "名前"} {
		h := fnv.New32a()
		h.Write([]byte(name))
		if got := runtime.ActionIDFor(name); uint32(got) != h.Sum32() {
			t.Fatalf("ActionIDFor(%q) = %#x, want %#x", name, got, h.Sum32())
		}
	}
}

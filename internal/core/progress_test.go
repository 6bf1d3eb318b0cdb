package core_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/core"
)

// TestCrossPeerHarvestOrder pins the single engine's ordering
// guarantee: completions from different peers pop in the order the
// engine harvested them — a global FIFO per stream, not just per peer.
// Remote: ranks 2, 0, 1 (not rank order) put into rank 3 one at a time,
// each harvested before the next is posted. Local: rank 3 sends to 1,
// 2, 0 the same way.
func TestCrossPeerHarvestOrder(t *testing.T) {
	phs := newJob(t, 4, core.Config{})
	buf := make([]byte, 4096)
	descs, lk := registerAndShare(t, phs, 3, buf)
	dst := phs[3]

	// harvest drives rank 3 until the named queue holds want
	// completions. Nothing pops them meanwhile, so the queue's
	// high-water gauge is its depth.
	harvest := func(gauge string, want int) {
		t.Helper()
		deadline := time.Now().Add(waitT)
		for int(dst.Metrics().Gauges[gauge]) < want {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d completions harvested", dst.Metrics().Gauges[gauge], want)
			}
			dst.Progress()
		}
	}

	srcs := []int{2, 0, 1}
	for k, src := range srcs {
		rid := uint64(1000 + src)
		if err := phs[src].PutBlocking(3, []byte{byte(0xA0 + src)}, descs[3], uint64(src), rid, rid+100); err != nil {
			t.Fatal(err)
		}
		if _, err := phs[src].WaitLocal(rid, waitT); err != nil {
			t.Fatalf("src %d local: %v", src, err)
		}
		harvest("remote_cq_highwater", k+1)
	}
	for _, src := range srcs {
		c, ok := dst.PopRemote()
		if !ok || c.Err != nil || c.Rank != src || c.RID != uint64(1100+src) {
			t.Fatalf("remote pop = %+v ok=%v, want rank %d RID %d", c, ok, src, 1100+src)
		}
	}
	lk.Lock()
	placed := bytes.Equal(buf[:3], []byte{0xA0, 0xA1, 0xA2})
	lk.Unlock()
	if !placed {
		t.Fatalf("buf = %x", buf[:3])
	}

	peers := []int{1, 2, 0}
	for k, peer := range peers {
		if err := dst.Send(peer, []byte{byte(peer)}, uint64(2000+peer), 0); err != nil {
			t.Fatal(err)
		}
		harvest("local_cq_highwater", k+1)
	}
	for _, peer := range peers {
		c, ok := dst.PopLocal()
		if !ok || c.Err != nil || c.Rank != peer || c.RID != uint64(2000+peer) {
			t.Fatalf("local pop = %+v ok=%v, want rank %d RID %d", c, ok, peer, 2000+peer)
		}
	}
}

// TestConcurrentProgressRace has two goroutines driving one rank's
// Progress concurrently while posters on two other ranks keep its
// peers busy. Concurrent callers coalesce on the engine's try-lock;
// run under -race in CI, the engine state it guards must stay
// data-race free and no completion may be lost.
func TestConcurrentProgressRace(t *testing.T) {
	phs := newJob(t, 3, core.Config{})
	buf := make([]byte, 4096)
	descs, _ := registerAndShare(t, phs, 0, buf)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				phs[0].Progress()
			}
		}()
	}

	const perSrc = 50
	for src := 1; src <= 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perSrc; i++ {
				rid := uint64(src*1000 + i)
				if err := phs[src].PutBlocking(0, []byte{byte(src)}, descs[0], uint64(src), rid, rid); err != nil {
					t.Error(err)
					return
				}
				if _, err := phs[src].WaitLocal(rid, waitT); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}

	// Harvest the remote completions on rank 0 without driving
	// progress ourselves: the goroutines above are the engine.
	got := 0
	deadline := time.Now().Add(waitT)
	for got < 2*perSrc {
		if c, ok := phs[0].PopRemote(); ok {
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			got++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %d/%d remote completions", got, 2*perSrc)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestConcurrentWaitersNotStarved is the waiter-fairness regression:
// multiple goroutines parked in Wait* at once, each holding its own
// notify subscription. With a single engine-level notify channel one
// waiter could swallow the only wake token and leave the others
// sleeping out their grace timers; with per-waiter subscriptions every
// backend event reaches every parked waiter, so all of them must
// harvest promptly.
func TestConcurrentWaitersNotStarved(t *testing.T) {
	phs := newJob(t, 3, core.Config{})
	buf := make([]byte, 4096)
	descs, _ := registerAndShare(t, phs, 0, buf)

	const waiters = 4
	errCh := make(chan error, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := phs[0].WaitRemote(uint64(500+w), waitT)
			errCh <- err
		}(w)
	}
	// Let the waiters park, then satisfy them from two source ranks.
	time.Sleep(10 * time.Millisecond)
	for w := 0; w < waiters; w++ {
		src := 1 + w%2
		rid := uint64(900 + w)
		if err := phs[src].PutBlocking(0, []byte{byte(w)}, descs[0], uint64(16+w), rid, uint64(500+w)); err != nil {
			t.Fatal(err)
		}
		if _, err := phs[src].WaitLocal(rid, waitT); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("starved waiter: %v", err)
		}
	}
}

// TestCompRingGrowsPastInitialSlots queues more local completions than
// the ring's initial 1024 slots without harvesting any. The ring must
// grow instead of dropping or reordering: RingOverflows counts the one
// growth, the high-water gauge reads the full depth, a wait takes an
// RID out of the middle, and the rest pop in post order.
func TestCompRingGrowsPastInitialSlots(t *testing.T) {
	p, dst := loopEnv(t, core.Config{})
	const n = 1100
	payload := make([]byte, 8)
	for rid := uint64(1); rid <= n; rid++ {
		for {
			err := p.PutWithCompletion(0, payload, dst, 0, rid, 0)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				t.Fatal(err)
			}
			p.Progress()
		}
	}
	deadline := time.Now().Add(waitT)
	for p.Metrics().Gauges["local_cq_highwater"] < n {
		if time.Now().After(deadline) {
			t.Fatalf("local ring holds %d of %d completions", p.Metrics().Gauges["local_cq_highwater"], n)
		}
		p.Progress()
	}
	if got := p.Metrics().Gauges["local_cq_highwater"]; got != n {
		t.Fatalf("local_cq_highwater = %d, want %d", got, n)
	}
	if got := p.Stats().RingOverflows; got != 1 {
		t.Fatalf("RingOverflows = %d, want 1 growth past the initial slots", got)
	}
	const mid = n / 2
	if c, err := p.WaitLocal(mid, waitT); err != nil || c.RID != mid {
		t.Fatalf("WaitLocal(%d) = RID %d, %v", mid, c.RID, err)
	}
	for want := uint64(1); want <= n; want++ {
		if want == mid {
			continue
		}
		c, ok := p.PopLocal()
		if !ok || c.RID != want {
			t.Fatalf("pop = RID %d, %v; want %d", c.RID, ok, want)
		}
	}
	if c, ok := p.PopLocal(); ok {
		t.Fatalf("ring still holds RID %d after draining", c.RID)
	}
}

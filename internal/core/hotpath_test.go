package core_test

import (
	"testing"
	"time"

	"photon/internal/bench"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/trace"
)

// TestEagerPutAllocGuard pins the zero-allocation property of the
// eager put-with-completion fast path: after warm-up (pools primed,
// token slots and rings grown to steady state), a full put round trip
// — post, progress, harvest both completions — must average at most
// one allocation, and in practice zero. A regression here means a
// pooled buffer, token, or completion started escaping to the heap
// again.
func TestEagerPutAllocGuard(t *testing.T) {
	allocs := putRoundTripAllocs(t, core.Config{})
	t.Logf("eager put round trip: %.2f allocs/op", allocs)
	if allocs > 1 {
		t.Fatalf("eager put allocates %.2f times per op, want <= 1", allocs)
	}
}

// TestTracedPutAllocGuard is the fully-observed variant of the eager
// guard: trace ring enabled with every op sampled, so each round trip
// records the full post → link → complete → reap lifecycle — and must
// stay at zero allocations.
func TestTracedPutAllocGuard(t *testing.T) {
	ring := trace.NewRing(4096)
	ring.Enable(true)
	allocs := putRoundTripAllocs(t, core.Config{Trace: ring})
	t.Logf("traced put round trip: %.2f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("traced put allocates %.2f times per op, want 0", allocs)
	}
	if countKind(ring, trace.KindPost) == 0 {
		t.Fatal("trace ring recorded no post events — tracing was not active")
	}
}

// putRoundTripAllocs warms a loopback engine built from cfg with 100
// eager put round trips, then returns the average allocations of one
// more.
func putRoundTripAllocs(t *testing.T, cfg core.Config) float64 {
	t.Helper()
	p, dst := loopEnv(t, cfg)
	payload := make([]byte, 8)
	put := func() {
		for {
			err := p.PutWithCompletion(0, payload, dst, 0, 1, 2)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				t.Fatal(err)
			}
			p.Progress()
		}
		drainPair(t, p)
	}
	for i := 0; i < 100; i++ {
		put()
	}
	return testing.AllocsPerRun(200, put)
}

// TestWaitAllocGuard pins the blocking waits' own cost: WaitLocal and
// WaitRemote run the shared wait loop on stack scratch, so waiting for
// a put's two completions allocates nothing.
func TestWaitAllocGuard(t *testing.T) {
	p, dst := loopEnv(t, core.Config{})
	payload := make([]byte, 8)
	put := func() {
		if err := p.PutBlocking(0, payload, dst, 0, 1, 2); err != nil {
			t.Fatal(err)
		}
		if c, err := p.WaitLocal(1, waitT); err != nil || c.Err != nil {
			t.Fatal(err, c.Err)
		}
		if c, err := p.WaitRemote(2, waitT); err != nil || c.Err != nil {
			t.Fatal(err, c.Err)
		}
	}
	for i := 0; i < 100; i++ {
		put()
	}
	if allocs := testing.AllocsPerRun(200, put); allocs > 0 {
		t.Fatalf("put + WaitLocal + WaitRemote allocates %.2f times per op, want 0", allocs)
	}
}

// TestParkedWaitAllocGuard is TestWaitAllocGuard with waits that
// park: a 2-rank vsim ping-pong of 8 B puts, rank 1 WaitRemote then
// PutBlocking back. Each side spins for a while before its put, so
// the other side's WaitRemote has certainly gone dry and parked: every
// round trip parks rank 0 on the pong and rank 1 on the ping. Loopback
// never parks; here every park takes a notifier subscription and a
// park timer, and both must come from the notifier's free lists — a
// fresh timer per parked wait was 6 allocations per round trip.
func TestParkedWaitAllocGuard(t *testing.T) {
	env, err := bench.NewPhotonOnly(2, fabric.Model{}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	_, descs, _, err := env.SharedBuffers(64)
	if err != nil {
		t.Fatal(err)
	}
	const (
		warm = 100
		runs = 200
		rid  = 7
	)
	p0, p1 := env.Phs[0], env.Phs[1]
	dally := func() {
		for start := time.Now(); time.Since(start) < 50*time.Microsecond; {
		}
	}
	payload := make([]byte, 8)
	echoed := make(chan error, 1)
	go func() {
		// AllocsPerRun makes one extra, unmeasured call.
		for i := 0; i < warm+runs+1; i++ {
			if _, err := p1.WaitRemote(rid, waitT); err != nil {
				echoed <- err
				return
			}
			dally()
			if err := p1.PutBlocking(0, payload, descs[1][0], 0, 0, rid); err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	roundTrip := func() {
		dally()
		if err := p0.PutBlocking(1, payload, descs[0][1], 0, 0, rid); err != nil {
			t.Fatal(err)
		}
		if _, err := p0.WaitRemote(rid, waitT); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(runs, roundTrip)
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	t.Logf("parked put ping-pong: %.2f allocs/round trip", allocs)
	if allocs > 0 {
		t.Fatalf("parked put ping-pong allocates %.2f times per round trip, want 0", allocs)
	}
}

// TestStaleTokenRejected scripts the backend completion stream to
// deliver late, duplicate, and fabricated completions, and checks the
// generation-tagged token table accepts each token exactly once.
func TestStaleTokenRejected(t *testing.T) {
	lb := newLoopBackend()
	p, err := core.Init(lb, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf := make([]byte, 1<<16)
	rb, _, err := p.RegisterBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	descs, err := p.ExchangeBuffers(rb)
	if err != nil {
		t.Fatal(err)
	}
	dst := descs[0]

	// Intercept signaled tokens: the backend applies writes but the
	// test decides when (and how often) their completions arrive.
	lb.captureTokens = true

	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := p.PutWithCompletion(0, payload, dst, 0, 41, 42); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Progress()
	}
	// The packed entry was applied, so the remote-side completion is
	// deliverable; the local completion still waits on the backend.
	if _, ok := p.Probe(core.ProbeRemote); !ok {
		t.Fatal("remote completion not delivered")
	}
	if _, ok := p.Probe(core.ProbeLocal); ok {
		t.Fatal("local completion delivered before backend completion")
	}
	if len(lb.tokens) != 1 {
		t.Fatalf("captured %d signaled tokens, want 1", len(lb.tokens))
	}
	tok := lb.tokens[0]

	// A completion for a token that was never issued (wrong
	// generation) must be dropped, not matched to the pending op.
	lb.inject(core.BackendCompletion{Token: tok + (1 << 32), OK: true})
	p.Progress()
	if _, ok := p.Probe(core.ProbeLocal); ok {
		t.Fatal("fabricated token produced a completion")
	}

	// The real (late) completion lands once.
	lb.inject(core.BackendCompletion{Token: tok, OK: true})
	p.Progress()
	c, ok := p.Probe(core.ProbeLocal)
	if !ok {
		t.Fatal("late completion not delivered")
	}
	if c.Err != nil || c.RID != 41 {
		t.Fatalf("bad completion: %+v", c)
	}

	// A duplicate delivery of the same token hits a recycled slot with
	// a bumped generation and must be rejected.
	lb.inject(core.BackendCompletion{Token: tok, OK: true})
	for i := 0; i < 10; i++ {
		p.Progress()
	}
	if _, ok := p.Probe(core.ProbeAny); ok {
		t.Fatal("duplicate token produced a second completion")
	}

	// The table stays healthy: a fresh op issues, completes, matches.
	lb.captureTokens = false
	lb.tokens = nil
	if err := p.PutWithCompletion(0, payload, dst, 64, 43, 44); err != nil {
		t.Fatal(err)
	}
	drainPair(t, p)
	if got := string(buf[64:72]); got != string(payload) {
		t.Fatalf("payload not applied after recovery: %x", got)
	}
}

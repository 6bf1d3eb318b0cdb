package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/bench"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
	"photon/internal/trace"
)

// countKind counts the ring's retained events of one kind.
func countKind(ring *trace.Ring, kind trace.Kind) int {
	n := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// obsConfig wires a private enabled trace ring and metrics into a
// config, so each test observes exactly one instance.
func obsConfig() (core.Config, *trace.Ring) {
	ring := trace.NewRing(8192)
	ring.Enable(true)
	return core.Config{Trace: ring, Metrics: true}, ring
}

// drainSelf pumps progress on a single-rank instance until one local
// and one remote completion are harvested.
func drainSelf(t *testing.T, p *core.Photon, wantRemote bool) {
	t.Helper()
	gotL, gotR := false, !wantRemote
	for i := 0; i < 1_000_000 && (!gotL || !gotR); i++ {
		p.Progress()
		if c, ok := p.Probe(core.ProbeAny); ok {
			if c.Err != nil {
				t.Fatal(c.Err)
			}
			if c.Local {
				gotL = true
			} else {
				gotR = true
			}
		}
	}
	if !gotL || !gotR {
		t.Fatalf("completions not harvested: local=%v remote=%v", gotL, gotR)
	}
}

// TestTraceRIDCorrelationLoopback drives one eager put, one rendezvous
// send, and one fetch-add through a single-rank loopback instance and
// asserts every initiator post event in the trace has a matching
// delivery event with the same RID: a ledger event for ops that land a
// ledger entry at the target (eager put, rendezvous RTS), a
// backend-complete event for ops whose result returns to the initiator
// (fetch-add).
func TestTraceRIDCorrelationLoopback(t *testing.T) {
	cfg, ring := obsConfig()
	p, err := core.Init(newLoopBackend(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	buf := make([]byte, 1<<20)
	rb, _, err := p.RegisterBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	descs, err := p.ExchangeBuffers(rb)
	if err != nil {
		t.Fatal(err)
	}
	dst := descs[0]

	// Eager put.
	if err := p.PutWithCompletion(0, []byte("observable"), dst, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	drainSelf(t, p, true)

	// Rendezvous send (payload above the eager threshold).
	big := make([]byte, p.EagerThreshold()*4)
	for i := range big {
		big[i] = byte(i)
	}
	if err := p.Send(0, big, 3, 4); err != nil {
		t.Fatal(err)
	}
	drainSelf(t, p, true)

	// Fetch-add (local completion only).
	if err := p.FetchAdd(0, dst, 64, 7, 5); err != nil {
		t.Fatal(err)
	}
	drainSelf(t, p, false)

	evs := ring.Snapshot()
	delivered := map[uint64]bool{}
	for _, e := range evs {
		if e.Kind == trace.KindLedger || e.Kind == trace.KindLink || e.Kind == trace.KindComplete {
			delivered[e.Arg] = true
		}
	}
	posts := 0
	for _, e := range evs {
		if e.Kind != trace.KindPost {
			continue
		}
		posts++
		if !delivered[e.Arg] {
			t.Errorf("post event %q rid=%d has no matching delivery event", e.Msg, e.Arg)
		}
	}
	if posts < 3 {
		t.Fatalf("only %d post events traced, want >= 3 (put, send, atomic)", posts)
	}
	// Reap events close the lifecycle: app-side harvest must be traced.
	if n := countKind(ring, trace.KindReap); n == 0 {
		t.Fatal("no reap events traced")
	}
}

// assertOpLatencies drives a put, an eager send, and a fetch-add from
// rank 0 to rank 1 and asserts the initiator's metrics snapshot holds
// non-zero post→initiator and post→remote-delivery histograms for all
// three op kinds.
func assertOpLatencies(t *testing.T, phs []*core.Photon) {
	t.Helper()
	target := make([]byte, 4096)
	descs, _ := registerAndShare(t, phs, 1, target)

	// Eager put.
	if err := phs[0].PutWithCompletion(1, []byte("metered"), descs[1], 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(1, waitT); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(2, waitT); err != nil {
		t.Fatal(err)
	}

	// Eager send.
	msg := []byte("metered send")
	if err := phs[0].Send(1, msg, 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(3, waitT); err != nil {
		t.Fatal(err)
	}
	rc, err := phs[1].WaitRemote(4, waitT)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rc.Data, msg) {
		t.Fatalf("send delivered %q", rc.Data)
	}

	// Fetch-add.
	if err := phs[0].FetchAdd(1, descs[1], 128, 9, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(5, waitT); err != nil {
		t.Fatal(err)
	}

	snap := phs[0].Metrics()
	byName := map[string]int64{}
	for i := range snap.Hists {
		byName[snap.Hists[i].Name] = snap.Hists[i].Hist.N()
	}
	for _, name := range []string{
		"put/initiator", "put/remote",
		"send/initiator", "send/remote",
		"atomic/initiator", "atomic/remote",
	} {
		if byName[name] == 0 {
			t.Errorf("histogram %q empty, want non-zero (snapshot: %v)", name, byName)
		}
	}
	// Progress-phase timing must accumulate on the driving rank. Phase
	// observations are 1-in-64 round samples, so pump puts until a
	// sampled round coincides with backend work (bounded: ~64 samples'
	// worth of traffic before declaring failure).
	reapSeen := func() bool {
		s := phs[0].Metrics()
		for i := range s.Hists {
			if s.Hists[i].Name == "progress/reap" && s.Hists[i].Hist.N() > 0 {
				return true
			}
		}
		return false
	}
	for i := 0; i < 4096 && !reapSeen(); i++ {
		rid := uint64(100 + 2*i)
		if err := phs[0].PutWithCompletion(1, []byte{1}, descs[1], 0, rid, rid+1); err != nil {
			t.Fatal(err)
		}
		if _, err := phs[0].WaitLocal(rid, waitT); err != nil {
			t.Fatal(err)
		}
		if _, err := phs[1].WaitRemote(rid+1, waitT); err != nil {
			t.Fatal(err)
		}
	}
	if !reapSeen() {
		t.Errorf("progress/reap histogram empty after sustained traffic")
	}
	// Engine gauges ride along even without traffic-specific state.
	if _, ok := snap.Gauges["local_cq_highwater"]; !ok {
		t.Errorf("local_cq_highwater gauge missing")
	}
	if _, ok := snap.Gauges[fmt.Sprintf("peer%d_entries_consumed", 1)]; !ok {
		t.Errorf("per-peer gauge missing")
	}
}

// TestMetricsLatenciesVsim exercises the metrics plane end to end over
// the simulated-verbs backend.
func TestMetricsLatenciesVsim(t *testing.T) {
	phs := newJob(t, 2, core.Config{Metrics: true})
	assertOpLatencies(t, phs)
}

// TestMetricsLatenciesTCP exercises the same path over the real-socket
// TCP backend.
func TestMetricsLatenciesTCP(t *testing.T) {
	phs, cleanup, err := bench.NewTCPPhotons(2, core.Config{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	assertOpLatencies(t, phs)
}

// TestRendezvousSendLatencyClosesAtFIN checks the rendezvous send
// latency distribution is closed by the FIN (both stages) rather than
// by the local RTS write completing.
func TestRendezvousSendLatencyClosesAtFIN(t *testing.T) {
	phs := newJob(t, 2, core.Config{Metrics: true})
	target := make([]byte, 4096)
	registerAndShare(t, phs, 1, target)

	big := make([]byte, 64*1024)
	if err := phs[0].Send(1, big, 1, 2); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := phs[1].WaitRemote(2, waitT); err != nil {
			t.Error(err)
		}
	}()
	if _, err := phs[0].WaitLocal(1, waitT); err != nil {
		t.Fatal(err)
	}
	<-done

	snap := phs[0].Metrics()
	for i := range snap.Hists {
		h := &snap.Hists[i]
		if h.Name == "send/remote" && h.Hist.N() > 0 {
			return
		}
	}
	t.Fatal("rendezvous send did not close a send/remote observation at FIN")
}

// TestObsDisabledAllocGuard pins the "free when off" property: with
// the full observability plane compiled in — a trace ring attached but
// disabled, metrics off — the eager put round trip must stay at zero
// allocations, matching the PR-1 fast-path guarantee.
func TestObsDisabledAllocGuard(t *testing.T) {
	ring := trace.NewRing(1024) // attached, never enabled
	p, dst := loopEnv(t, core.Config{Trace: ring})
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
	allocs := testing.AllocsPerRun(200, put)
	t.Logf("eager put with observability attached but disabled: %.2f allocs/op", allocs)
	if allocs > 0 {
		t.Fatalf("disabled observability allocates %.2f times per op, want 0", allocs)
	}
	if ring.Len() != 0 {
		t.Fatalf("disabled ring recorded %d events", ring.Len())
	}
}

// TestMergedTraceAcrossPeers is the cluster-tracing acceptance test: a
// 4-rank vsim job where every rank records into its own private ring,
// one sampled put flows rank 0 → rank 2, and the four rings are
// stitched (with per-peer clock offsets, identically zero under vsim)
// into one merged Chrome trace. The merged timeline must carry the
// causal chain across the two rings: rank 0's post, rank 2's
// wire-context link event naming rank 0 as origin, and the flow
// begin/step/finish events connecting them.
func TestMergedTraceAcrossPeers(t *testing.T) {
	const n = 4
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	rings := make([]*trace.Ring, n)
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		rings[r] = trace.NewRing(4096)
		rings[r].Enable(true)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			phs[r], errs[r] = core.Init(cl.Backend(r), core.Config{Trace: rings[r]})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", r, err)
		}
	}
	for _, p := range phs {
		defer p.Close()
	}
	buf := make([]byte, 256)
	descs, _ := registerAndShare(t, phs, 2, buf)

	// Post without driving rank 0's progress, harvest the remote side
	// first, then reap locally — so the merged timeline orders
	// post → remote link → local complete and the chain resolves.
	if err := phs[0].PutWithCompletion(2, []byte("traced"), descs[2], 0, 7, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[2].WaitRemote(9, waitT); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitLocal(7, waitT); err != nil {
		t.Fatal(err)
	}

	// The target ring must hold a span-link event naming the true
	// origin (rank 0) with its post timestamp from the wire context.
	linked := false
	for _, ev := range rings[2].Snapshot() {
		if ev.Kind == trace.KindLink && ev.Peer == 0 && ev.PeerNS != 0 {
			linked = true
			break
		}
	}
	if !linked {
		t.Fatal("rank 2 ring has no KindLink event carrying rank 0's wire trace context")
	}

	dumps := make([]trace.PeerDump, n)
	for r := 0; r < n; r++ {
		off, _, ok := phs[0].PeerClockOffset(r)
		if !ok {
			t.Fatalf("no clock offset for rank %d", r)
		}
		dumps[r] = trace.PeerDump{Rank: r, OffsetNS: off, Events: rings[r].Snapshot()}
	}
	var out bytes.Buffer
	if err := trace.WriteChromeJSONMerged(&out, dumps); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		`"ph": "s"`,       // flow begin at rank 0's post
		`"ph": "t"`,       // flow step at rank 2's remote apply
		`"ph": "f"`,       // flow finish back at rank 0's completion
		`"wire_delay_ns"`, // link instant annotated with wire latency
		`"rank 0"`,        // per-rank process naming
		`"rank 2"`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("merged trace missing %s:\n%s", want, got)
		}
	}
}

// TestMetricsConcurrentWithTraffic hammers Metrics() from a dedicated
// goroutine while puts flow into a rank driven by a separate Progress
// goroutine. The per-peer gauge section walks engine- and peer-mutex
// state, so a snapshot during live traffic must be race-free (this
// test runs under -race in CI). The engine's aggregate reap and sweep
// gauges must be exported and count the traffic.
func TestMetricsConcurrentWithTraffic(t *testing.T) {
	ring := trace.NewRing(4096)
	ring.Enable(true)
	phs := newJob(t, 3, core.Config{Metrics: true, Trace: ring})
	buf := make([]byte, 4096)
	descs, _ := registerAndShare(t, phs, 0, buf)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			phs[0].Progress()
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := phs[0].Metrics()
			if _, ok := snap.Gauges["engine_reaps"]; !ok {
				t.Error("engine_reaps gauge missing from concurrent snapshot")
				return
			}
		}
	}()

	const perSrc = 40
	for src := 1; src <= 2; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < perSrc; i++ {
				rid := uint64(src*1000 + i)
				if err := phs[src].PutBlocking(0, []byte{byte(src)}, descs[0], uint64(src), rid, rid+500); err != nil {
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
	// The target swept every delivery in; each source reaped its own
	// signaled puts' backend completions.
	for _, g := range []struct {
		rank int
		name string
	}{{0, "engine_sweeps"}, {1, "engine_reaps"}, {2, "engine_reaps"}} {
		if v, ok := phs[g.rank].Metrics().Gauges[g.name]; !ok || v <= 0 {
			t.Errorf("rank %d %s = %d ok=%v, want > 0", g.rank, g.name, v, ok)
		}
	}
}

// TestTraceSampling checks TraceSampleShift thins op posts: with a
// shift of 2 only ~1/4 of ops are stamped.
func TestTraceSampling(t *testing.T) {
	ring := trace.NewRing(8192)
	ring.Enable(true)
	p, dst := loopEnv(t, core.Config{Trace: ring, TraceSampleShift: 2})
	payload := make([]byte, 8)
	const ops = 256
	for i := 0; i < ops; i++ {
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
	posts := countKind(ring, trace.KindPost)
	if posts == 0 || posts > ops/2 {
		t.Fatalf("sampled posts = %d, want ~%d (shift 2 over %d ops)", posts, ops/4, ops)
	}
}

// snake converts a Go field name to its gauge name: PutsDirect →
// puts_direct.
func snake(name string) string {
	var b strings.Builder
	for i, r := range name {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				b.WriteByte('_')
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// TestCountersNamedOnce checks that Stats, Metrics and the flight
// recorder report one set of engine counters: after traffic of every
// op kind and a killed peer, every Stats field's value appears in the
// Metrics gauges under its snake_case name, and the flight record's
// gauges use those same names.
func TestCountersNamedOnce(t *testing.T) {
	phs, _, cleanup, err := bench.NewTCPPhotonsFT(2, core.Config{
		OpTimeout:         300 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		Metrics:           true,
		FlightRecords:     8,
	}, func(c *tcp.Config) {
		c.ReconnectWindow = 150 * time.Millisecond
		c.ReconnectBackoff = 10 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	_, descs, _, err := bench.ShareBuffers(phs, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]byte, 16<<10)
	rid := uint64(1)
	waitLocal := func() {
		t.Helper()
		if _, err := phs[0].WaitLocal(rid, waitT); err != nil {
			t.Fatal(err)
		}
		rid++
	}
	for _, size := range []int{8, len(local)} { // packed, then direct put
		if err := phs[0].PutWithCompletion(1, local[:size], descs[0][1], 0, rid, rid); err != nil {
			t.Fatal(err)
		}
		if _, err := phs[1].WaitRemote(rid, waitT); err != nil {
			t.Fatal(err)
		}
		waitLocal()
	}
	if err := phs[0].GetWithCompletion(1, local[:64], descs[0][1], 0, rid, 0); err != nil {
		t.Fatal(err)
	}
	waitLocal()
	if err := phs[0].FetchAdd(1, descs[0][1], 0, 1, rid); err != nil {
		t.Fatal(err)
	}
	waitLocal()
	if err := phs[0].Send(1, local, rid, rid); err != nil { // rendezvous
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := phs[1].WaitRemote(rid, waitT); done <- err }()
	waitLocal()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	phs[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for phs[0].PeerHealthState(1) != core.PeerDown {
		if time.Now().After(deadline) {
			t.Fatalf("peer never latched down: %v", phs[0].PeerHealthState(1))
		}
		phs[0].Progress()
		time.Sleep(time.Millisecond)
	}

	st := phs[0].Stats()
	gauges := phs[0].Metrics().Gauges
	if again := phs[0].Stats(); again != st {
		t.Fatalf("engine counters moved while idle: %+v -> %+v", st, again)
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		name := snake(v.Type().Field(i).Name)
		got, ok := gauges[name]
		if !ok {
			t.Errorf("Metrics has no gauge %q for Stats.%s", name, v.Type().Field(i).Name)
		} else if want := v.Field(i).Int(); got != want {
			t.Errorf("gauge %s = %d, Stats.%s = %d", name, got, v.Type().Field(i).Name, want)
		}
	}
	for _, name := range []string{"puts_direct", "puts_packed", "gets", "atomics", "rdzv_sends"} {
		if gauges[name] == 0 {
			t.Errorf("gauge %s = 0 after traffic that exercises it", name)
		}
	}
	if gauges["peers_down"] != 1 {
		t.Errorf("peers_down = %d, want 1", gauges["peers_down"])
	}

	recs := phs[0].FlightRecorder().Records()
	if len(recs) == 0 {
		t.Fatal("peer down left no flight record")
	}
	rec := recs[len(recs)-1]
	for name := range rec.Gauges {
		if _, ok := gauges[name]; !ok {
			t.Errorf("flight record gauge %q is not a Metrics gauge", name)
		}
	}
	for i := 0; i < v.NumField(); i++ {
		if name := snake(v.Type().Field(i).Name); !hasKey(rec.Gauges, name) {
			t.Errorf("flight record lacks counter %q", name)
		}
	}
	for _, name := range []string{"peers_down", "peer_suspect_transitions", "ops_timed_out", "engine_reaps", "local_cq_highwater"} {
		if !hasKey(rec.Gauges, name) {
			t.Errorf("flight record lacks counter %q", name)
		}
	}
}

func hasKey(m map[string]int64, k string) bool {
	_, ok := m[k]
	return ok
}

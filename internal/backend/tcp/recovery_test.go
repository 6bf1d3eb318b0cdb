package tcp_test

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/tcp"
	"photon/internal/core"
	"photon/internal/flight"
	"photon/internal/trace"
)

// newFTJob boots n ranks like newTCPJob but exposes the backends (for
// Sever/stats) and lets the test tune the transport's recovery knobs.
func newFTJob(t *testing.T, n int, cfg core.Config, tune func(*tcp.Config)) ([]*tcp.Backend, []*core.Photon) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	bes := make([]*tcp.Backend, n)
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tc := tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]}
			if tune != nil {
				tune(&tc)
			}
			be, err := tcp.New(tc)
			if err != nil {
				errs[r] = err
				return
			}
			bes[r] = be
			phs[r], errs[r] = core.Init(be, cfg)
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, p := range phs {
			if p != nil {
				p.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return bes, phs
}

// ridPayload builds a self-describing payload so the receiver can
// detect any corruption or cross-wiring of RIDs.
func ridPayload(i uint64) []byte {
	p := make([]byte, 9)
	binary.LittleEndian.PutUint64(p, i)
	p[8] = byte(i * 7)
	return p
}

func checkRIDPayload(t *testing.T, rid uint64, data []byte) {
	t.Helper()
	if len(data) != 9 || binary.LittleEndian.Uint64(data) != rid || data[8] != byte(rid*7) {
		t.Fatalf("corrupted payload for RID %d: %v", rid, data)
	}
}

// TestTCPClockOffsetEstimated checks the heartbeat-piggybacked clock
// sync: with heartbeats armed, both ranks converge on an offset
// estimate for each other. The two ranks share one process clock, so
// the estimate must land near zero with a positive RTT behind it.
func TestTCPClockOffsetEstimated(t *testing.T) {
	_, phs := newFTJob(t, 2, core.Config{HeartbeatInterval: 10 * time.Millisecond}, nil)
	deadline := time.Now().Add(waitT)
	for {
		phs[0].Progress()
		phs[1].Progress()
		off, rtt, ok := phs[0].PeerClockOffset(1)
		if ok {
			if rtt <= 0 {
				t.Fatalf("clock sample has non-positive RTT %d", rtt)
			}
			// Same host, same process: the loopback offset estimate
			// must be far below a second (it is typically < 1ms).
			if off > int64(time.Second) || off < -int64(time.Second) {
				t.Fatalf("loopback clock offset %dns implausibly large", off)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no clock offset estimate after heartbeat exchange")
		}
		time.Sleep(time.Millisecond)
	}
	// The self estimate is trivially synchronized.
	if off, rtt, ok := phs[0].PeerClockOffset(0); !ok || off != 0 || rtt != 0 {
		t.Fatalf("self clock offset = (%d, %d, %v), want (0, 0, true)", off, rtt, ok)
	}
}

// The PR's acceptance test: sever the live connection twice in the
// middle of a signaled burst. Every send must complete exactly once —
// the receiver harvests RIDs 1..n strictly in order with intact
// payloads and nothing extra — because the send window retransmits
// everything above the peer's handshake-reported cumAck and nothing
// below it.
func TestTCPSeverMidBurstRecovers(t *testing.T) {
	bes, phs := newFTJob(t, 2, core.Config{LedgerSlots: 128}, func(c *tcp.Config) {
		c.ReconnectBackoff = 2 * time.Millisecond
		c.ReconnectWindow = 10 * time.Second
	})
	const n = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= n; i++ {
			rc, err := phs[1].WaitRemote(i, waitT)
			if err != nil {
				t.Errorf("RID %d never delivered: %v", i, err)
				return
			}
			if len(rc.Data) != 9 || binary.LittleEndian.Uint64(rc.Data) != i || rc.Data[8] != byte(i*7) {
				t.Errorf("corrupted payload for RID %d: %v", i, rc.Data)
				return
			}
		}
	}()
	for i := uint64(1); i <= n; i++ {
		if i == n/4 || i == 3*n/4 {
			bes[0].Sever(1) // kill the live socket mid-burst
		}
		for {
			err := phs[0].Send(1, ridPayload(i), i, i)
			if err == nil {
				break
			}
			if errors.Is(err, core.ErrWouldBlock) {
				phs[0].Progress()
				continue
			}
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := uint64(1); i <= n; i++ {
		c, err := phs[0].WaitLocal(i, waitT)
		if err != nil {
			t.Fatalf("send %d local completion wedged: %v", i, err)
		}
		if c.Err != nil {
			t.Fatalf("send %d failed: %v (peer was only severed, not killed)", i, c.Err)
		}
	}
	wg.Wait()
	// Exactly once: nothing may trail in after the full sequence.
	for k := 0; k < 200; k++ {
		phs[1].Progress()
		if c, ok := phs[1].PopRemote(); ok {
			t.Fatalf("duplicate delivery after complete burst: RID %d", c.RID)
		}
	}
	if bes[0].Stats().Reconnects == 0 {
		t.Fatal("sever did not force a reconnect; test drove nothing")
	}
}

// A permanently dead peer must not strand anyone: waiters resolve with
// ErrPeerDown or ErrTimeout within the deadline bound, fresh posts
// fail fast once the down state latches, and the engine's health view
// reports PeerDown.
func TestTCPPeerKillSurfacesPeerDown(t *testing.T) {
	bes, phs := newFTJob(t, 2, core.Config{
		OpTimeout:         400 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	}, func(c *tcp.Config) {
		c.ReconnectWindow = 150 * time.Millisecond
		c.ReconnectBackoff = 10 * time.Millisecond
	})
	for i := uint64(1); i <= 4; i++ {
		_ = phs[0].Send(1, ridPayload(i), i, i)
	}
	phs[1].Close() // peer dies for good: listener and socket both gone
	start := time.Now()
	for i := uint64(1); i <= 4; i++ {
		c, err := phs[0].WaitLocal(i, 4*time.Second)
		if err != nil {
			t.Fatalf("waiter %d wedged after peer death: %v", i, err)
		}
		if c.Err != nil && !errors.Is(c.Err, core.ErrPeerDown) && !errors.Is(c.Err, core.ErrTimeout) {
			t.Fatalf("waiter %d: unexpected error %v", i, c.Err)
		}
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("waiters took %v to resolve, want within the 2×OpTimeout bound (plus reconnect window)", el)
	}
	// The transport latches the peer down once the reconnect window
	// expires; posts then fail fast instead of queueing into the void.
	deadline := time.Now().Add(5 * time.Second)
	for bes[0].PeerHealth(1) != core.PeerDown {
		if time.Now().After(deadline) {
			t.Fatal("transport never declared the dead peer down")
		}
		phs[0].Progress()
		time.Sleep(time.Millisecond)
	}
	if err := phs[0].Send(1, ridPayload(99), 99, 99); err != nil {
		if !errors.Is(err, core.ErrPeerDown) {
			t.Fatalf("post to dead peer: %v, want ErrPeerDown", err)
		}
	} else {
		c, werr := phs[0].WaitLocal(99, 4*time.Second)
		if werr != nil {
			t.Fatalf("post to dead peer never resolved: %v", werr)
		}
		if c.Err == nil {
			t.Fatal("post to dead peer completed OK")
		}
	}
	for phs[0].PeerHealthState(1) != core.PeerDown {
		if time.Now().After(deadline) {
			t.Fatalf("engine health never latched PeerDown: %v", phs[0].PeerHealthState(1))
		}
		phs[0].Progress()
		time.Sleep(time.Millisecond)
	}
}

// A chaos-grade peer death with the flight recorder armed must leave a
// non-empty black box: at least the terminal →down record, carrying
// trace events, the health table, and transport gauges — and the JSON
// dump must render it all.
func TestFlightRecorderCapturesPeerDown(t *testing.T) {
	ring := trace.NewRing(512)
	ring.Enable(true)
	_, phs := newFTJob(t, 2, core.Config{
		OpTimeout:         300 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		Trace:             ring,
		Metrics:           true,
		FlightRecords:     8,
	}, func(c *tcp.Config) {
		c.ReconnectWindow = 150 * time.Millisecond
		c.ReconnectBackoff = 10 * time.Millisecond
	})
	fr := phs[0].FlightRecorder()
	if fr == nil {
		t.Fatal("FlightRecords > 0 but FlightRecorder() is nil")
	}
	var hooked atomic.Int64
	fr.SetHook(func(flight.Record) { hooked.Add(1) })

	// Some traffic so the black box has events and histograms to show.
	for i := uint64(1); i <= 8; i++ {
		_ = phs[0].Send(1, ridPayload(i), i, i)
	}
	phs[0].Progress()
	phs[1].Close() // peer dies for good

	deadline := time.Now().Add(5 * time.Second)
	for phs[0].PeerHealthState(1) != core.PeerDown {
		if time.Now().After(deadline) {
			t.Fatalf("peer never latched down: %v", phs[0].PeerHealthState(1))
		}
		phs[0].Progress()
		time.Sleep(time.Millisecond)
	}

	recs := fr.Records()
	if len(recs) == 0 {
		t.Fatal("peer down produced an empty flight recorder")
	}
	if hooked.Load() != int64(len(recs)) {
		t.Fatalf("hook fired %d times for %d records", hooked.Load(), len(recs))
	}
	last := recs[len(recs)-1]
	if last.To != "down" || last.Peer != 1 {
		t.Fatalf("last record is %s→%s for peer %d, want →down for peer 1",
			last.From, last.To, last.Peer)
	}
	if len(last.Events) == 0 {
		t.Fatal("down record carries no trace events")
	}
	if len(last.Health) != 1 || last.Health[0].State != "down" || last.Health[0].LastTransitionNS == 0 {
		t.Fatalf("down record health table wrong: %+v", last.Health)
	}
	if _, ok := last.Gauges["tcp_reconnects"]; !ok {
		t.Fatalf("down record missing transport gauges: %v", last.Gauges)
	}
	if phs[0].PeerLastTransitionNS(1) == 0 {
		t.Fatal("PeerLastTransitionNS not stamped")
	}

	var b strings.Builder
	if err := phs[0].FlightDump(&b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	for _, want := range []string{`"to": "down"`, `"events"`, `"tcp_reconnects"`} {
		if !strings.Contains(dump, want) {
			t.Fatalf("flight dump missing %q:\n%s", want, dump)
		}
	}
}

// An idle but healthy link must stay healthy: heartbeats flow while no
// data does, so the suspect threshold is never crossed.
func TestTCPHeartbeatsKeepIdleLinkHealthy(t *testing.T) {
	bes, phs := newFTJob(t, 2, core.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      60 * time.Millisecond,
	}, nil)
	// Idle for many suspect windows, pumping progress so the engine's
	// health poll runs.
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		phs[0].Progress()
		phs[1].Progress()
		if h := phs[0].PeerHealthState(1); h != core.PeerHealthy {
			t.Fatalf("idle heartbeated link degraded to %v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if bes[0].Stats().Heartbeats == 0 && bes[1].Stats().Heartbeats == 0 {
		t.Fatal("no heartbeats sent on an idle link")
	}
}

// Concurrent posters racing Close must get ErrClosed (or survive the
// race cleanly) — never a send-on-closed-channel panic. This drives
// the backend directly so the posts hit the gather writer's queue with
// no engine serialization in front.
func TestTCPCloseRaceReturnsErrClosed(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	bes := make([]*tcp.Backend, 2)
	errs := make([]error, 2)
	var bwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		bwg.Add(1)
		go func(r int) {
			defer bwg.Done()
			bes[r], errs[r] = tcp.New(tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]})
		}(r)
	}
	bwg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer bes[1].Close()
	target := make([]byte, 4096)
	rb, _, err := bes[1].Register(target)
	if err != nil {
		t.Fatal(err)
	}
	var unexpected atomic.Value
	var wg sync.WaitGroup
	payload := []byte{1, 2, 3, 4}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]core.BackendCompletion, 16)
			for {
				err := bes[0].PostWrite(1, payload, rb.Addr, rb.RKey, 0, false)
				switch {
				case err == nil:
					continue
				case errors.Is(err, core.ErrClosed):
					return
				case errors.Is(err, core.ErrWouldBlock):
					bes[0].Poll(scratch)
					runtime.Gosched()
					continue
				default:
					unexpected.Store(err)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the posters reach steady state
	bes[0].Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("posters wedged after Close")
	}
	if err := unexpected.Load(); err != nil {
		t.Fatalf("poster got %v, want only ErrClosed/ErrWouldBlock", err)
	}
	if err := bes[0].PostWrite(1, payload, rb.Addr, rb.RKey, 0, false); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("post after Close: %v, want ErrClosed", err)
	}
}

// Every failure-path counter, and the data-path counters next to them,
// must surface as a gauge in Photon.Metrics(); the per-peer view
// (PeerStats) must attribute the reconnect to the severed link. The job
// is chaos-wrapped over real TCP so one run exercises all of them: idle
// heartbeats, a severed link forcing a reconnect (and usually
// retransmits), and a partition forcing the OpTimeout sweep.
func TestFailureMetricsExported(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	cfg := core.Config{
		Metrics:           true,
		OpTimeout:         100 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
	}
	phs := make([]*core.Photon, 2)
	errs := make([]error, 2)
	var cb *chaos.Backend
	var tb *tcp.Backend
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			be, err := tcp.New(tcp.Config{
				Rank: r, Addrs: addrs, Listener: lns[r],
				ReconnectBackoff: 2 * time.Millisecond,
			})
			if err != nil {
				errs[r] = err
				return
			}
			if r == 0 {
				tb = be
				cb = chaos.Wrap(be, chaos.Plan{Seed: 3})
				phs[r], errs[r] = core.Init(cb, cfg)
			} else {
				phs[r], errs[r] = core.Init(be, cfg)
			}
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, p := range phs {
			if p != nil {
				p.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Heartbeats: idle past several intervals.
	time.Sleep(60 * time.Millisecond)
	// Reconnect: sever the live socket, then prove traffic recovered.
	tb.Sever(1)
	for i := uint64(1); i <= 4; i++ {
		for {
			err := phs[0].Send(1, ridPayload(i), i, i)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrWouldBlock) {
				t.Fatalf("send %d: %v", i, err)
			}
			phs[0].Progress()
		}
	}
	for i := uint64(1); i <= 4; i++ {
		if c, err := phs[0].WaitLocal(i, waitT); err != nil || c.Err != nil {
			t.Fatalf("send %d after sever: %v / %v", i, err, c.Err)
		}
	}
	// Timed-out op: partition at the post boundary so the transport
	// never sees the write and only the sweep can resolve the waiter.
	cb.Partition(1, true)
	if err := phs[0].Send(1, ridPayload(50), 50, 50); err != nil {
		t.Fatal(err)
	}
	if c, err := phs[0].WaitLocal(50, 4*time.Second); err != nil || !errors.Is(c.Err, core.ErrTimeout) {
		t.Fatalf("partitioned send: %v / %v, want ErrTimeout completion", err, c.Err)
	}
	snap := phs[0].Metrics()
	mustHave := []string{
		"ops_timed_out", "peer_suspect_transitions", "peers_down",
		"tcp_heartbeats", "tcp_reconnects", "tcp_retransmit_frames",
		"tcp_flushes", "tcp_frames_out", "tcp_acks_piggybacked", "tcp_acks_standalone",
		"chaos_dropped",
	}
	for _, name := range mustHave {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q missing from Metrics() snapshot", name)
		}
	}
	mustBePositive := map[string]bool{
		"ops_timed_out": true, "tcp_heartbeats": true, "tcp_reconnects": true,
		"chaos_dropped": true,
	}
	for name := range mustBePositive {
		if v := snap.Gauges[name]; v <= 0 {
			t.Errorf("gauge %q = %d, want > 0 after the induced faults", name, v)
		}
	}
	if ps := tb.PeerStats(1); ps.Reconnects < 1 || ps.Heartbeats < 1 {
		t.Errorf("per-peer stats toward rank 1 = %+v, want the reconnect and heartbeats counted there", ps)
	}
}

// The chaos harness over the real TCP transport: random drops at the
// post boundary leave holes the transport cannot see, so the engine's
// OpTimeout sweep is the only thing standing between a waiter and a
// hang. Every send must resolve; everything delivered must be intact.
func TestTCPChaosDropsResolve(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	cfg := core.Config{LedgerSlots: 64, OpTimeout: 200 * time.Millisecond}
	phs := make([]*core.Photon, 2)
	errs := make([]error, 2)
	var cb *chaos.Backend
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			be, err := tcp.New(tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]})
			if err != nil {
				errs[r] = err
				return
			}
			if r == 0 {
				cb = chaos.Wrap(be, chaos.Plan{Seed: 5, DropProb: 0.25})
				phs[r], errs[r] = core.Init(cb, cfg)
			} else {
				phs[r], errs[r] = core.Init(be, cfg)
			}
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, p := range phs {
			if p != nil {
				p.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	const n = 20
	for i := uint64(1); i <= n; i++ {
		_ = phs[0].Send(1, ridPayload(i), i, i)
		phs[0].Progress()
	}
	delivered := 0
	for i := uint64(1); i <= n; i++ {
		c, err := phs[0].WaitLocal(i, 4*time.Second)
		if err != nil {
			t.Fatalf("send %d wedged under drops: %v", i, err)
		}
		if c.Err == nil {
			delivered++
		} else if !errors.Is(c.Err, core.ErrTimeout) && !errors.Is(c.Err, core.ErrPeerDown) {
			t.Fatalf("send %d: unexpected error %v", i, c.Err)
		}
	}
	if cb.Stats().Dropped == 0 {
		t.Fatal("plan dropped nothing over TCP; test proved nothing")
	}
	// Harvest what arrived: strictly ordered, intact.
	last := uint64(0)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		phs[1].Progress()
		c, ok := phs[1].PopRemote()
		if !ok {
			continue
		}
		if c.RID <= last {
			t.Fatalf("reordered or duplicated delivery: %d after %d", c.RID, last)
		}
		checkRIDPayload(t, c.RID, c.Data)
		last = c.RID
	}
	_ = delivered
}

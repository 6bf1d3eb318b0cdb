package tcp

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"photon/internal/core"
)

// postRetry posts one write, yielding while the send queue is full.
func postRetry(t *testing.T, be *Backend, peer int, src []byte, raddr uint64, rkey uint32, tok uint64, signaled bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		err := be.PostWrite(peer, src, raddr, rkey, tok, signaled)
		if err == nil {
			return
		}
		if err != core.ErrWouldBlock {
			t.Fatalf("post %d: %v", tok, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("post %d: send queue never drained", tok)
		}
		runtime.Gosched()
	}
}

// TestTCPUnsignaledWindowBounded streams 100 000 unsignaled writes one
// way, with no reverse traffic to carry acks. Every write is in the
// cumulative-ack sequence, and the receiver forces an ack once ackEvery
// writes pile up, so the send window never holds more than winMax
// frames. Were unsignaled writes retired only by a signaled write's
// ack, this stream would hold all 100 000.
func TestTCPUnsignaledWindowBounded(t *testing.T) {
	bes := newBackendPair(t, Config{})
	sink := make([]byte, 8)
	rb, lk, err := bes[1].Register(sink)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	var src [8]byte
	for i := uint64(1); i <= n; i++ {
		binary.LittleEndian.PutUint64(src[:], i)
		postRetry(t, bes[0], 1, src[:], rb.Addr, rb.RKey, i, false)
	}
	// Every write lands, and forced acks retire all but a tail shorter
	// than ackEvery (it leaves with the next reverse traffic).
	deadline := time.Now().Add(20 * time.Second)
	for {
		lk.Lock()
		last := binary.LittleEndian.Uint64(sink)
		lk.Unlock()
		w := bes[0].windows[1]
		w.mu.Lock()
		depth := w.ents.Len()
		w.mu.Unlock()
		if last == n && depth < ackEvery {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never settled: target holds write %d of %d, window depth %d", last, n, depth)
		}
		time.Sleep(time.Millisecond)
	}
	st := bes[0].PeerStats(1)
	t.Logf("window peak %d, standalone ack frames from the target %d", st.WindowPeak, bes[1].PeerStats(0).AckFramesSent)
	if st.WindowPeak > winMax {
		t.Fatalf("window peaked at %d frames, want <= %d", st.WindowPeak, winMax)
	}
}

// TestTCPSeverReplaysOnlyTheWindow severs the link in the middle of a
// stream of mostly unsignaled writes, each to its own slot with its own
// value. After recovery the target must hold exactly the last value
// written to every slot, and the reconnect must have replayed no more
// than the bounded window — not every unsignaled write since the last
// signaled one.
func TestTCPSeverReplaysOnlyTheWindow(t *testing.T) {
	bes := newBackendPair(t, Config{})
	const (
		slots  = 512
		n      = 20_000
		every  = 4096 // one signaled write per this many
		severN = n / 2
	)
	sink := make([]byte, slots*8)
	rb, lk, err := bes[1].Register(sink)
	if err != nil {
		t.Fatal(err)
	}
	var src [8]byte
	signaled := 0
	for i := uint64(0); i < n; i++ {
		if i == severN {
			bes[0].Sever(1)
		}
		sig := i%every == every-1 || i == n-1
		if sig {
			signaled++
		}
		binary.LittleEndian.PutUint64(src[:], i+1)
		postRetry(t, bes[0], 1, src[:], rb.Addr+(i%slots)*8, rb.RKey, i+1, sig)
	}
	for _, c := range waitComps(t, bes[0], signaled) {
		if !c.OK {
			t.Fatalf("write %d failed: %v", c.Token, c.Err)
		}
	}
	lk.Lock()
	for s := uint64(0); s < slots; s++ {
		want := s + (n-1-s)/slots*slots + 1 // the last i with i%slots == s, plus one
		if got := binary.LittleEndian.Uint64(sink[s*8:]); got != want {
			lk.Unlock()
			t.Fatalf("slot %d holds %d, want %d", s, got, want)
		}
	}
	lk.Unlock()
	st := bes[0].PeerStats(1)
	t.Logf("reconnects %d, frames replayed %d, window peak %d", st.Reconnects, st.RetransmitFrames, st.WindowPeak)
	if st.Reconnects < 1 {
		t.Fatal("sever did not force a reconnect")
	}
	if st.RetransmitFrames > st.Reconnects*winMax {
		t.Fatalf("replayed %d frames over %d reconnects, want <= %d each", st.RetransmitFrames, st.Reconnects, winMax)
	}
}

// TestTCPWriteAllocGuard pins steady-state PostWrite at zero
// allocations: the frame comes from the pool and goes back when the
// peer's cumulative ack retires it. Each round posts three unsignaled
// writes and one signaled write and waits for the signaled completion,
// so acks flow the whole time.
func TestTCPWriteAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	bes := newBackendPair(t, Config{})
	sink := make([]byte, 64)
	rb, _, err := bes[1].Register(sink)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, 8)
	comps := make([]core.BackendCompletion, 8)
	tok := uint64(0)
	round := func() {
		for i := 0; i < 4; i++ {
			tok++
			if err := bes[0].PostWrite(1, src, rb.Addr+uint64(i)*8, rb.RKey, tok, i == 3); err != nil {
				t.Fatal(err)
			}
		}
		for got := 0; got == 0; {
			got = bes[0].Poll(comps)
			if got == 0 {
				<-bes[0].Notify()
			}
		}
		if !comps[0].OK || comps[0].Token != tok {
			t.Fatalf("completion %+v, want token %d OK", comps[0], tok)
		}
	}
	for i := 0; i < 200; i++ {
		round()
	}
	perWrite := testing.AllocsPerRun(500, round) / 4
	t.Logf("tcp PostWrite: %.2f allocs per write", perWrite)
	if perWrite > 0 {
		t.Fatalf("tcp PostWrite allocates %.2f times per write, want 0", perWrite)
	}
}

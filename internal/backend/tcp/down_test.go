package tcp

import (
	"errors"
	"testing"
	"time"

	"photon/internal/core"
)

// TestQueuedWorkFailsWhenPeerGoesDown queues signaled writes and a read
// toward a peer whose connection is gone while the transport still
// redials it, then lets the reconnect window expire. Nothing queued may
// wedge: every op completes exactly once with core.ErrPeerDown (the
// queued writes from the writer's down-peer drain, the read from the
// parked result table), and posts after the latch fail fast.
func TestQueuedWorkFailsWhenPeerGoesDown(t *testing.T) {
	bes := newBackendPair(t, Config{ReconnectWindow: 300 * time.Millisecond, ReconnectBackoff: 10 * time.Millisecond})
	bes[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for bes[0].PeerHealth(1) != core.PeerRecovering {
		if time.Now().After(deadline) {
			t.Fatalf("lost connection never noticed: health %v", bes[0].PeerHealth(1))
		}
		time.Sleep(time.Millisecond)
	}
	// A first write takes the writer onto the dead socket: it lands in
	// the send window, the flush fails, and the writer parks until the
	// link is reinstalled or declared down. Everything posted after that
	// stays in the request queue.
	if err := bes[0].PostWrite(1, []byte{1}, 0x1000, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	for len(bes[0].windows[1].pending(nil)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the writer never took the first write")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	const writes = 8
	for tok := uint64(2); tok <= writes; tok++ {
		if err := bes[0].PostWrite(1, []byte{byte(tok)}, 0x1000, 1, tok, true); err != nil {
			t.Fatalf("write %d: %v", tok, err)
		}
	}
	if err := bes[0].PostRead(1, make([]byte, 8), 0x1000, 1, 100); err != nil {
		t.Fatal(err)
	}
	if n := len(bes[0].outs[1]); n != writes {
		t.Fatalf("%d items queued toward the lost peer, want %d", n, writes)
	}

	seen := make(map[uint64]int)
	buf := make([]core.BackendCompletion, 16)
	for len(seen) < writes+1 {
		n := bes[0].Poll(buf)
		for _, c := range buf[:n] {
			if c.OK || !errors.Is(c.Err, core.ErrPeerDown) {
				t.Fatalf("token %d completed %v / %v, want ErrPeerDown", c.Token, c.OK, c.Err)
			}
			seen[c.Token]++
		}
		if n == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d queued ops failed after the peer went down", len(seen), writes+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if n := bes[0].Poll(buf); n != 0 {
		t.Fatalf("%d duplicate completions after the drain", n)
	}
	for tok, k := range seen {
		if k != 1 {
			t.Fatalf("token %d completed %d times", tok, k)
		}
	}
	if err := bes[0].PostWrite(1, []byte{1}, 0x1000, 1, 200, true); !errors.Is(err, core.ErrPeerDown) {
		t.Fatalf("post after the down latch: %v, want ErrPeerDown", err)
	}
}

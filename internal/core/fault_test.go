package core_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

// faultJob boots a job and returns the cluster so tests can inject
// fabric faults.
func faultJob(t *testing.T, n int, cfg core.Config) (*vsim.Cluster, []*core.Photon) {
	t.Helper()
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	bes := make([]core.Backend, n)
	for r := range bes {
		bes[r] = cl.Backend(r)
	}
	return cl, initRanks(t, cfg, bes...)
}

// A silently dropped ledger write must surface as a timeout at the
// receiver, never as a wrong or phantom completion.
func TestDroppedFrameSurfacesAsTimeout(t *testing.T) {
	cl, phs := faultJob(t, 2, core.Config{})
	cl.Fabric().SetFault(func(src, dst int) bool { return src == 0 && dst == 1 })
	if err := phs[0].Send(1, []byte{1}, 0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[1].WaitRemote(7, 100*time.Millisecond); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("dropped frame produced %v, want timeout", err)
	}
	// Heal the link: later traffic flows again (the dropped entry's
	// ledger slot is gone — a new send uses the next slot, which the
	// receiver cannot consume until the hole is filled; with sequence
	// validation the receiver simply never sees either, so use a fresh
	// job-level check instead: messages in the other direction work).
	cl.Fabric().SetFault(nil)
	if err := phs[1].Send(0, []byte{2}, 0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := phs[0].WaitRemote(8, 5*time.Second); err != nil {
		t.Fatalf("reverse direction broken after fault cleared: %v", err)
	}
}

// A lossy period must never corrupt or reorder what is delivered:
// everything that arrives is a message that was sent, in order.
func TestLossyLinkNeverCorrupts(t *testing.T) {
	cl, phs := faultJob(t, 2, core.Config{LedgerSlots: 16})
	drop := 0
	var mu sync.Mutex
	cl.Fabric().SetFault(func(src, dst int) bool {
		if src != 0 || dst != 1 {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		drop++
		return drop%7 == 0 // drop every 7th frame 0->1
	})
	// Fire-and-forget sends; some vanish. Stop before the ledger's
	// in-order head can wedge behind a dropped slot forever: drop only
	// during the first burst, then heal and flush.
	for i := 1; i <= 10; i++ {
		_ = phs[0].Send(1, []byte{byte(i)}, 0, uint64(i))
		phs[0].Progress()
	}
	cl.Fabric().SetFault(nil)
	// Harvest until drained-quiescent: keep pumping both ranks and exit
	// only after a sustained stretch with no engine work and no new
	// delivery. Unlike a fixed wall-clock window this neither exits
	// before a slow machine finishes delivering nor burns time on a
	// fast one — the flake source was exactly that fixed window.
	last := uint64(0)
	quiet := 0
	for quiet < 50 { // 50 consecutive idle 1ms rounds = drained
		work := phs[0].Progress() + phs[1].Progress()
		if c, ok := phs[1].PopRemote(); ok {
			if c.RID <= last {
				t.Fatalf("reordered or duplicated delivery: %d after %d", c.RID, last)
			}
			if len(c.Data) != 1 || c.Data[0] != byte(c.RID) {
				t.Fatalf("corrupted payload for RID %d: %v", c.RID, c.Data)
			}
			last = c.RID
			quiet = 0
			continue
		}
		if work > 0 {
			quiet = 0
			continue
		}
		quiet++
		time.Sleep(time.Millisecond)
	}
}

// When the transport NAKs (bad rkey), the initiator gets an error
// completion rather than a hang.
func TestRemoteAccessErrorSurfaces(t *testing.T) {
	_, phs := faultJob(t, 2, core.Config{})
	bogus := coreRemoteBuffer(0x4000, 9999, 4096)
	if err := phs[0].PutWithCompletion(1, []byte{1}, bogus, 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		phs[0].Progress()
		if c, ok := phs[0].PopLocal(); ok {
			if c.Err == nil {
				t.Fatalf("bad-rkey put completed OK: %+v", c)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("error completion never surfaced")
		}
	}
}

// coreRemoteBuffer builds a descriptor without importing mem twice.
func coreRemoteBuffer(addr uint64, rkey uint32, n int) (rb mem.RemoteBuffer) {
	rb.Addr, rb.RKey, rb.Len = addr, rkey, n
	return rb
}

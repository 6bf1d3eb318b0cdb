package collectives_test

import (
	"errors"
	"testing"
	"time"

	"photon/internal/collectives"
	"photon/internal/core"
)

// fillEager fills rank to's eager ledger toward rank from with
// messages nobody consumes, so from's next send to it meets ledger
// backpressure.
func fillEager(t *testing.T, w *chaosWorld, from, to int) {
	t.Helper()
	for rid := uint64(1); ; rid++ {
		err := w.phs[from].Send(to, []byte{1}, 0, rid)
		if errors.Is(err, core.ErrWouldBlock) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if rid > 1024 {
			t.Fatal("eager ledger never filled")
		}
	}
}

// TestShrinkReportWaitsOutBackpressure fills the leader's eager ledger
// before a 2-rank Shrink, so the follower's report first meets ledger
// backpressure. If the leader never drains it, the follower's retry
// loop must give up at the Shrink deadline; if the leader runs its half
// of Shrink (which drains the ledger and returns credits), the retried
// report goes through and both ranks agree on the unchanged group.
func TestShrinkReportWaitsOutBackpressure(t *testing.T) {
	t.Run("leader idle", func(t *testing.T) {
		w := newChaosWorld(t, 2, 200*time.Millisecond, leanCfg())
		fillEager(t, w, 1, 0)
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := w.comms[1].Shrink()
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("follower Shrink: %v, want ErrTimeout", err)
			}
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("follower gave up after %v, want about the 200ms deadline", el)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("follower Shrink spun past its deadline")
		}
	})
	t.Run("leader drains", func(t *testing.T) {
		w := newChaosWorld(t, 2, 0, leanCfg())
		fillEager(t, w, 1, 0)
		comms := make([]*collectives.Comm, 2)
		errs := runAllErrs(w.comms, func(r int, c *collectives.Comm) error {
			if r == 0 {
				// Let the follower's report meet the full ledger
				// before the leader starts draining it.
				time.Sleep(20 * time.Millisecond)
			}
			var err error
			comms[r], err = c.Shrink()
			return err
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: Shrink: %v", r, err)
			}
			if comms[r].Size() != 2 {
				t.Fatalf("rank %d: shrunken size %d, want 2", r, comms[r].Size())
			}
		}
	})
}

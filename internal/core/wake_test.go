package core

import (
	"testing"
	"time"
)

// TestParkTimerRecycled checks the park-timer free list: a Waiter that
// parked until its grace timer fired hands back a stopped timer with
// nothing left in C, and the next Waiter that reuses it still wakes on
// a notifier kick rather than on a stale fire.
func TestParkTimerRecycled(t *testing.T) {
	p := &Photon{nfy: notifier{extern: make(chan struct{}, 1)}}

	w := Waiter{p: p}
	w.Idle() // subscribes
	w.Idle() // parks: nothing kicks, so the grace timer fires
	tm := w.park
	if tm == nil {
		t.Fatal("a parked Waiter holds no timer")
	}
	w.Release()
	if len(p.nfy.timers) != 1 || p.nfy.timers[0] != tm {
		t.Fatalf("free list holds %d timers, want the released one", len(p.nfy.timers))
	}
	if tm.Stop() {
		t.Fatal("released timer was still running")
	}
	if len(tm.C) != 0 {
		t.Fatal("released timer left a fire in C")
	}

	for i := 0; i < 50; i++ {
		w := Waiter{p: p}
		w.Idle() // subscribes
		p.nfy.fanout()
		w.Idle() // the kick is already latched: must wake on it
		if w.park != tm {
			t.Fatalf("round %d: Waiter took a new timer instead of the recycled one", i)
		}
		if len(w.ch) != 0 {
			t.Fatalf("round %d: Waiter woke on its timer, not on the kick", i)
		}
		if len(tm.C) != 0 {
			t.Fatalf("round %d: timer fire left in C after a kicked wake", i)
		}
		w.Release()
	}
	if len(p.nfy.timers) != 1 || len(p.nfy.free) != 1 {
		t.Fatalf("free lists hold %d timers and %d channels, want 1 and 1", len(p.nfy.timers), len(p.nfy.free))
	}

	// With no kick at all, the recycled timer must be re-armed: the
	// park ends after parkGrace instead of hanging.
	w = Waiter{p: p}
	w.Idle()
	done := make(chan struct{})
	go func() {
		w.Idle()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a parked Waiter on a recycled timer never woke")
	}
	if w.park != tm {
		t.Fatal("Waiter took a new timer instead of the recycled one")
	}
	w.Release()
}

// TestUnparkedWaitTakesNoTimer checks that a wait which subscribes but
// never parks leaves the timer free list alone.
func TestUnparkedWaitTakesNoTimer(t *testing.T) {
	p := &Photon{nfy: notifier{extern: make(chan struct{}, 1)}}
	w := Waiter{p: p}
	w.Idle() // subscribes only
	if w.park != nil {
		t.Fatal("subscribing round took a park timer")
	}
	w.Release()
	if len(p.nfy.timers) != 0 {
		t.Fatalf("free list holds %d timers after a wait that never parked", len(p.nfy.timers))
	}
}

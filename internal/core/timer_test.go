//go:debug asynctimerchan=0

package core

import (
	"testing"
	"time"
)

// This file switches the package's test binary to the synchronous timer
// channels Go 1.23 introduced (asynctimerchan=0), whatever go.mod
// selects: a drain written for the old buffered channels must not hang
// or leave a stale fire under the new ones.

// TestIdleDrainsParkTimerUnderSyncTimers parks a Waiter many times with
// the wake-up racing its park timer: a kick latched before the park, no
// kick at all, and kicks landing around the park grace, so some rounds
// find the notification and an expired timer ready together. Every
// round must return within a bound, and none may leave a fire in the
// timer's channel for the next park to wake on.
func TestIdleDrainsParkTimerUnderSyncTimers(t *testing.T) {
	p := &Photon{nfy: notifier{extern: make(chan struct{}, 1)}}
	w := Waiter{p: p}
	w.Idle() // subscribes
	defer w.Release()

	for i := 0; i < 300; i++ {
		var kicker chan struct{}
		switch i % 3 {
		case 0: // latched before the park: the notification branch
			p.nfy.fanout()
		case 1: // nothing kicks: the timer branch
		case 2: // the kick lands around the grace expiry
			kicker = make(chan struct{})
			d := parkGrace - 50*time.Microsecond + time.Duration(i%7)*25*time.Microsecond
			go func() {
				time.Sleep(d)
				p.nfy.fanout()
				close(kicker)
			}()
		}
		done := make(chan struct{})
		go func() {
			w.Idle()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Idle did not return", i)
		}
		if kicker != nil {
			<-kicker
		}
		select {
		case <-w.park.C:
			t.Fatalf("round %d: Idle left a timer fire in C", i)
		default:
		}
		select { // consume a kick that arrived after the wake
		case <-w.ch:
		default:
		}
	}
}

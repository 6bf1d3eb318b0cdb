package core_test

import (
	"bytes"
	"testing"

	"photon/internal/backend/shm"
	"photon/internal/core"
)

// TestRendezvousOneRound pins the rendezvous round count on transports
// that apply a read at post (shm on a free region, vsim on a drained
// zero-delay link): the target's one Progress that sees the RTS posts
// the read, reaps it, copies the payload out, FINs and surfaces the
// delivery; the initiator's next Progress then sees the FIN.
func TestRendezvousOneRound(t *testing.T) {
	for _, tc := range []struct {
		name string
		boot func(t *testing.T) []*core.Photon
	}{
		{"shm", func(t *testing.T) []*core.Photon {
			cl, err := shm.NewCluster(2, shm.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			return initRanks(t, core.Config{}, cl.Backend(0), cl.Backend(1))
		}},
		{"vsim", func(t *testing.T) []*core.Photon { return newJob(t, 2, core.Config{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			phs := tc.boot(t)
			msg := make([]byte, 16<<10)
			for i := range msg {
				msg[i] = byte(i*13 + 5)
			}
			if len(msg) <= phs[0].EagerThreshold() {
				t.Fatalf("%d bytes is not a rendezvous send (threshold %d)", len(msg), phs[0].EagerThreshold())
			}
			if err := phs[0].Send(1, msg, 71, 72); err != nil {
				t.Fatal(err)
			}
			phs[1].Progress()
			rc, ok := phs[1].PopRemote()
			if !ok {
				t.Fatal("target needed more than one Progress to deliver the rendezvous")
			}
			if rc.RID != 72 || rc.Rank != 0 || !bytes.Equal(rc.Data, msg) {
				t.Fatalf("delivery rid %d rank %d, %d bytes (match %v)", rc.RID, rc.Rank, len(rc.Data), bytes.Equal(rc.Data, msg))
			}
			phs[0].Progress()
			lc, ok := phs[0].PopLocal()
			if !ok {
				t.Fatal("initiator's first Progress after the delivery did not complete the send")
			}
			if lc.RID != 71 || lc.Err != nil {
				t.Fatalf("local completion rid %d err %v", lc.RID, lc.Err)
			}
		})
	}
}

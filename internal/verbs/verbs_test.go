package verbs

import (
	"bytes"
	"testing"
	"time"

	"photon/internal/fabric"
	"photon/internal/nicsim"
)

func newDevices(t *testing.T) (*Device, *Device) {
	t.Helper()
	fab := fabric.New(2, fabric.Model{})
	t.Cleanup(fab.Close)
	a, err := Open(fab, 0, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(fab, 1, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	return a, b
}

func TestOpenAndNode(t *testing.T) {
	a, b := newDevices(t)
	if a.Node() != 0 || b.Node() != 1 {
		t.Fatalf("nodes = %d %d", a.Node(), b.Node())
	}
	if a.NIC() == nil {
		t.Fatal("NIC accessor nil")
	}
}

func TestOpenOnBadNodeFails(t *testing.T) {
	fab := fabric.New(1, fabric.Model{})
	defer fab.Close()
	if _, err := Open(fab, 5, nicsim.Config{}); err == nil {
		t.Fatal("open on out-of-range node succeeded")
	}
}

func TestEndToEndWriteViaVerbs(t *testing.T) {
	a, b := newDevices(t)
	scq, rcq := a.CreateCQ(16), a.CreateCQ(16)
	qpA, err := a.CreateQP(scq, rcq)
	if err != nil {
		t.Fatal(err)
	}
	qpB, err := b.CreateQP(b.CreateCQ(16), b.CreateCQ(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := qpA.Connect(b.Node(), qpB.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qpB.Connect(a.Node(), qpA.QPN()); err != nil {
		t.Fatal(err)
	}
	target := make([]byte, 64)
	mr, err := b.RegMR(target, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("via verbs layer")
	if err := qpA.PostSend(SendWR{
		WRID: 42, Op: OpRDMAWrite, Local: payload, Signaled: true,
		RemoteAddr: mr.Base(), RKey: mr.RKey(),
	}); err != nil {
		t.Fatal(err)
	}
	var got [1]CQE
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Microsecond) {
		if scq.PollInto(got[:]) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write completion did not arrive")
		}
	}
	if cqe := got[0]; cqe.Status != StatusOK || cqe.WRID != 42 {
		t.Fatalf("cqe = %+v", cqe)
	}
	if !bytes.Equal(target[:len(payload)], payload) {
		t.Fatalf("write not placed: %q", target[:len(payload)])
	}
	if err := b.DeregMR(mr); err != nil {
		t.Fatal(err)
	}
}

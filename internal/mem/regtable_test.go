package mem

import (
	"bytes"
	"testing"
)

func TestRegTableValidatesEveryAccess(t *testing.T) {
	tab := NewRegTable("test")
	buf := make([]byte, 32)
	rb, dma, err := tab.Register(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.Register(nil); err == nil {
		t.Error("empty registration accepted")
	}
	other, _, _ := tab.Register(make([]byte, 32))

	end := rb.Addr + uint64(rb.Len)
	bad := []struct {
		what string
		addr uint64
		rkey uint32
		n    int
	}{
		{"unknown rkey", rb.Addr, rb.RKey + 100, 1},
		{"below base", rb.Addr - 1, rb.RKey, 1},
		{"past end", end - 4, rb.RKey, 8},
		{"starts past end", end + 1, rb.RKey, 0},
		{"end wraps 2^64", ^uint64(0) - 3, rb.RKey, 8},
		{"negative length", rb.Addr, rb.RKey, -1},
		{"neighbour's address under this rkey", other.Addr, rb.RKey, 1},
	}
	for _, b := range bad {
		if tab.Check(b.addr, b.rkey, b.n) == nil {
			t.Errorf("%s: accepted", b.what)
		}
	}
	before := tab.Activity()
	if tab.Write(end-4, rb.RKey, make([]byte, 4), make([]byte, 4)) == nil {
		t.Error("two-segment write past the end accepted")
	}
	if tab.Read(make([]byte, 64), rb.Addr, rb.RKey) == nil {
		t.Error("oversized read accepted")
	}
	if _, err := tab.FetchAdd(rb.Addr+4, rb.RKey, 1); err == nil {
		t.Error("misaligned fetch-add accepted")
	}
	if _, err := tab.CompSwap(end-4, rb.RKey, 0, 1); err == nil {
		t.Error("comp-swap straddling the end accepted")
	}
	if tab.Activity() != before {
		t.Error("rejected accesses moved the activity counter")
	}
	if !bytes.Equal(buf, make([]byte, 32)) {
		t.Fatalf("rejected accesses modified memory: %v", buf)
	}

	if err := tab.Write(rb.Addr+6, rb.RKey, []byte{1, 2}, []byte{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if old, err := tab.FetchAdd(rb.Addr+8, rb.RKey, 1); err != nil || old != 0x050403 {
		t.Fatalf("fetch-add: old=%#x err=%v", old, err)
	}
	if old, err := tab.CompSwap(rb.Addr+8, rb.RKey, 0x050404, 9); err != nil || old != 0x050404 {
		t.Fatalf("comp-swap: old=%#x err=%v", old, err)
	}
	got := make([]byte, 4)
	dma.Lock()
	err = tab.Read(got, rb.Addr+6, rb.RKey) // readers share the DMA lock
	dma.Unlock()
	if err != nil || !bytes.Equal(got, []byte{1, 2, 9, 0}) {
		t.Fatalf("read back %v, err %v", got, err)
	}
	if tab.Activity() != before+3 {
		t.Errorf("activity moved by %d for 3 applied writes", tab.Activity()-before)
	}

	if err := tab.Deregister(rb); err != nil {
		t.Fatal(err)
	}
	if tab.Deregister(rb) == nil || tab.Check(rb.Addr, rb.RKey, 1) == nil {
		t.Error("deregistered buffer still reachable")
	}
}

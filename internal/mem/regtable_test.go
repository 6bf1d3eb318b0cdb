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
	for _, try := range []bool{false, true} {
		if tab.Write(try, end-4, rb.RKey, make([]byte, 4), make([]byte, 4)) == nil {
			t.Errorf("try=%v: two-segment write past the end accepted", try)
		}
		if tab.Read(try, make([]byte, 64), rb.Addr, rb.RKey) == nil {
			t.Errorf("try=%v: oversized read accepted", try)
		}
		if _, err := tab.FetchAdd(try, rb.Addr+4, rb.RKey, 1); err == nil {
			t.Errorf("try=%v: misaligned fetch-add accepted", try)
		}
		if _, err := tab.CompSwap(try, end-4, rb.RKey, 0, 1); err == nil {
			t.Errorf("try=%v: comp-swap straddling the end accepted", try)
		}
	}
	if tab.Activity() != before {
		t.Error("rejected accesses moved the activity counter")
	}
	if !bytes.Equal(buf, make([]byte, 32)) {
		t.Fatalf("rejected accesses modified memory: %v", buf)
	}

	if err := tab.Write(false, rb.Addr+6, rb.RKey, []byte{1, 2}, []byte{3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if old, err := tab.FetchAdd(true, rb.Addr+8, rb.RKey, 1); err != nil || old != 0x050403 {
		t.Fatalf("fetch-add: old=%#x err=%v", old, err)
	}
	if old, err := tab.CompSwap(false, rb.Addr+8, rb.RKey, 0x050404, 9); err != nil || old != 0x050404 {
		t.Fatalf("comp-swap: old=%#x err=%v", old, err)
	}
	got := make([]byte, 4)
	dma.Lock()
	err = tab.Read(true, got, rb.Addr+6, rb.RKey) // readers share the DMA lock
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

// TestRegTableTryNeverWaits pins the non-blocking accessors: while a
// local reader holds the DMA lock a try write or atomic gives up with
// ErrBusy and touches nothing, a try read shares the lock, and while a
// writer holds it every try access gives up.
func TestRegTableTryNeverWaits(t *testing.T) {
	tab := NewRegTable("test")
	buf := make([]byte, 16)
	rb, dma, err := tab.Register(buf)
	if err != nil {
		t.Fatal(err)
	}
	busy := func(what string) {
		t.Helper()
		if err := tab.Write(true, rb.Addr, rb.RKey, []byte{1}, nil); err != ErrBusy {
			t.Errorf("%s: try write returned %v, want ErrBusy", what, err)
		}
		if _, err := tab.FetchAdd(true, rb.Addr, rb.RKey, 1); err != ErrBusy {
			t.Errorf("%s: try fetch-add returned %v, want ErrBusy", what, err)
		}
		if _, err := tab.CompSwap(true, rb.Addr, rb.RKey, 0, 1); err != ErrBusy {
			t.Errorf("%s: try comp-swap returned %v, want ErrBusy", what, err)
		}
	}

	dma.Lock()
	busy("reader holds the lock")
	if err := tab.Read(true, make([]byte, 8), rb.Addr, rb.RKey); err != nil {
		t.Errorf("try read beside a reader: %v", err)
	}
	dma.Unlock()

	tab.mu.Lock()
	busy("writer holds the lock")
	if err := tab.Read(true, make([]byte, 8), rb.Addr, rb.RKey); err != ErrBusy {
		t.Errorf("try read beside a writer returned %v, want ErrBusy", err)
	}
	tab.mu.Unlock()

	if tab.Activity() != 0 || !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("busy accesses applied: activity %d, memory %v", tab.Activity(), buf)
	}
	if err := tab.Write(true, rb.Addr, rb.RKey, []byte{7}, nil); err != nil || buf[0] != 7 {
		t.Fatalf("try write on a free table: %v, memory %v", err, buf[:1])
	}
}

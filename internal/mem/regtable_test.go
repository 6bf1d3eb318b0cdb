package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// noApply is an access callback for accesses that must be refused.
func noApply(t *testing.T) func([]byte) {
	return func([]byte) { t.Helper(); t.Error("refused access applied") }
}

func TestRegTableValidatesEveryAccess(t *testing.T) {
	tab := NewRegTable("test", nil)
	buf := make([]byte, 32)
	r, err := tab.Register(buf, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	rb := r.Remote()
	if _, err := tab.Register(nil, AccessAll); err == nil {
		t.Error("empty registration accepted")
	}
	other, _ := tab.Register(make([]byte, 32), AccessAll)
	ro, _ := tab.Register(make([]byte, 32), AccessRemoteRead)

	end := rb.Addr + uint64(rb.Len)
	bad := []struct {
		what string
		addr uint64
		rkey uint32
		n    int
		need Access
	}{
		{"unknown rkey", rb.Addr, rb.RKey + 100, 1, AccessRemoteRead},
		{"below base", rb.Addr - 1, rb.RKey, 1, AccessRemoteRead},
		{"past end", end - 4, rb.RKey, 8, AccessRemoteRead},
		{"starts past end", end + 1, rb.RKey, 0, AccessRemoteRead},
		{"end wraps 2^64", ^uint64(0) - 3, rb.RKey, 8, AccessRemoteRead},
		{"negative length", rb.Addr, rb.RKey, -1, AccessRemoteRead},
		{"neighbour's address under this rkey", other.Base(), rb.RKey, 1, AccessRemoteRead},
		{"write without the right", ro.Base(), ro.RKey(), 1, AccessRemoteWrite},
		{"atomic without the right", ro.Base(), ro.RKey(), 8, AccessRemoteAtomic},
		{"short atomic", rb.Addr, rb.RKey, 4, AccessRemoteAtomic},
	}
	for _, b := range bad {
		for _, try := range []bool{false, true} {
			if tab.Access(try, b.addr, b.rkey, b.n, b.need, noApply(t)) == nil {
				t.Errorf("%s (try=%v): accepted", b.what, try)
			}
		}
	}
	if err := tab.Access(false, rb.Addr, rb.RKey+100, 1, AccessRemoteRead, noApply(t)); !errors.Is(err, ErrUnregistered) {
		t.Errorf("unknown rkey: %v, want %v", err, ErrUnregistered)
	}
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
	if r.WriteActivity() != 0 {
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
	dma := r.RLocker()
	dma.Lock()
	err = tab.Read(true, got, rb.Addr+6, rb.RKey) // readers share the DMA lock
	dma.Unlock()
	if err != nil || !bytes.Equal(got, []byte{1, 2, 9, 0}) {
		t.Fatalf("read back %v, err %v", got, err)
	}
	if r.WriteActivity() != 3 || other.WriteActivity() != 0 {
		t.Errorf("activity moved by %d here and %d next door for 3 applied writes", r.WriteActivity(), other.WriteActivity())
	}
	if act, ok := tab.WriteActivity(rb); !ok || act() != 3 {
		t.Error("WriteActivity by descriptor does not load the region's counter")
	}

	if tab.Deregister(RemoteBuffer{Addr: rb.Addr + 8, RKey: rb.RKey}) == nil {
		t.Error("deregistration with a wrong base accepted")
	}
	if err := tab.Deregister(rb); err != nil {
		t.Fatal(err)
	}
	if tab.Deregister(rb) != ErrUnregistered || tab.Access(false, rb.Addr, rb.RKey, 1, AccessRemoteRead, noApply(t)) == nil {
		t.Error("deregistered buffer still reachable")
	}
	if _, ok := tab.WriteActivity(rb); ok {
		t.Error("WriteActivity found a deregistered buffer")
	}
}

// TestRegTableTryNeverWaits pins the non-blocking accesses: while a
// local reader holds a region's DMA lock a try write or atomic gives up
// with ErrBusy and touches nothing, a try read shares the lock, and
// while a writer holds the region lock, or Register or Deregister
// holds the table lock, every try access gives up. Another region's
// lock never gets in the way.
func TestRegTableTryNeverWaits(t *testing.T) {
	tab := NewRegTable("test", nil)
	buf := make([]byte, 16)
	r, err := tab.Register(buf, AccessAll)
	if err != nil {
		t.Fatal(err)
	}
	rb := r.Remote()
	next, _ := tab.Register(make([]byte, 16), AccessAll)
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

	dma := r.RLocker()
	dma.Lock()
	busy("reader holds the lock")
	if err := tab.Read(true, make([]byte, 8), rb.Addr, rb.RKey); err != nil {
		t.Errorf("try read beside a reader: %v", err)
	}
	if err := tab.Write(true, next.Base(), next.RKey(), []byte{1}, nil); err != nil {
		t.Errorf("try write into another region: %v", err)
	}
	dma.Unlock()

	for _, held := range []struct {
		what string
		mu   sync.Locker
	}{{"writer holds the region lock", &r.mu}, {"the table lock is held", &tab.mu}} {
		held.mu.Lock()
		busy(held.what)
		if err := tab.Read(true, make([]byte, 8), rb.Addr, rb.RKey); err != ErrBusy {
			t.Errorf("%s: try read returned %v, want ErrBusy", held.what, err)
		}
		held.mu.Unlock()
	}

	if r.WriteActivity() != 0 || !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("busy accesses applied: activity %d, memory %v", r.WriteActivity(), buf)
	}
	if err := tab.Write(true, rb.Addr, rb.RKey, []byte{7}, nil); err != nil || buf[0] != 7 {
		t.Fatalf("try write on a free table: %v, memory %v", err, buf[:1])
	}
}

// TestRegTableReleaseHook pins when the release hook runs: after every
// access that took and released a lock, after Register and Deregister,
// and on Unlock of a region's DMA lock — never for a try access that
// gave up without taking anything.
func TestRegTableReleaseHook(t *testing.T) {
	var runs int
	tab := NewRegTable("test", func() { runs++ })
	expect := func(what string, want int) {
		t.Helper()
		if runs != want {
			t.Errorf("%s: hook ran %d times, want %d", what, runs, want)
		}
		runs = 0
	}
	r, _ := tab.Register(make([]byte, 16), AccessAll)
	expect("Register", 1)
	rb := r.Remote()
	_ = tab.Write(false, rb.Addr, rb.RKey, []byte{1}, nil)
	_ = tab.Read(true, make([]byte, 2), rb.Addr, rb.RKey)
	_ = tab.Write(false, rb.Addr, rb.RKey+9, []byte{1}, nil)
	_ = tab.Write(false, rb.Addr+64, rb.RKey, []byte{1}, nil)
	expect("two accesses and two refusals", 4)
	dma := r.RLocker()
	dma.Lock()
	expect("DMA Lock", 0)
	if tab.Write(true, rb.Addr, rb.RKey, []byte{1}, nil) != ErrBusy {
		t.Fatal("try write beside a reader was not busy")
	}
	expect("busy try write", 0)
	dma.Unlock()
	expect("DMA Unlock", 1)
	_ = tab.Deregister(rb)
	expect("Deregister", 1)
}

// FuzzRegTableAccess drives random register, deregister and access
// sequences — stale and recycled rkeys, wrap-around addresses,
// negative lengths, missing rights, misaligned atomics, try mode
// beside a held DMA lock — against a reference model: the table must
// never panic, must accept exactly what the model accepts, must apply
// exactly the bytes accepted writes carry, and must count exactly the
// accepted writes and atomics.
func FuzzRegTableAccess(f *testing.F) {
	f.Add([]byte{0, 64, 15, 2, 0, 0, 0, 8, 2, 1, 2, 0, 8, 1, 8, 1, 0, 3, 0, 2, 0, 0, 0, 8, 2, 0})
	f.Add([]byte{0, 16, 3, 0, 200, 1, 2, 0, 0, 0, 1, 0, 0, 16, 5, 2, 0, 0, 3, 8, 4, 1, 2, 1, 252, 255, 1})
	f.Add([]byte{0, 32, 15, 3, 0, 2, 0, 1, 1, 4, 1, 2, 0, 2, 8, 1, 0, 0, 8, 0, 3, 2, 0, 0, 0, 8, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		in := fuzzInput(prog)
		tab := NewRegTable("fuzz", nil)
		type reg struct {
			r      *Region
			rkey   uint32
			base   uint64
			shadow []byte // the model's copy of the buffer
			buf    []byte
			access Access
			live   bool
			writes uint64 // the region's activity count the model expects
		}
		var regs []*reg
		held := -1 // index of the registration whose DMA lock is held
		defer func() {
			if held >= 0 {
				regs[held].r.RLocker().Unlock()
			}
		}()
		pick := func() *reg {
			if len(regs) == 0 {
				return nil
			}
			return regs[int(in.byte())%len(regs)]
		}
		for in.more() && len(regs) < 64 {
			switch in.byte() % 4 {
			case 0: // register
				size, access := 1+int(in.byte()), Access(in.byte()&0xF)
				buf := make([]byte, size)
				r, err := tab.Register(buf, access)
				if err != nil {
					t.Fatalf("register %d bytes: %v", size, err)
				}
				for _, o := range regs {
					if o.live && (r.Base() < o.base+uint64(len(o.buf)) && o.base < r.Base()+uint64(size)) {
						t.Fatalf("registration [%#x,+%d) overlaps a live one", r.Base(), size)
					}
					if o.rkey == r.RKey() {
						t.Fatalf("rkey %d reused", o.rkey)
					}
				}
				regs = append(regs, &reg{r: r, rkey: r.RKey(), base: r.Base(), shadow: make([]byte, size), buf: buf,
					access: access, live: true, writes: r.WriteActivity()})
			case 1: // deregister, possibly a dead one or under a wrong base
				g := pick()
				if g == nil {
					continue
				}
				shift := uint64(in.byte() % 2)
				if held >= 0 && regs[held] == g {
					g.r.RLocker().Unlock()
					held = -1
				}
				err := tab.Deregister(RemoteBuffer{Addr: g.base + shift, RKey: g.rkey})
				if want := g.live && shift == 0; (err == nil) != want {
					t.Fatalf("deregister rkey %d (live %v, base shifted %d): %v", g.rkey, g.live, shift, err)
				}
				if err == nil {
					g.live = false
				}
			case 2: // hold or release a live region's DMA lock
				if held >= 0 {
					regs[held].r.RLocker().Unlock()
					held = -1
					continue
				}
				if len(regs) == 0 {
					continue
				}
				i := int(in.byte()) % len(regs)
				if regs[i].live {
					regs[i].r.RLocker().Lock()
					held = i
				}
			case 3: // access
				g := pick()
				var rkey uint32
				var base uint64
				if g != nil {
					rkey, base = g.rkey, g.base
				}
				if k := in.byte(); k >= 240 {
					rkey += uint32(k - 239) // an rkey nobody has been given yet, or a neighbour's
				}
				var addr uint64
				if d := int16(in.u16()); in.byte()%8 == 0 {
					addr = ^uint64(0) - uint64(uint16(d)) // near the top: wraps with n
				} else {
					addr = base + uint64(int64(d))
				}
				n := int(int16(in.u16()))
				need := []Access{AccessRemoteRead, AccessRemoteWrite, AccessRemoteAtomic}[in.byte()%3]
				try := in.byte()%2 == 0
				var target *reg
				for _, o := range regs {
					if o.live && o.rkey == rkey {
						target = o
					}
				}
				busy := target != nil && held >= 0 && regs[held] == target && need != AccessRemoteRead
				if busy && !try {
					continue // a blocking write beside a held reader would wait forever
				}
				want := target != nil && !busy && target.access&need == need && modelInBounds(addr, n, target.base, len(target.buf)) &&
					(need != AccessRemoteAtomic || (addr%8 == 0 && n == 8))
				fill := in.byte()
				var applied bool
				err := tab.Access(try, addr, rkey, n, need, func(w []byte) {
					applied = true
					if target == nil {
						t.Fatalf("access under rkey %d applied; no live registration has it", rkey)
					}
					if len(w) != n {
						t.Fatalf("window of %d bytes for a %d-byte access", len(w), n)
					}
					off := addr - target.base
					if !bytes.Equal(w, target.shadow[off:off+uint64(n)]) {
						t.Fatalf("window at rkey %d off %d holds %x, model %x", rkey, off, w, target.shadow[off:off+uint64(n)])
					}
					if need != AccessRemoteRead {
						for i := range w {
							w[i] = fill
						}
						copy(target.shadow[off:], w)
					}
				})
				switch {
				case busy && err != ErrBusy:
					t.Fatalf("try access beside a held reader: %v, want ErrBusy", err)
				case !busy && err == ErrBusy:
					t.Fatal("ErrBusy with no lock held")
				case (err == nil) != want || applied != want:
					t.Fatalf("access rkey %d addr %#x n %d need %d try %v: err %v applied %v, model accepts %v",
						rkey, addr, n, need, try, err, applied, want)
				}
				if want && need != AccessRemoteRead {
					target.writes++
				}
			}
			for _, g := range regs {
				if !bytes.Equal(g.buf, g.shadow) || g.live && g.r.WriteActivity() != g.writes {
					t.Fatalf("rkey %d: activity %d, model %d; memory %x, model %x", g.rkey, g.r.WriteActivity(), g.writes, g.buf, g.shadow)
				}
			}
		}
	})
}

// modelInBounds is the reference bounds rule, in wide arithmetic:
// [addr, addr+n) lies inside [base, base+size).
func modelInBounds(addr uint64, n int, base uint64, size int) bool {
	if n < 0 || addr < base || addr-base > uint64(size) {
		return false
	}
	return int(addr-base)+n <= size
}

// fuzzInput reads a fuzz program byte by byte, yielding zeros once it
// runs out.
type fuzzInput []byte

func (p *fuzzInput) more() bool { return len(*p) > 0 }

func (p *fuzzInput) byte() byte {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return b
}

func (p *fuzzInput) u16() uint16 { return uint16(p.byte()) | uint16(p.byte())<<8 }

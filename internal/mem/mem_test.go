package mem

import (
	"testing"
	"testing/quick"
)

// slabBase is the remote base address the test slabs are built over.
const slabBase = 0x10000

func newSlab(t *testing.T, size int) *Slab {
	t.Helper()
	s, err := NewSlabOver(make([]byte, size), slabBase)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSlabAllocRelease(t *testing.T) {
	s := newSlab(t, 1024)
	b1, err := s.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if b1.size != 128 { // rounded to 64
		t.Fatalf("size = %d, want 128", b1.size)
	}
	if len(b1.Buf) != 128 {
		t.Fatalf("buf len = %d", len(b1.Buf))
	}
	if b1.off != 0 {
		t.Fatalf("offset = %d", b1.off)
	}
	if s.used != 128 {
		t.Fatalf("used = %d", s.used)
	}
	b2, _ := s.Alloc(64)
	if b2.off != 128 {
		t.Fatalf("second block offset = %d", b2.off)
	}
	if err := s.Release(b1); err != nil {
		t.Fatal(err)
	}
	if s.used != 64 {
		t.Fatalf("used after release = %d", s.used)
	}
	// First-fit reuses the front hole.
	b3, _ := s.Alloc(64)
	if b3.off != 0 {
		t.Fatalf("first-fit violated: offset %d", b3.off)
	}
}

func TestSlabExhaustionAndCoalesce(t *testing.T) {
	s := newSlab(t, 256)
	a, _ := s.Alloc(64)
	b, _ := s.Alloc(64)
	c, _ := s.Alloc(64)
	dd, _ := s.Alloc(64)
	if _, err := s.Alloc(1); err != ErrExhausted {
		t.Fatalf("exhausted slab = %v", err)
	}
	// Release in an order that requires both-side coalescing.
	s.Release(b)
	s.Release(dd)
	if len(s.holes) != 2 {
		t.Fatalf("holes = %d, want 2", len(s.holes))
	}
	s.Release(c) // bridges b..d into one hole
	if len(s.holes) != 1 {
		t.Fatalf("holes after coalesce = %d, want 1", len(s.holes))
	}
	s.Release(a)
	if len(s.holes) != 1 || s.used != 0 {
		t.Fatalf("full release: holes=%d used=%d", len(s.holes), s.used)
	}
	// Whole arena available again.
	if _, err := s.Alloc(256); err != nil {
		t.Fatalf("arena not fully recovered: %v", err)
	}
}

func TestSlabDoubleFree(t *testing.T) {
	s := newSlab(t, 256)
	b, _ := s.Alloc(64)
	if err := s.Release(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(b); err != ErrNotOwned {
		t.Fatalf("double free = %v", err)
	}
	if err := s.Release(nil); err != ErrNotOwned {
		t.Fatalf("nil release = %v", err)
	}
}

// TestSlabAllocGuard pins header recycling: a steady Alloc/Release
// cycle reuses the released *Block instead of allocating a new one.
func TestSlabAllocGuard(t *testing.T) {
	s := newSlab(t, 4096)
	cycle := func() {
		b, err := s.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(b); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("slab alloc/release cycle allocates %.2f times, want 0", allocs)
	}
}

func TestSlabBadSize(t *testing.T) {
	if _, err := NewSlabOver(nil, slabBase); err == nil {
		t.Fatal("empty arena accepted")
	}
	if _, err := NewSlabOver(make([]byte, SlabAlign+1), slabBase); err == nil {
		t.Fatal("arena that is not a multiple of SlabAlign accepted")
	}
	s := newSlab(t, 256)
	if _, err := s.Alloc(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
	if _, err := s.Alloc(-5); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

// Property: any interleaving of allocs and releases preserves the
// invariant used + sum(holes) == arena size, and releasing everything
// restores a single hole.
func TestSlabInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		s := newSlab(t, 4096)
		var live []*Block
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := int(op%63) + 1
				b, err := s.Alloc(n)
				if err == nil {
					live = append(live, b)
				}
			} else {
				i := int(op) % len(live)
				if err := s.Release(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			sum := 0
			for _, b := range live {
				sum += b.size
			}
			if s.used != sum {
				return false
			}
		}
		for _, b := range live {
			if err := s.Release(b); err != nil {
				return false
			}
		}
		return s.used == 0 && len(s.holes) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteBufferContains(t *testing.T) {
	rb := RemoteBuffer{Addr: 0x1000, RKey: 1, Len: 100}
	if !rb.Contains(0, 100) {
		t.Fatal("full range should fit")
	}
	if rb.Contains(1, 100) {
		t.Fatal("overflow accepted")
	}
	if !rb.Contains(99, 1) {
		t.Fatal("tail byte rejected")
	}
	if rb.Contains(^uint64(0), 2) {
		t.Fatal("wraparound accepted")
	}
}

package ledger

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"photon/internal/mem"
)

const entSize = 64 // test entry size

// wirePair couples a Sender and Receiver through a simulated RDMA
// write: writeEntry copies the encoded entry into the receiver's
// backing store at the reserved offset, which is exactly what the NIC
// does in production.
type wirePair struct {
	s *Sender
	r *Receiver
}

func newWirePair(t *testing.T, slots int) *wirePair {
	t.Helper()
	buf := make([]byte, slots*entSize)
	r, err := NewReceiver(buf, entSize, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb := mem.RemoteBuffer{Addr: 0x10000, RKey: 1, Len: len(buf)}
	s, err := NewSender(rb, entSize)
	if err != nil {
		t.Fatal(err)
	}
	return &wirePair{s: s, r: r}
}

// push reserves a slot, encodes payload, and "RDMA-writes" it.
func (w *wirePair) push(t *testing.T, payload []byte) error {
	res, err := w.s.Reserve()
	if err != nil {
		return err
	}
	off := res.Slot * entSize
	if want := uint64(0x10000) + uint64(off); res.RemoteAddr != want {
		t.Fatalf("remote addr = %#x, want %#x", res.RemoteAddr, want)
	}
	ent := make([]byte, entSize)
	if err := Encode(ent, res.Seq, payload); err != nil {
		return err
	}
	copy(w.r.buf[off:], ent)
	return nil
}

func TestEncodeLayout(t *testing.T) {
	dst := make([]byte, entSize)
	payload := []byte("ledger entry payload")
	if err := Encode(dst, 5, payload); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(dst[0:]); got != 5 {
		t.Fatalf("seq = %d", got)
	}
	if got := binary.LittleEndian.Uint32(dst[4:]); got != uint32(len(payload)) {
		t.Fatalf("len = %d", got)
	}
	if !bytes.Equal(dst[HeaderSize:HeaderSize+len(payload)], payload) {
		t.Fatal("payload mismatch")
	}
}

func TestEncodeTooLarge(t *testing.T) {
	dst := make([]byte, MinEntrySize)
	if err := Encode(dst, 1, make([]byte, MinEntrySize)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := NewReceiver(make([]byte, 100), 33, nil); !errors.Is(err, ErrGeometry) {
		t.Fatalf("non-multiple geometry: %v", err)
	}
	if _, err := NewReceiver(nil, entSize, nil); !errors.Is(err, ErrGeometry) {
		t.Fatalf("empty buf: %v", err)
	}
	if _, err := NewReceiver(make([]byte, 8), 8, nil); !errors.Is(err, ErrGeometry) {
		t.Fatalf("entry below minimum: %v", err)
	}
	if _, err := NewSender(mem.RemoteBuffer{Len: 100}, 33); !errors.Is(err, ErrGeometry) {
		t.Fatalf("sender non-multiple: %v", err)
	}
}

func TestPollEmpty(t *testing.T) {
	w := newWirePair(t, 4)
	if _, ok := w.r.Poll(); ok {
		t.Fatal("empty ledger polled an entry")
	}
}

func TestSingleRoundTrip(t *testing.T) {
	w := newWirePair(t, 4)
	if err := w.push(t, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	e, ok := w.r.Poll()
	if !ok {
		t.Fatal("entry not visible")
	}
	if e.Slot != 0 || e.Seq != 1 || string(e.Payload) != "hello" {
		t.Fatalf("entry = %+v", e)
	}
	if _, ok := w.r.Poll(); ok {
		t.Fatal("entry delivered twice")
	}
}

func TestFIFOOrder(t *testing.T) {
	w := newWirePair(t, 8)
	for i := 0; i < 8; i++ {
		if err := w.push(t, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		e, ok := w.r.Poll()
		if !ok || e.Payload[0] != byte(i) {
			t.Fatalf("entry %d: ok=%v payload=%v", i, ok, e.Payload)
		}
	}
}

func TestCreditExhaustionAndReturn(t *testing.T) {
	w := newWirePair(t, 2)
	if w.s.credits != 2 {
		t.Fatalf("initial credits = %d", w.s.credits)
	}
	w.push(t, []byte{1})
	w.push(t, []byte{2})
	if err := w.push(t, []byte{3}); !errors.Is(err, ErrNoCredit) {
		t.Fatalf("push without credit: %v", err)
	}
	w.r.Poll()
	if c := w.r.TakeCredits(); c != 1 {
		t.Fatalf("TakeCredits = %d", c)
	}
	if c := w.r.TakeCredits(); c != 0 {
		t.Fatalf("second TakeCredits = %d", c)
	}
	if err := w.s.AddCredits(1); err != nil {
		t.Fatal(err)
	}
	if err := w.push(t, []byte{3}); err != nil {
		t.Fatalf("push after credit return: %v", err)
	}
}

func TestCreditOvershootRejected(t *testing.T) {
	w := newWirePair(t, 2)
	if err := w.s.AddCredits(1); !errors.Is(err, ErrOvershoot) {
		t.Fatalf("overshoot = %v", err)
	}
	if err := w.s.AddCredits(-1); !errors.Is(err, ErrOvershoot) {
		t.Fatalf("negative = %v", err)
	}
}

func TestWrapAroundSequences(t *testing.T) {
	w := newWirePair(t, 2)
	// Three full wraps.
	for round := 0; round < 6; round++ {
		if err := w.push(t, []byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		e, ok := w.r.Poll()
		if !ok {
			t.Fatalf("round %d: entry not visible", round)
		}
		wantSeq := uint32(round/2 + 1)
		if e.Seq != wantSeq || e.Payload[0] != byte(round) {
			t.Fatalf("round %d: entry = %+v, want seq %d", round, e, wantSeq)
		}
		w.r.TakeCredits()
		w.s.AddCredits(1)
	}
}

func TestStaleEntryNotReRead(t *testing.T) {
	w := newWirePair(t, 2)
	w.push(t, []byte{1})
	w.push(t, []byte{2})
	w.r.Poll()
	w.r.Poll()
	// Slot 0 still holds seq=1 from wrap 0, but the receiver now
	// expects seq=2 there: no phantom entry.
	if _, ok := w.r.Poll(); ok {
		t.Fatal("stale entry re-read after wrap")
	}
}

func TestCorruptLengthClamped(t *testing.T) {
	w := newWirePair(t, 2)
	res, _ := w.s.Reserve()
	ent := make([]byte, entSize)
	binary.LittleEndian.PutUint32(ent[0:], res.Seq)
	binary.LittleEndian.PutUint32(ent[4:], 0xFFFFFF) // absurd length
	copy(w.r.buf[res.Slot*entSize:], ent)
	e, ok := w.r.Poll()
	if !ok {
		t.Fatal("entry not visible")
	}
	if len(e.Payload) != entSize-HeaderSize {
		t.Fatalf("payload len = %d, want clamp to %d", len(e.Payload), entSize-HeaderSize)
	}
}

func TestMaxPayload(t *testing.T) {
	w := newWirePair(t, 2)
	big := make([]byte, entSize-HeaderSize)
	for i := range big {
		big[i] = byte(i)
	}
	if err := w.push(t, big); err != nil {
		t.Fatal(err)
	}
	e, _ := w.r.Poll()
	if !bytes.Equal(e.Payload, big) {
		t.Fatal("max payload corrupted")
	}
}

func TestAccessors(t *testing.T) {
	w := newWirePair(t, 4)
	if w.r.n != 4 || w.s.n != 4 {
		t.Fatalf("slots = %d/%d", w.r.n, w.s.n)
	}
	if w.r.entrySize != entSize || w.s.entrySize != entSize {
		t.Fatal("entry size wrong")
	}
	w.push(t, []byte{1})
	w.r.Poll()
	if w.r.consumed != 1 {
		t.Fatalf("pending = %d", w.r.consumed)
	}
}

// Property: for any interleaving of pushes (when credits allow) and
// polls, the receiver observes exactly the pushed payload sequence, in
// order, with conservation of credits.
func TestLedgerFIFOProperty(t *testing.T) {
	f := func(ops []bool, slotSel uint8) bool {
		slots := int(slotSel%7) + 1
		buf := make([]byte, slots*entSize)
		r, err := NewReceiver(buf, entSize, nil)
		if err != nil {
			return false
		}
		s, err := NewSender(mem.RemoteBuffer{Addr: 0, RKey: 0, Len: len(buf)}, entSize)
		if err != nil {
			return false
		}
		var pushed, polled []byte
		var k byte
		for _, doPush := range ops {
			if doPush {
				res, err := s.Reserve()
				if errors.Is(err, ErrNoCredit) {
					continue
				}
				ent := make([]byte, entSize)
				if Encode(ent, res.Seq, []byte{k}) != nil {
					return false
				}
				copy(buf[res.Slot*entSize:], ent)
				pushed = append(pushed, k)
				k++
			} else {
				if e, ok := r.Poll(); ok {
					polled = append(polled, e.Payload[0])
					if s.AddCredits(r.TakeCredits()) != nil {
						return false
					}
				}
			}
			// Conservation: credits + in-flight == slots.
			inFlight := len(pushed) - len(polled) + int(r.consumed)
			if s.credits+inFlight != slots {
				return false
			}
		}
		// Drain.
		for {
			e, ok := r.Poll()
			if !ok {
				break
			}
			polled = append(polled, e.Payload[0])
		}
		return bytes.Equal(pushed, polled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

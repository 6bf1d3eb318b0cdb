package nicsim

import (
	"bytes"
	"testing"
	"testing/quick"

	"photon/internal/mem"
)

// Property: every frame encoder/decoder pair round-trips arbitrary
// field values exactly.
func TestWireSendRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, psn uint64, payload []byte) bool {
		h := header{typ: fSend, srcQPN: src, dstQPN: dst, psn: psn}
		h2, body, err := parseHeader(encodeSend(h, payload))
		if err != nil || h2 != h {
			return false
		}
		return bytes.Equal(payload, body) || (len(payload) == 0 && len(body) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireWriteRoundTripProperty(t *testing.T) {
	f := func(raddr uint64, rkey uint32, payload []byte) bool {
		h := header{typ: fWrite, srcQPN: 1, dstQPN: 2, psn: 3}
		frame := encodeWrite(h, raddr, rkey, payload)
		_, body, err := parseHeader(frame)
		if err != nil {
			return false
		}
		ra2, rk2, payload2, err := decodeWrite(body)
		if err != nil || ra2 != raddr || rk2 != rkey {
			return false
		}
		return bytes.Equal(payload, payload2) || (len(payload) == 0 && len(payload2) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireReadRoundTripProperty(t *testing.T) {
	f := func(raddr uint64, rkey uint32, length uint16) bool {
		h := header{typ: fRead, srcQPN: 9, dstQPN: 8, psn: 7}
		frame := encodeRead(h, raddr, rkey, int(length))
		_, body, err := parseHeader(frame)
		if err != nil {
			return false
		}
		ra2, rk2, n2, err := decodeRead(body)
		return err == nil && ra2 == raddr && rk2 == rkey && n2 == int(length)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireAtomicRoundTripProperty(t *testing.T) {
	f := func(kind bool, raddr uint64, rkey uint32, operand, compare uint64) bool {
		k := byte(atomicFAdd)
		if kind {
			k = atomicCSwap
		}
		h := header{typ: fAtomic, srcQPN: 4, dstQPN: 5, psn: 6}
		frame := encodeAtomic(h, k, raddr, rkey, operand, compare)
		_, body, err := parseHeader(frame)
		if err != nil {
			return false
		}
		k2, ra2, rk2, op2, cmp2, err := decodeAtomic(body)
		return err == nil && k2 == k && ra2 == raddr && rk2 == rkey && op2 == operand && cmp2 == compare
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireStatusAndResponses(t *testing.T) {
	h := header{typ: fAck, srcQPN: 1, dstQPN: 2, psn: 42}
	_, body, err := parseHeader(encodeStatus(h, StatusRNRExceeded))
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeStatus(body)
	if err != nil || st != StatusRNRExceeded {
		t.Fatalf("status round trip: %v %v", st, err)
	}

	h.typ = fAtomicResp
	_, body, _ = parseHeader(encodeAtomicResp(h, 0xDEADBEEFCAFE))
	v, err := decodeAtomicResp(body)
	if err != nil || v != 0xDEADBEEFCAFE {
		t.Fatalf("atomic response round trip: %v %v", v, err)
	}
}

func TestWireShortFrames(t *testing.T) {
	if _, _, err := parseHeader([]byte{1, 2}); err == nil {
		t.Fatal("short header accepted")
	}
	if _, _, _, err := decodeWrite(make([]byte, 5)); err == nil {
		t.Fatal("short write accepted")
	}
	if _, _, _, err := decodeRead(make([]byte, 3)); err == nil {
		t.Fatal("short read accepted")
	}
	if _, _, _, _, _, err := decodeAtomic(make([]byte, 10)); err == nil {
		t.Fatal("short atomic accepted")
	}
	if _, err := decodeStatus(nil); err == nil {
		t.Fatal("short status accepted")
	}
	if _, err := decodeAtomicResp(make([]byte, 4)); err == nil {
		t.Fatal("short atomic response accepted")
	}
}

// FuzzNicsimWire feeds arbitrary frames to parseHeader and to every
// body decoder. h is the frame's head, bounded to the longest fixed
// part (header plus atomic body) so minimization stays fast; extra
// appends that many patterned payload bytes. No decoder may panic, an
// accepted payload must be the tail of the input (never bytes from
// elsewhere), and re-encoding what a decoder accepted must reproduce
// the bytes it read, from a recycled frame buffer.
func FuzzNicsimWire(f *testing.F) {
	h := header{typ: fWrite, srcQPN: 1, dstQPN: 2, psn: 3}
	for _, fr := range [][]byte{
		encodeSend(header{typ: fSend, srcQPN: 7, psn: 1}, []byte("hello")),
		encodeWrite(h, 0x1000, 9, []byte{1, 2, 3}),
		encodeRead(header{typ: fRead, psn: 5}, 0x2000, 4, 64),
		encodeAtomic(header{typ: fAtomic, psn: 6}, atomicCSwap, 0x3008, 2, 5, 6),
		encodeStatus(header{typ: fNak, psn: 8}, StatusRNRExceeded),
		encodeAtomicResp(header{typ: fAtomicResp, psn: 9}, 42),
	} {
		f.Add(append([]byte(nil), fr...), uint16(0))
	}
	f.Add([]byte{byte(fWrite), 1, 2}, uint16(100))
	f.Fuzz(func(t *testing.T, head []byte, extra uint16) {
		if len(head) > hdrLen+atomicBodyLen {
			head = head[:hdrLen+atomicBodyLen]
		}
		in := append([]byte(nil), head...)
		for i := 0; i < int(extra); i++ {
			in = append(in, byte(i))
		}
		h, body, err := parseHeader(in)
		if err != nil {
			return
		}
		if !isTail(in, body) || len(body) != len(in)-hdrLen {
			t.Fatalf("header accepted a %d-byte body from a %d-byte frame", len(body), len(in))
		}
		same := func(what string, enc []byte, n int) {
			t.Helper()
			if !bytes.Equal(enc, in[:n]) {
				t.Fatalf("%s round trip:\n got % x\nwant % x", what, enc, in[:n])
			}
			mem.PutFrame(enc)
		}
		same("send", encodeSend(h, body), len(in))
		if raddr, rkey, payload, err := decodeWrite(body); err == nil {
			if !isTail(in, payload) || len(payload) != len(body)-writeHdrLen {
				t.Fatalf("write accepted a %d-byte payload from a %d-byte body", len(payload), len(body))
			}
			same("write", encodeWrite(h, raddr, rkey, payload), len(in))
		}
		if raddr, rkey, length, err := decodeRead(body); err == nil {
			if length < 0 {
				t.Fatalf("read accepted a negative length %d", length)
			}
			same("read", encodeRead(h, raddr, rkey, length), hdrLen+readBodyLen)
		}
		if kind, raddr, rkey, operand, compare, err := decodeAtomic(body); err == nil {
			same("atomic", encodeAtomic(h, kind, raddr, rkey, operand, compare), hdrLen+atomicBodyLen)
		}
		if st, err := decodeStatus(body); err == nil {
			same("status", encodeStatus(h, st), hdrLen+1)
		}
		if v, err := decodeAtomicResp(body); err == nil {
			same("atomic response", encodeAtomicResp(h, v), hdrLen+8)
		}
	})
}

// isTail reports whether sub is the last len(sub) bytes of b, by
// identity rather than content.
func isTail(b, sub []byte) bool {
	if len(sub) == 0 {
		return true
	}
	return len(sub) <= len(b) && &sub[len(sub)-1] == &b[len(b)-1] && &sub[0] == &b[len(b)-len(sub)]
}

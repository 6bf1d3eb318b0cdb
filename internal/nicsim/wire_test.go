package nicsim

import (
	"bytes"
	"testing"
	"testing/quick"
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

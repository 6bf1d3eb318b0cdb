package shm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzShmFrame feeds arbitrary request headers and body lengths to
// the ring frame decoder: h is what the agent reads of a body (its
// first cSwapBodyLen bytes at most), and a write's payload adds extra
// bytes beyond it. The decoder must never panic, and whatever it
// accepts must be a frame the encoder reproduces byte for byte, with a
// length prefix equal to the body length it was given.
func FuzzShmFrame(f *testing.F) {
	var hdr [maxFixedLen]byte
	for _, fr := range []frame{
		{op: opWrite, signaled: true, token: 7, raddr: 0x1000, rkey: 3, n: 5},
		{op: opWrite, token: 1<<63 | 1, raddr: ^uint64(0), rkey: 1},
		{op: opRead, token: 9, raddr: 0x2040, rkey: 2, n: 64},
		{op: opFAdd, token: 11, raddr: 0x3008, rkey: 4, operand: 5},
		{op: opCSwap, token: 13, raddr: 0x4010, rkey: 5, operand: 1, swap: 2},
	} {
		h := fr.encode(hdr[:])[lenPrefix:]
		f.Add(append([]byte(nil), h...), uint16(fr.bodyLen()-len(h)))
	}
	f.Add([]byte{opRead, 1, 2, 3}, uint16(0))
	f.Add([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(0))
	f.Fuzz(func(t *testing.T, h []byte, extra uint16) {
		if len(h) > cSwapBodyLen {
			h = h[:cSwapBodyLen]
		}
		bodyLen := len(h) + int(extra)
		fr, err := decodeFrame(h, bodyLen)
		if err != nil {
			return
		}
		if fr.n < 0 || fr.bodyLen() != bodyLen {
			t.Fatalf("decoded %+v from a %d-byte body", fr, bodyLen)
		}
		enc := fr.encode(hdr[:])
		if got := int(binary.LittleEndian.Uint32(enc)); got != bodyLen {
			t.Fatalf("re-encoded length prefix %d, body was %d bytes", got, bodyLen)
		}
		if body := enc[lenPrefix:]; len(body) > len(h) || !bytes.Equal(body, h[:len(body)]) {
			t.Fatalf("decode/encode changed the frame:\n got % x\nwant % x", body, h)
		}
	})
}

package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// frame is one request's fixed fields. A write's payload follows its
// header in the ring and is not part of the frame.
type frame struct {
	op       byte
	signaled bool // opWrite
	token    uint64
	raddr    uint64
	rkey     uint32
	n        int    // opWrite payload length, opRead length
	operand  uint64 // opFAdd addend, opCSwap compare
	swap     uint64 // opCSwap
}

var errShortFrame = errors.New("shm: truncated frame")

// bodyLen is what the frame's length prefix carries.
func (f *frame) bodyLen() int {
	switch f.op {
	case opWrite:
		return writeBodyMin + f.n
	case opRead:
		return readBodyLen
	case opFAdd:
		return fAddBodyLen
	default:
		return cSwapBodyLen
	}
}

// encode writes the length prefix and the fixed body into hdr (at least
// maxFixedLen bytes), returning the encoded bytes. A write's payload
// goes after them.
func (f *frame) encode(hdr []byte) []byte {
	bl := f.bodyLen()
	binary.LittleEndian.PutUint32(hdr, uint32(bl))
	b := hdr[lenPrefix:]
	b[0] = f.op
	binary.LittleEndian.PutUint64(b[1:], f.token)
	if f.op == opWrite {
		b[9] = 0
		if f.signaled {
			b[9] = flagSignaled
		}
		binary.LittleEndian.PutUint64(b[10:], f.raddr)
		binary.LittleEndian.PutUint32(b[18:], f.rkey)
		return hdr[:lenPrefix+writeBodyMin]
	}
	binary.LittleEndian.PutUint64(b[9:], f.raddr)
	binary.LittleEndian.PutUint32(b[17:], f.rkey)
	switch f.op {
	case opRead:
		binary.LittleEndian.PutUint32(b[21:], uint32(f.n))
	case opFAdd:
		binary.LittleEndian.PutUint64(b[21:], f.operand)
	case opCSwap:
		binary.LittleEndian.PutUint64(b[21:], f.operand)
		binary.LittleEndian.PutUint64(b[29:], f.swap)
	}
	return hdr[:lenPrefix+bl]
}

// decodeFrame parses a request body of bodyLen bytes whose first
// min(bodyLen, cSwapBodyLen) bytes are in h. Nothing in the body is
// trusted: an unknown opcode or flag, or a length that does not match
// the opcode, is an error. The frame returned with an error carries
// whatever op and token could be read, so the initiator can be failed.
func decodeFrame(h []byte, bodyLen int) (frame, error) {
	var f frame
	if bodyLen < reqHdrLen || len(h) < min(bodyLen, cSwapBodyLen) {
		return f, errShortFrame
	}
	f.op = h[0]
	f.token = binary.LittleEndian.Uint64(h[1:])
	want := 0
	switch f.op {
	case opWrite:
		if bodyLen < writeBodyMin {
			return f, errShortFrame
		}
		if h[9]&^flagSignaled != 0 {
			return f, fmt.Errorf("shm: unknown write flags %#x", h[9])
		}
		f.signaled = h[9]&flagSignaled != 0
		f.raddr = binary.LittleEndian.Uint64(h[10:])
		f.rkey = binary.LittleEndian.Uint32(h[18:])
		f.n = bodyLen - writeBodyMin
		return f, nil
	case opRead:
		want = readBodyLen
	case opFAdd:
		want = fAddBodyLen
	case opCSwap:
		want = cSwapBodyLen
	default:
		return f, fmt.Errorf("shm: unknown opcode %d", f.op)
	}
	if bodyLen != want {
		return f, fmt.Errorf("shm: opcode %d body of %d bytes, want %d", f.op, bodyLen, want)
	}
	f.raddr = binary.LittleEndian.Uint64(h[9:])
	f.rkey = binary.LittleEndian.Uint32(h[17:])
	switch f.op {
	case opRead:
		f.n = int(binary.LittleEndian.Uint32(h[21:]))
	case opFAdd:
		f.operand = binary.LittleEndian.Uint64(h[21:])
	default:
		f.operand = binary.LittleEndian.Uint64(h[21:])
		f.swap = binary.LittleEndian.Uint64(h[29:])
	}
	return f, nil
}

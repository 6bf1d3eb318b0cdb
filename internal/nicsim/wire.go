package nicsim

import (
	"encoding/binary"
	"fmt"

	"photon/internal/mem"
)

// Wire frame types exchanged between NICs over the fabric. The format
// is a fixed header (type, source QPN, destination QPN, PSN) followed
// by a type-specific body. Responders echo the requester's PSN so the
// initiator can match responses to pending work requests, exactly the
// role the PSN plays in the IB transport.
type frameType uint8

const (
	fInvalid    frameType = iota
	fSend                 // body: payload
	fWrite                // body: raddr(8) rkey(4) payload
	fRead                 // body: raddr(8) rkey(4) length(4)
	fAtomic               // body: kind(1) raddr(8) rkey(4) operand(8) compare(8)
	fAck                  // body: status(1)
	fNak                  // body: status(1)
	fReadResp             // body: payload
	fAtomicResp           // body: value(8)
)

const (
	hdrLen      = 1 + 4 + 4 + 8
	atomicFAdd  = 1
	atomicCSwap = 2
)

// Fixed body lengths shared by the encoders and the decoders' short-
// frame checks.
const (
	writeHdrLen   = 8 + 4             // raddr | rkey
	readBodyLen   = 8 + 4 + 4         // raddr | rkey | length
	atomicBodyLen = 1 + 8 + 4 + 8 + 8 // kind | raddr | rkey | operand | compare
)

type header struct {
	typ    frameType
	srcQPN uint32
	dstQPN uint32
	psn    uint64
}

func putHeader(b []byte, h header) {
	b[0] = byte(h.typ)
	binary.LittleEndian.PutUint32(b[1:], h.srcQPN)
	binary.LittleEndian.PutUint32(b[5:], h.dstQPN)
	binary.LittleEndian.PutUint64(b[9:], h.psn)
}

func parseHeader(b []byte) (header, []byte, error) {
	if len(b) < hdrLen {
		return header{}, nil, fmt.Errorf("nicsim: short frame (%d bytes)", len(b))
	}
	h := header{
		typ:    frameType(b[0]),
		srcQPN: binary.LittleEndian.Uint32(b[1:]),
		dstQPN: binary.LittleEndian.Uint32(b[5:]),
		psn:    binary.LittleEndian.Uint64(b[9:]),
	}
	return h, b[hdrLen:], nil
}

// The encoders draw frame buffers from the frame pool (pool.go), so
// every body byte must be written explicitly — recycled buffers carry
// stale contents. The receiving NIC returns frames to the pool when
// delivery finishes (see onFrame).

func encodeSend(h header, payload []byte) []byte {
	b := mem.GetFrame(hdrLen + len(payload))
	putHeader(b, h)
	copy(b[hdrLen:], payload)
	return b
}

func encodeWrite(h header, raddr uint64, rkey uint32, payload []byte) []byte {
	b := mem.GetFrame(hdrLen + writeHdrLen + len(payload))
	putHeader(b, h)
	binary.LittleEndian.PutUint64(b[hdrLen:], raddr)
	binary.LittleEndian.PutUint32(b[hdrLen+8:], rkey)
	copy(b[hdrLen+writeHdrLen:], payload)
	return b
}

func decodeWrite(body []byte) (raddr uint64, rkey uint32, payload []byte, err error) {
	if len(body) < writeHdrLen {
		return 0, 0, nil, fmt.Errorf("nicsim: short write body")
	}
	raddr = binary.LittleEndian.Uint64(body)
	rkey = binary.LittleEndian.Uint32(body[8:])
	return raddr, rkey, body[writeHdrLen:], nil
}

func encodeRead(h header, raddr uint64, rkey uint32, length int) []byte {
	b := mem.GetFrame(hdrLen + readBodyLen)
	putHeader(b, h)
	binary.LittleEndian.PutUint64(b[hdrLen:], raddr)
	binary.LittleEndian.PutUint32(b[hdrLen+8:], rkey)
	binary.LittleEndian.PutUint32(b[hdrLen+12:], uint32(length))
	return b
}

func decodeRead(body []byte) (raddr uint64, rkey uint32, length int, err error) {
	if len(body) < readBodyLen {
		return 0, 0, 0, fmt.Errorf("nicsim: short read body")
	}
	raddr = binary.LittleEndian.Uint64(body)
	rkey = binary.LittleEndian.Uint32(body[8:])
	length = int(binary.LittleEndian.Uint32(body[12:]))
	return raddr, rkey, length, nil
}

func encodeAtomic(h header, kind byte, raddr uint64, rkey uint32, operand, compare uint64) []byte {
	b := mem.GetFrame(hdrLen + atomicBodyLen)
	putHeader(b, h)
	b[hdrLen] = kind
	binary.LittleEndian.PutUint64(b[hdrLen+1:], raddr)
	binary.LittleEndian.PutUint32(b[hdrLen+9:], rkey)
	binary.LittleEndian.PutUint64(b[hdrLen+13:], operand)
	binary.LittleEndian.PutUint64(b[hdrLen+21:], compare)
	return b
}

func decodeAtomic(body []byte) (kind byte, raddr uint64, rkey uint32, operand, compare uint64, err error) {
	if len(body) < atomicBodyLen {
		return 0, 0, 0, 0, 0, fmt.Errorf("nicsim: short atomic body")
	}
	kind = body[0]
	raddr = binary.LittleEndian.Uint64(body[1:])
	rkey = binary.LittleEndian.Uint32(body[9:])
	operand = binary.LittleEndian.Uint64(body[13:])
	compare = binary.LittleEndian.Uint64(body[21:])
	return kind, raddr, rkey, operand, compare, nil
}

func encodeStatus(h header, st Status) []byte {
	b := mem.GetFrame(hdrLen + 1)
	putHeader(b, h)
	b[hdrLen] = byte(st)
	return b
}

func decodeStatus(body []byte) (Status, error) {
	if len(body) < 1 {
		return StatusLocalError, fmt.Errorf("nicsim: short status body")
	}
	return Status(body[0]), nil
}

func encodeAtomicResp(h header, value uint64) []byte {
	b := mem.GetFrame(hdrLen + 8)
	putHeader(b, h)
	binary.LittleEndian.PutUint64(b[hdrLen:], value)
	return b
}

func decodeAtomicResp(body []byte) (uint64, error) {
	if len(body) < 8 {
		return 0, fmt.Errorf("nicsim: short atomic response")
	}
	return binary.LittleEndian.Uint64(body), nil
}

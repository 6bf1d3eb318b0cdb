package tcp

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"photon/internal/mem"
)

// FuzzTCPHandshake feeds arbitrary bytes to the three decoders that
// read what a peer sends before any frame is trusted: the hello
// (parseHello), a rank's exchange gather at the root (decodeExg) and
// the root's exchange broadcast (decodeExgResp). h is the head of the
// input, bounded so minimization stays fast; extra appends that many
// patterned bytes, standing in for blob bodies. No decoder may panic,
// and whatever one accepts must re-encode to the bytes it was given.
func FuzzTCPHandshake(f *testing.F) {
	hs := encodeHello(3, 1, 1<<40)
	f.Add(hs[:], uint16(0))
	f.Add(encodeExgResp([][]byte{[]byte("rank0"), nil, []byte("r2")})[1:], uint16(0))
	f.Add(encodeExgResp([][]byte{make([]byte, 300)})[1:9], uint16(300))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(64))
	f.Add(encodeExg([]byte("blob"))[1:], uint16(0))
	f.Add(encodeExg(make([]byte, 300))[1:5], uint16(300))
	f.Fuzz(func(t *testing.T, h []byte, extra uint16) {
		const maxHead = 64
		if len(h) > maxHead {
			h = h[:maxHead]
		}
		in := append([]byte(nil), h...)
		for i := 0; i < int(extra); i++ {
			in = append(in, byte(i))
		}

		if rank, flags, applied, err := parseHello(in); err == nil {
			if rank < 0 {
				t.Fatalf("hello accepted a negative rank %d", rank)
			}
			if enc := encodeHello(rank, flags, applied); !bytes.Equal(enc[:], in[:hsLen]) {
				t.Fatalf("hello round trip:\n got % x\nwant % x", enc, in[:hsLen])
			}
		}

		if blob, err := decodeExg(in); err == nil {
			if enc := encodeExg(blob)[1:]; !bytes.Equal(enc, in) {
				t.Fatalf("exchange gather round trip:\n got % x\nwant % x", enc, in)
			}
		}

		blobs, err := decodeExgResp(in)
		if err != nil {
			return
		}
		body := encodeExgResp(blobs)[1:]
		if len(body) > len(in) || !bytes.Equal(body, in[:len(body)]) {
			t.Fatalf("exchange response round trip:\n got % x\nwant a prefix of % x", body, in)
		}
	})
}

// FuzzTCPFrame feeds arbitrary bodies to decodeFrame, the parser of
// every data frame a peer sends after the handshake. It never panics;
// an unknown opcode and a body shorter than its opcode's fixed part are
// rejected; and an accepted body re-encodes, through writeFrame and the
// request and response encoders the backend sends with, to the bytes
// it was decoded from (a fixed-size body to its prefix, since bytes
// past it are ignored).
func FuzzTCPFrame(f *testing.F) {
	wf := writeFrame([]byte("payload"), 1<<40, 7, 99, true)
	f.Add(append([]byte(nil), wf...))
	mem.PutFrame(wf)
	for _, seed := range [][]byte{
		encodeRead(3, 1<<32, 9, 4096),
		encodeAtomic(opFAdd, 4, 64, 2, 1, 0),
		encodeAtomic(opCSwap, 5, 64, 2, 10, 20),
		encodeNack(17),
		encodeReadResp(6, []byte{1, 2, 3}, false),
		encodeReadResp(6, nil, true),
		encodeAtomicResp(8, 1234, false),
		encodeHeartbeat(1, 2, 3),
		encodeExg([]byte("blob")),
		{opWrite, 0xFF},
		{0xEE, 1, 2, 3},
	} {
		f.Add(seed)
	}
	// Each opcode's fixed part is what its encoder writes with no
	// payload; opExg and opExgResp bodies have their own decoders.
	wf = writeFrame(nil, 0, 0, 0, false)
	fixed := map[byte]int{
		opWrite:      len(wf),
		opRead:       len(encodeRead(0, 0, 0, 0)),
		opFAdd:       len(encodeAtomic(opFAdd, 0, 0, 0, 0, 0)),
		opCSwap:      len(encodeAtomic(opCSwap, 0, 0, 0, 0, 0)),
		opNack:       len(encodeNack(0)),
		opReadResp:   len(encodeReadResp(0, nil, false)),
		opAtomicResp: len(encodeAtomicResp(0, 0, false)),
		opExg:        1,
		opExgResp:    1,
		opHeartbeat:  len(encodeHeartbeat(0, 0, 0)),
	}
	mem.PutFrame(wf)
	f.Fuzz(func(t *testing.T, in []byte) {
		fr, ok := decodeFrame(in)
		if len(in) == 0 {
			if ok {
				t.Fatal("empty body accepted")
			}
			return
		}
		fixedLen, known := fixed[in[0]]
		switch {
		case !known && ok:
			t.Fatalf("unknown opcode %d accepted", in[0])
		case len(in) < fixedLen && ok:
			t.Fatalf("opcode %d body of %d bytes accepted, fixed part is %d", in[0], len(in), fixedLen)
		case !ok:
			return
		}
		var enc []byte
		exact := false
		switch fr.op {
		case opWrite:
			enc = writeFrame(fr.payload, fr.raddr, fr.rkey, fr.token, fr.signaled)
			defer mem.PutFrame(enc)
			exact = true
		case opRead:
			enc = encodeRead(fr.token, fr.raddr, fr.rkey, fr.n)
		case opFAdd, opCSwap:
			enc = encodeAtomic(fr.op, fr.token, fr.raddr, fr.rkey, fr.operand, fr.swap)
		case opNack:
			enc = encodeNack(fr.seq)
		case opReadResp:
			enc = encodeReadResp(fr.token, fr.payload, fr.failed)
			exact = !fr.failed
		case opAtomicResp:
			enc = encodeAtomicResp(fr.token, fr.value, fr.failed)
		case opExg, opExgResp:
			enc = append([]byte{fr.op}, fr.payload...)
			exact = true
		case opHeartbeat:
			enc = encodeHeartbeat(fr.hb[0], fr.hb[1], fr.hb[2])
		}
		if len(enc) > len(in) || exact && len(enc) != len(in) || !bytes.Equal(enc, in[:len(enc)]) {
			t.Fatalf("opcode %d round trip:\n got % x\nwant % x", fr.op, enc, in)
		}
	})
}

// A gather whose length prefix overruns its frame, or falls short of
// it, is dropped at the root rather than queued truncated or padded; a
// well-formed one is queued whole.
func TestExchangeGatherRejectsBadPrefix(t *testing.T) {
	b := &Backend{exgGather: make([]mem.Queue[[]byte], 2)}
	b.exgCond = sync.NewCond(&b.exgMu)
	good := binary.LittleEndian.AppendUint32(nil, 12)
	good = append(good, "ledger arena"...)
	over := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(over, uint32(len(good)))
	under := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(under, uint32(len(good)-5))
	for _, body := range [][]byte{over, under, good[:3], nil} {
		b.handleExg(1, body)
		if n := b.exgGather[1].Len(); n != 0 {
			blob, _ := b.exgGather[1].PopFront()
			t.Fatalf("malformed gather % x queued (%d queued, head %q)", body, n, blob)
		}
	}
	b.handleExg(1, good)
	if blob, ok := b.exgGather[1].PopFront(); !ok || string(blob) != "ledger arena" {
		t.Fatalf("well-formed gather queued as %q (ok %v)", blob, ok)
	}
}

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

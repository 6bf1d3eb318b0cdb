package tcp

import (
	"bytes"
	"testing"
)

// FuzzTCPHandshake feeds arbitrary bytes to the two decoders that read
// what a peer sends before any frame is trusted: the hello (parseHello)
// and the root's exchange broadcast (decodeExgResp). h is the head of
// the input, bounded so minimization stays fast; extra appends that
// many patterned bytes, standing in for blob bodies. Neither decoder
// may panic, and whatever one accepts must re-encode to the bytes it
// was given.
func FuzzTCPHandshake(f *testing.F) {
	hs := encodeHello(3, 1, 1<<40)
	f.Add(hs[:], uint16(0))
	f.Add(encodeExgResp([][]byte{[]byte("rank0"), nil, []byte("r2")})[1:], uint16(0))
	f.Add(encodeExgResp([][]byte{make([]byte, 300)})[1:9], uint16(300))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, uint16(64))
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

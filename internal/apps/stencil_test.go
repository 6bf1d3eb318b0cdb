package apps

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refBand is the byte-encoded band the stencil used to sweep: every
// cell decoded from and re-encoded into the registered []byte. It is
// kept as the reference the float kernel must match bit for bit.
type refBand struct {
	n, h int
	buf  []byte
}

func (b *refBand) at(row, col int) float64 {
	return math.Float64frombits(binary.NativeEndian.Uint64(b.buf[(row*b.n+col)*8:]))
}

func (b *refBand) set(row, col int, v float64) {
	binary.NativeEndian.PutUint64(b.buf[(row*b.n+col)*8:], math.Float64bits(v))
}

func (b *refBand) rowBytes(row int) []byte { return b.buf[row*b.n*8 : (row+1)*b.n*8] }

func refJacobiSweep(cur, next *refBand, topBoundary, bottomBoundary bool) {
	h, n := cur.h, cur.n
	for r := 1; r <= h; r++ {
		if (topBoundary && r == 1) || (bottomBoundary && r == h) {
			copy(next.rowBytes(r), cur.rowBytes(r))
			continue
		}
		for c := 0; c < n; c++ {
			if c == 0 || c == n-1 {
				next.set(r, c, cur.at(r, c))
				continue
			}
			v := 0.25 * (cur.at(r-1, c) + cur.at(r+1, c) + cur.at(r, c-1) + cur.at(r, c+1))
			next.set(r, c, v)
		}
	}
}

// TestJacobiSweepMatchesByteReference sweeps random bands with the
// float kernel and the byte-encoded reference side by side and checks
// every byte of both bands after every iteration, over narrow and odd
// widths, one-row bands and every top/bottom boundary combination.
// Between iterations fresh halo rows land in both, as neighbor puts
// would deliver them.
func TestJacobiSweepMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(b []byte) {
		for i := 0; i+8 <= len(b); i += 8 {
			binary.NativeEndian.PutUint64(b[i:], math.Float64bits(rng.NormFloat64()*100))
		}
	}
	for _, n := range []int{1, 2, 3, 8, 33} {
		for _, h := range []int{1, 2, 5} {
			for _, top := range []bool{false, true} {
				for _, bottom := range []bool{false, true} {
					cur, nxt := newBand(n, h), newBand(n, h)
					fill(cur.buf)
					fill(nxt.buf)
					rc := &refBand{n: n, h: h, buf: bytes.Clone(cur.buf)}
					rn := &refBand{n: n, h: h, buf: bytes.Clone(nxt.buf)}
					for iter := 0; iter < 6; iter++ {
						jacobiSweep(cur, nxt, top, bottom)
						refJacobiSweep(rc, rn, top, bottom)
						if !bytes.Equal(nxt.buf, rn.buf) {
							t.Fatalf("n=%d h=%d top=%v bottom=%v iter %d: float kernel differs from the byte reference", n, h, top, bottom, iter)
						}
						cur, nxt = nxt, cur
						rc, rn = rn, rc
						fill(cur.rowBytes(0))
						fill(cur.rowBytes(h + 1))
						copy(rc.rowBytes(0), cur.rowBytes(0))
						copy(rc.rowBytes(h+1), cur.rowBytes(h+1))
					}
				}
			}
		}
	}
}

// BenchmarkJacobiSweep times one sweep of a 128×256 band, the band
// each of stencil_halo's two ranks owns.
func BenchmarkJacobiSweep(b *testing.B) {
	cur, nxt := newBand(256, 128), newBand(256, 128)
	initBand(cur, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jacobiSweep(cur, nxt, false, false)
		cur, nxt = nxt, cur
	}
}

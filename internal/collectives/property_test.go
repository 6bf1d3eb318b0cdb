package collectives_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/vsim"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// newCommsCfg boots n ranks with a shared communicator config.
func newCommsCfg(t *testing.T, n int, cfg collectives.Config) []*collectives.Comm {
	t.Helper()
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	comms := make([]*collectives.Comm, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ph, err := core.Init(cl.Backend(r), core.Config{})
			if err != nil {
				errs[r] = err
				return
			}
			comms[r] = collectives.NewWithConfig(ph, cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return comms
}

// approxEq compares reduction results: exact for Min/Max (no rounding),
// relative tolerance for Sum/Prod (combine order differs between the
// schedule-based algorithms and the serial reference).
func approxEq(op collectives.Op, got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	if op == collectives.OpMin || op == collectives.OpMax {
		return got == want
	}
	diff := math.Abs(got - want)
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	return diff <= 1e-9*scale
}

// serialReduce folds the per-rank vectors in rank order — the reference
// every algorithm must match.
func serialReduce(vecs [][]float64, op collectives.Op) []float64 {
	out := append([]float64(nil), vecs[0]...)
	for r := 1; r < len(vecs); r++ {
		for i := range out {
			switch op {
			case collectives.OpSum:
				out[i] += vecs[r][i]
			case collectives.OpMin:
				out[i] = math.Min(out[i], vecs[r][i])
			case collectives.OpMax:
				out[i] = math.Max(out[i], vecs[r][i])
			case collectives.OpProd:
				out[i] *= vecs[r][i]
			}
		}
	}
	return out
}

// TestCollectivesMatchReference drives every collective across job
// sizes 1..17 (non-powers-of-two included), random ops, vector lengths
// spanning all three allreduce algorithms, and random roots, comparing
// each result against a serial in-process reference.
func TestCollectivesMatchReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17}
	// Config variants rotate radix, arena ceiling, and forced algorithm
	// so k-nomial trees, the ring, and the tree-compose path all run at
	// sizes where size-based selection alone would not pick them.
	cfgs := []collectives.Config{
		{},
		{Radix: 4, SmallAllreduceMax: 128},
		{Radix: 3, ForceAllreduce: "tree"},
		{SmallAllreduceMax: 64, ForceAllreduce: "ring"},
	}
	ops := []collectives.Op{collectives.OpSum, collectives.OpMin, collectives.OpMax, collectives.OpProd}
	lens := []int{0, 1, 3, 8, 17, 64, 300}
	for si, n := range sizes {
		n := n
		cfg := cfgs[si%len(cfgs)]
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			comms := newCommsCfg(t, n, cfg)
			rng := rand.New(rand.NewSource(int64(1000 + n)))
			for trial := 0; trial < 4; trial++ {
				op := ops[rng.Intn(len(ops))]
				L := lens[rng.Intn(len(lens))]
				root := rng.Intn(n)

				// Per-rank vectors. Magnitudes near 1 keep OpProd
				// numerically stable across 17 factors.
				vecs := make([][]float64, n)
				for r := range vecs {
					vecs[r] = make([]float64, L)
					for i := range vecs[r] {
						vecs[r][i] = 0.5 + rng.Float64()
					}
				}
				want := serialReduce(vecs, op)

				// Per-rank blobs for the byte-moving collectives.
				blobs := make([][]byte, n)
				for r := range blobs {
					blobs[r] = make([]byte, rng.Intn(40))
					rng.Read(blobs[r])
				}
				bcastPayload := make([]byte, rng.Intn(500))
				rng.Read(bcastPayload)

				// All-to-all payload matrix: a2a[src][dst].
				a2a := make([][][]byte, n)
				for src := range a2a {
					a2a[src] = make([][]byte, n)
					for dst := range a2a[src] {
						a2a[src][dst] = make([]byte, rng.Intn(30))
						rng.Read(a2a[src][dst])
					}
				}

				runAll(t, comms, func(c *collectives.Comm) error {
					r := c.Rank()
					ar, err := c.Allreduce(vecs[r], op)
					if err != nil {
						return fmt.Errorf("allreduce: %w", err)
					}
					for i := range want {
						if !approxEq(op, ar[i], want[i]) {
							return fmt.Errorf("allreduce[%d] = %v, want %v (op %d, L %d)", i, ar[i], want[i], op, L)
						}
					}
					red, err := c.Reduce(root, vecs[r], op)
					if err != nil {
						return fmt.Errorf("reduce: %w", err)
					}
					if r == root {
						for i := range want {
							if !approxEq(op, red[i], want[i]) {
								return fmt.Errorf("reduce[%d] = %v, want %v", i, red[i], want[i])
							}
						}
					} else if red != nil {
						return fmt.Errorf("non-root reduce result")
					}
					var in []byte
					if r == root {
						in = bcastPayload
					}
					got, err := c.Bcast(root, in)
					if err != nil {
						return fmt.Errorf("bcast: %w", err)
					}
					if !bytes.Equal(got, bcastPayload) {
						return fmt.Errorf("bcast got %d bytes, want %d", len(got), len(bcastPayload))
					}
					ag, err := c.Allgather(blobs[r])
					if err != nil {
						return fmt.Errorf("allgather: %w", err)
					}
					for src := range ag {
						if !bytes.Equal(ag[src], blobs[src]) {
							return fmt.Errorf("allgather[%d] mismatch", src)
						}
					}
					ga, err := c.Gather(root, blobs[r])
					if err != nil {
						return fmt.Errorf("gather: %w", err)
					}
					if r == root {
						for src := range ga {
							if !bytes.Equal(ga[src], blobs[src]) {
								return fmt.Errorf("gather[%d] mismatch", src)
							}
						}
					}
					aa, err := c.Alltoall(a2a[r])
					if err != nil {
						return fmt.Errorf("alltoall: %w", err)
					}
					for src := range aa {
						if !bytes.Equal(aa[src], a2a[src][r]) {
							return fmt.Errorf("alltoall[%d] mismatch", src)
						}
					}
					return c.Barrier()
				})
			}
		})
	}
}

// TestAllreduceInPlaceLarge drives the segmented/pipelined paths with a
// vector large enough to cross multiple ring chunks and bcast segments.
func TestAllreduceInPlaceLarge(t *testing.T) {
	const n, L = 5, 40000 // 320KB encoded: ring path, multi-segment chunks
	comms := newComms(t, n)
	want := make([]float64, L)
	for i := range want {
		for r := 0; r < n; r++ {
			want[i] += float64(r) + float64(i%97)/97
		}
	}
	runAll(t, comms, func(c *collectives.Comm) error {
		vec := make([]float64, L)
		for i := range vec {
			vec[i] = float64(c.Rank()) + float64(i%97)/97
		}
		if err := c.AllreduceInPlace(vec, collectives.OpSum); err != nil {
			return err
		}
		for i := range vec {
			if !approxEq(collectives.OpSum, vec[i], want[i]) {
				return fmt.Errorf("vec[%d] = %v, want %v", i, vec[i], want[i])
			}
		}
		return nil
	})
}

// TestRingRendezvousChunks runs the ring at job sizes 2, 3, 4 and 7
// with every chunk above the eager threshold, so each step is a
// rendezvous read into the posted-receive window, for all four ops.
// Inputs are small integers, so every op is exact and the result must
// equal the serial reference bit for bit. The last rank sleeps before
// entering each call: its left neighbor's step-0 RTS arrives before the
// sleeper has posted anything (the owned-copy fallback). At n=2 the
// ring has two steps, fewer than the window's three banks.
func TestRingRendezvousChunks(t *testing.T) {
	ops := []collectives.Op{collectives.OpSum, collectives.OpMin, collectives.OpMax, collectives.OpProd}
	for _, n := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			comms := make([]*collectives.Comm, n)
			phs := make([]*core.Photon, n)
			var wg sync.WaitGroup
			errs := make([]error, n)
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					phs[r], errs[r] = core.Init(cl.Backend(r), core.Config{})
					if errs[r] == nil {
						comms[r] = collectives.NewWithConfig(phs[r], collectives.Config{Timeout: waitT, ForceAllreduce: "ring"})
					}
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			// Every chunk holds at least L/n doubles.
			per := phs[0].EagerThreshold()/8 + 3
			L := n*per + n/2
			for rep := 0; rep < 2; rep++ {
				for _, op := range ops {
					vecs := make([][]float64, n)
					for r := range vecs {
						vecs[r] = make([]float64, L)
						for i := range vecs[r] {
							vecs[r][i] = float64((r+i+rep)%5 + 1)
						}
					}
					want := serialReduce(vecs, op)
					runAll(t, comms, func(c *collectives.Comm) error {
						if c.Rank() == n-1 {
							time.Sleep(2 * time.Millisecond)
						}
						vec := append([]float64(nil), vecs[c.Rank()]...)
						if err := c.AllreduceInPlace(vec, op); err != nil {
							return err
						}
						for i := range vec {
							if vec[i] != want[i] {
								return fmt.Errorf("op %d: vec[%d] = %v, want %v", op, i, vec[i], want[i])
							}
						}
						return nil
					})
				}
			}
		})
	}
}

// TestBcastInto exercises the known-length path: no header, deliveries
// posted straight into the caller's buffer, repeated to reuse state.
func TestBcastInto(t *testing.T) {
	const n = 4
	comms := newComms(t, n)
	for _, L := range []int{0, 9, 1000, 100000} {
		payload := make([]byte, L)
		for i := range payload {
			payload[i] = byte(i*13 + L)
		}
		for root := 0; root < n; root += 3 {
			runAll(t, comms, func(c *collectives.Comm) error {
				buf := make([]byte, L)
				if c.Rank() == root {
					copy(buf, payload)
				}
				if err := c.BcastInto(root, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, payload) {
					return fmt.Errorf("rank %d: bcastinto mismatch at L=%d", c.Rank(), L)
				}
				return nil
			})
		}
	}
}

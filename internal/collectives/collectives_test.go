package collectives_test

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/vsim"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

const waitT = 10 * time.Second

// newComms boots n Photon ranks and a communicator per rank whose
// calls time out after waitT.
func newComms(t *testing.T, n int) []*collectives.Comm {
	return newCommsWait(t, n, waitT)
}

// newCommsWait is newComms with each call bounded by timeout (<=0
// waits forever).
func newCommsWait(t *testing.T, n int, timeout time.Duration) []*collectives.Comm {
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
			comms[r] = collectives.New(ph, timeout)
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

// runAll runs fn concurrently on every rank and fails the test on any
// error.
func runAll(t *testing.T, comms []*collectives.Comm, fn func(c *collectives.Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(comms))
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *collectives.Comm) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			comms := newComms(t, n)
			// Phase counter: no rank may observe phase 2 while
			// another is still in phase 0.
			var phase sync.Map
			runAll(t, comms, func(c *collectives.Comm) error {
				phase.Store(c.Rank(), 1)
				if err := c.Barrier(); err != nil {
					return err
				}
				// After the barrier, everyone must be at phase >= 1.
				for r := 0; r < c.Size(); r++ {
					if v, ok := phase.Load(r); !ok || v.(int) < 1 {
						return fmt.Errorf("rank %d passed barrier before rank %d entered", c.Rank(), r)
					}
				}
				return c.Barrier() // barriers are reusable
			})
		})
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	comms := newComms(t, 4)
	for root := 0; root < 4; root++ {
		payload := []byte(fmt.Sprintf("broadcast from %d", root))
		runAll(t, comms, func(c *collectives.Comm) error {
			var in []byte
			if c.Rank() == root {
				in = payload
			}
			out, err := c.Bcast(root, in)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, payload) {
				return fmt.Errorf("rank %d got %q", c.Rank(), out)
			}
			return nil
		})
	}
}

func TestBcastLargePayloadRendezvous(t *testing.T) {
	comms := newComms(t, 3)
	big := make([]byte, 32*1024)
	for i := range big {
		big[i] = byte(i * 31)
	}
	runAll(t, comms, func(c *collectives.Comm) error {
		var in []byte
		if c.Rank() == 0 {
			in = big
		}
		out, err := c.Bcast(0, in)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, big) {
			return fmt.Errorf("rank %d corrupted broadcast", c.Rank())
		}
		return nil
	})
}

func TestReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			comms := newComms(t, n)
			runAll(t, comms, func(c *collectives.Comm) error {
				vec := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
				out, err := c.Reduce(0, vec, collectives.OpSum)
				if err != nil {
					return err
				}
				if c.Rank() != 0 {
					if out != nil {
						return fmt.Errorf("non-root got a result")
					}
					return nil
				}
				wantA, wantC := 0.0, 0.0
				for r := 0; r < n; r++ {
					wantA += float64(r)
					wantC += float64(r * r)
				}
				if out[0] != wantA || out[1] != float64(n) || out[2] != wantC {
					return fmt.Errorf("reduce = %v", out)
				}
				return nil
			})
		})
	}
}

func TestReduceMinMaxProd(t *testing.T) {
	comms := newComms(t, 4)
	runAll(t, comms, func(c *collectives.Comm) error {
		x := float64(c.Rank() + 1)
		mn, err := c.Allreduce([]float64{x}, collectives.OpMin)
		if err != nil || mn[0] != 1 {
			return fmt.Errorf("min = %v %v", mn, err)
		}
		mx, err := c.Allreduce([]float64{x}, collectives.OpMax)
		if err != nil || mx[0] != 4 {
			return fmt.Errorf("max = %v %v", mx, err)
		}
		pr, err := c.Allreduce([]float64{x}, collectives.OpProd)
		if err != nil || pr[0] != 24 {
			return fmt.Errorf("prod = %v %v", pr, err)
		}
		return nil
	})
}

func TestAllreduceScalar(t *testing.T) {
	comms := newComms(t, 3)
	runAll(t, comms, func(c *collectives.Comm) error {
		got, err := c.AllreduceScalar(float64(c.Rank()), collectives.OpSum)
		if err != nil {
			return err
		}
		if got != 3 { // 0+1+2
			return fmt.Errorf("allreduce scalar = %v", got)
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	comms := newComms(t, 4)
	runAll(t, comms, func(c *collectives.Comm) error {
		blob := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
		out, err := c.Gather(2, blob)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if out != nil {
				return fmt.Errorf("non-root received gather output")
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if len(out[r]) != 2 || out[r][0] != byte(r) || out[r][1] != byte(r*2) {
				return fmt.Errorf("gather[%d] = %v", r, out[r])
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			comms := newComms(t, n)
			runAll(t, comms, func(c *collectives.Comm) error {
				blob := []byte(fmt.Sprintf("rank-%d", c.Rank()))
				out, err := c.Allgather(blob)
				if err != nil {
					return err
				}
				for r := 0; r < n; r++ {
					want := fmt.Sprintf("rank-%d", r)
					if string(out[r]) != want {
						return fmt.Errorf("allgather[%d] = %q, want %q", r, out[r], want)
					}
				}
				return nil
			})
		})
	}
}

func TestAlltoall(t *testing.T) {
	comms := newComms(t, 4)
	runAll(t, comms, func(c *collectives.Comm) error {
		blobs := make([][]byte, 4)
		for dst := range blobs {
			blobs[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		out, err := c.Alltoall(blobs)
		if err != nil {
			return err
		}
		for src := 0; src < 4; src++ {
			if out[src][0] != byte(src) || out[src][1] != byte(c.Rank()) {
				return fmt.Errorf("alltoall[%d] = %v", src, out[src])
			}
		}
		return nil
	})
}

func TestAlltoallArityChecked(t *testing.T) {
	comms := newComms(t, 2)
	runAll(t, comms, func(c *collectives.Comm) error {
		if c.Rank() == 0 {
			if _, err := c.Alltoall(make([][]byte, 1)); err == nil {
				return fmt.Errorf("wrong arity accepted")
			}
		}
		return nil
	})
}

func TestBadRoots(t *testing.T) {
	comms := newComms(t, 2)
	c := comms[0]
	if _, err := c.Bcast(9, nil); err == nil {
		t.Fatal("bad bcast root accepted")
	}
	if _, err := c.Reduce(-1, nil, collectives.OpSum); err == nil {
		t.Fatal("bad reduce root accepted")
	}
	if _, err := c.Gather(5, nil); err == nil {
		t.Fatal("bad gather root accepted")
	}
}

func TestRepeatedMixedCollectives(t *testing.T) {
	comms := newComms(t, 3)
	runAll(t, comms, func(c *collectives.Comm) error {
		for iter := 0; iter < 10; iter++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			sum, err := c.AllreduceScalar(1, collectives.OpSum)
			if err != nil || sum != 3 {
				return fmt.Errorf("iter %d: sum=%v err=%v", iter, sum, err)
			}
			all, err := c.Allgather([]byte{byte(iter), byte(c.Rank())})
			if err != nil {
				return err
			}
			for r := 0; r < 3; r++ {
				if all[r][0] != byte(iter) || all[r][1] != byte(r) {
					return fmt.Errorf("iter %d allgather[%d]=%v", iter, r, all[r])
				}
			}
		}
		return nil
	})
}

func TestReduceNaNPropagation(t *testing.T) {
	comms := newComms(t, 2)
	runAll(t, comms, func(c *collectives.Comm) error {
		x := 1.0
		if c.Rank() == 1 {
			x = math.NaN()
		}
		out, err := c.AllreduceScalar(x, collectives.OpSum)
		if err != nil {
			return err
		}
		if !math.IsNaN(out) {
			return fmt.Errorf("NaN lost in reduction: %v", out)
		}
		return nil
	})
}

package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
)

// flakyBackend decorates a real backend, failing the first N armed
// PostWrites with a *wrapped* ErrWouldBlock — the shape any decorating
// transport (chaos injection, tracing shims) produces when it annotates
// backend errors with %w. The engine must treat a wrapped would-block
// exactly like the bare sentinel: park and retry, never fail the op.
//
// Regression guard for the identity-comparison bug photonvet's errwrap
// analyzer surfaced: `err != ErrWouldBlock` in the post/retry paths
// turned any wrapped would-block into a hard transport failure.
type flakyBackend struct {
	core.Backend
	armed atomic.Bool
	left  atomic.Int64 // armed PostWrite failures remaining
	fails atomic.Int64 // failures actually injected
}

func (f *flakyBackend) PostWrite(rank int, local []byte, raddr uint64, rkey uint32, token uint64, signaled bool) error {
	if f.armed.Load() && f.left.Add(-1) >= 0 {
		f.fails.Add(1)
		return fmt.Errorf("flaky transport: %w", core.ErrWouldBlock)
	}
	return f.Backend.PostWrite(rank, local, raddr, rkey, token, signaled)
}

// PostWriteBatch routes every request through the flaky PostWrite, so
// doorbell batches meet the armed fault too.
func (f *flakyBackend) PostWriteBatch(rank int, reqs []core.WriteReq) (int, error) {
	for i, r := range reqs {
		if err := f.PostWrite(rank, r.Local, r.RemoteAddr, r.RKey, r.Token, r.Signaled); err != nil {
			return i, err
		}
	}
	return len(reqs), nil
}

func TestWrappedWouldBlockRetries(t *testing.T) {
	cl, err := vsim.NewCluster(2, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	flaky := &flakyBackend{Backend: cl.Backend(0)}
	flaky.left.Store(3)
	backends := []core.Backend{flaky, cl.Backend(1)}
	phs := make([]*core.Photon, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			phs[r], errs[r] = core.Init(backends[r], core.Config{})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", r, err)
		}
	}
	defer phs[0].Close()
	defer phs[1].Close()

	// Rank 1 exports a target buffer; both ranks join the exchange.
	target := make([]byte, 4096)
	rb, _, err := phs[1].RegisterBuffer(target)
	if err != nil {
		t.Fatal(err)
	}
	descs := make([][]mem.RemoteBuffer, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			contrib := mem.RemoteBuffer{}
			if r == 1 {
				contrib = rb
			}
			descs[r], _ = phs[r].ExchangeBuffers(contrib)
		}(r)
	}
	wg.Wait()

	// Arm the fault and drive a put large enough for the direct-write
	// path (one PostWrite per attempt) from rank 0 into rank 1.
	flaky.armed.Store(true)
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := phs[0].PutBlocking(1, payload, descs[0][1], 0, 7, 0); err != nil {
		t.Fatalf("PutBlocking with wrapped would-block: %v", err)
	}
	lc, err := phs[0].WaitLocal(7, waitT)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Err != nil {
		t.Fatalf("completion carries error %v; a wrapped ErrWouldBlock must park and retry, not fail the op", lc.Err)
	}
	if flaky.fails.Load() == 0 {
		t.Fatal("fault was never injected; test exercised nothing")
	}
	flaky.armed.Store(false)
}

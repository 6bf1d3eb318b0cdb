package runtime_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
	"photon/internal/runtime"
)

const waitT = 10 * time.Second

// photons boots an n-rank vsim job.
func photons(t *testing.T, n int) []*core.Photon {
	t.Helper()
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	phs := make([]*core.Photon, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			phs[r], errs[r] = core.Init(cl.Backend(r), core.Config{})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return phs
}

// job boots n localities, registers actions via reg, and starts them.
func job(t *testing.T, n int, reg func(l *runtime.Locality)) []*runtime.Locality {
	t.Helper()
	return jobCfg(t, n, runtime.Config{Timeout: waitT}, reg)
}

func jobCfg(t *testing.T, n int, cfg runtime.Config, reg func(l *runtime.Locality)) []*runtime.Locality {
	t.Helper()
	locs := make([]*runtime.Locality, n)
	for r, ph := range photons(t, n) {
		l := runtime.NewLocality(ph, cfg)
		if reg != nil {
			reg(l)
		}
		locs[r] = l
	}
	for _, l := range locs {
		l.Start()
	}
	t.Cleanup(func() {
		for _, l := range locs {
			l.Shutdown()
		}
	})
	return locs
}

func TestCallRoundTrip(t *testing.T) {
	locs := job(t, 2, func(l *runtime.Locality) {
		l.RegisterAction("echo", func(ctx *runtime.Context) ([]byte, error) {
			return append([]byte("echo:"), ctx.Payload...), nil
		})
	})
	f, err := locs[0].Call(1, runtime.ActionIDFor("echo"), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Wait(waitT)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hello" {
		t.Fatalf("reply = %q", out)
	}
}

func TestCallCarriesSource(t *testing.T) {
	locs := job(t, 3, func(l *runtime.Locality) {
		l.RegisterAction("who", func(ctx *runtime.Context) ([]byte, error) {
			return []byte{byte(ctx.Src), byte(ctx.Rt.Rank())}, nil
		})
	})
	f, _ := locs[2].Call(1, runtime.ActionIDFor("who"), nil)
	out, err := f.Wait(waitT)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 1 {
		t.Fatalf("src/rank = %v", out)
	}
}

func TestApplyFireAndForget(t *testing.T) {
	var hits sync.Map
	locs := job(t, 2, func(l *runtime.Locality) {
		l.RegisterAction("mark", func(ctx *runtime.Context) ([]byte, error) {
			hits.Store(string(ctx.Payload), true)
			return nil, nil
		})
	})
	if err := locs[0].Apply(1, runtime.ActionIDFor("mark"), []byte("m1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitT)
	for {
		if _, ok := hits.Load("m1"); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("apply never executed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	locs := job(t, 2, func(l *runtime.Locality) {
		l.RegisterAction("fail", func(ctx *runtime.Context) ([]byte, error) {
			return nil, fmt.Errorf("deliberate failure on %d", ctx.Rt.Rank())
		})
	})
	f, _ := locs[0].Call(1, runtime.ActionIDFor("fail"), nil)
	_, err := f.Wait(waitT)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure on 1") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownActionError(t *testing.T) {
	locs := job(t, 2, nil)
	f, _ := locs[0].Call(1, runtime.ActionIDFor("nope"), nil)
	_, err := f.Wait(waitT)
	if err == nil || !strings.Contains(err.Error(), "unknown action") {
		t.Fatalf("err = %v", err)
	}
}

func TestBarrier(t *testing.T) {
	locs := job(t, 4, nil)
	var before, after sync.Map
	var wg sync.WaitGroup
	for r, l := range locs {
		wg.Add(1)
		go func(r int, l *runtime.Locality) {
			defer wg.Done()
			before.Store(r, true)
			if err := l.Barrier(); err != nil {
				t.Errorf("rank %d barrier: %v", r, err)
				return
			}
			for k := 0; k < 4; k++ {
				if _, ok := before.Load(k); !ok {
					t.Errorf("rank %d passed before rank %d entered", r, k)
				}
			}
			after.Store(r, true)
			if err := l.Barrier(); err != nil { // reusable
				t.Errorf("rank %d barrier 2: %v", r, err)
			}
		}(r, l)
	}
	wg.Wait()
}

func TestNestedCallsFromHandlers(t *testing.T) {
	// forward: rank1 handler calls rank2, returns its answer.
	locs := job(t, 3, func(l *runtime.Locality) {
		l.RegisterAction("leaf", func(ctx *runtime.Context) ([]byte, error) {
			return []byte{42}, nil
		})
		l.RegisterAction("forward", func(ctx *runtime.Context) ([]byte, error) {
			f, err := ctx.Rt.Call(2, runtime.ActionIDFor("leaf"), nil)
			if err != nil {
				return nil, err
			}
			return f.Wait(waitT)
		})
	})
	f, _ := locs[0].Call(1, runtime.ActionIDFor("forward"), nil)
	out, err := f.Wait(waitT)
	if err != nil || len(out) != 1 || out[0] != 42 {
		t.Fatalf("nested call: %v %v", err, out)
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	locs := job(t, 2, func(l *runtime.Locality) {
		l.RegisterAction("double", func(ctx *runtime.Context) ([]byte, error) {
			v := binary.LittleEndian.Uint64(ctx.Payload)
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, v*2)
			return out, nil
		})
	})
	const n = 200
	futs := make([]*runtime.Future, n)
	for i := 0; i < n; i++ {
		body := make([]byte, 8)
		binary.LittleEndian.PutUint64(body, uint64(i))
		f, err := locs[0].Call(1, runtime.ActionIDFor("double"), body)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	for i, f := range futs {
		out, err := f.Wait(waitT)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := binary.LittleEndian.Uint64(out); got != uint64(i*2) {
			t.Fatalf("call %d = %d", i, got)
		}
	}
	c := locs[1].Counters()
	if c.ParcelsExecuted < n {
		t.Fatalf("executed = %d", c.ParcelsExecuted)
	}
}

func TestLargeParcelRendezvous(t *testing.T) {
	locs := job(t, 2, func(l *runtime.Locality) {
		l.RegisterAction("sum", func(ctx *runtime.Context) ([]byte, error) {
			var s uint64
			for _, b := range ctx.Payload {
				s += uint64(b)
			}
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, s)
			return out, nil
		})
	})
	big := make([]byte, 128*1024)
	var want uint64
	for i := range big {
		big[i] = byte(i)
		want += uint64(byte(i))
	}
	f, _ := locs[0].Call(1, runtime.ActionIDFor("sum"), big)
	out, err := f.Wait(waitT)
	if err != nil || binary.LittleEndian.Uint64(out) != want {
		t.Fatalf("large parcel: %v sum=%d want=%d", err, binary.LittleEndian.Uint64(out), want)
	}
}

func TestActionNameCollisionDetected(t *testing.T) {
	locs := job(t, 1, nil)
	l := locs[0]
	// Same name re-registration is allowed.
	if _, err := l.RegisterAction("x", func(*runtime.Context) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RegisterAction("x", func(*runtime.Context) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("re-registration rejected: %v", err)
	}
}

func TestShutdownResolvesFutures(t *testing.T) {
	locs := job(t, 2, func(l *runtime.Locality) {
		l.RegisterAction("never", func(ctx *runtime.Context) ([]byte, error) {
			time.Sleep(time.Hour)
			return nil, nil
		})
	})
	// Don't actually dispatch to the sleeping handler (it would leak);
	// call an action that does not exist at a stopped locality instead.
	f, err := locs[0].Call(1, runtime.ActionIDFor("ghost"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// It resolves with unknown-action error; now shut down and verify
	// further sends fail.
	if _, err := f.Wait(waitT); err == nil {
		t.Fatal("expected unknown-action error")
	}
	locs[0].Shutdown()
	if err := locs[0].Apply(1, runtime.ActionIDFor("ghost"), nil); err != runtime.ErrStopped {
		t.Fatalf("apply after shutdown: %v", err)
	}
	locs[0].Shutdown() // idempotent
}

func TestGASPutGet(t *testing.T) {
	locs := job(t, 3, nil)
	gas := make([]*runtime.GlobalArray, 3)
	var wg sync.WaitGroup
	for r, l := range locs {
		wg.Add(1)
		go func(r int, l *runtime.Locality) {
			defer wg.Done()
			g, err := runtime.NewGlobalArray(l, 4096)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			gas[r] = g
		}(r, l)
	}
	wg.Wait()
	g := gas[0]
	if g.TotalBytes() != 3*4096 {
		t.Fatalf("TotalBytes = %d", g.TotalBytes())
	}
	// Put into rank 1's block, read it back from rank 2's perspective.
	payload := []byte("global address space payload")
	idx := uint64(4096 + 128)
	f, err := g.Put(idx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(waitT); err != nil {
		t.Fatal(err)
	}
	f2, err := gas[2].Get(idx, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	got, err := f2.Wait(waitT)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("gas get: %v %q", err, got)
	}
	// Owner math.
	rank, off, err := g.Owner(idx)
	if err != nil || rank != 1 || off != 128 {
		t.Fatalf("owner = %d %d %v", rank, off, err)
	}
	if _, _, err := g.Owner(uint64(g.TotalBytes())); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestGASAtomics(t *testing.T) {
	locs := job(t, 2, nil)
	gas := make([]*runtime.GlobalArray, 2)
	var wg sync.WaitGroup
	for r, l := range locs {
		wg.Add(1)
		go func(r int, l *runtime.Locality) {
			defer wg.Done()
			gas[r], _ = runtime.NewGlobalArray(l, 64)
		}(r, l)
	}
	wg.Wait()
	// Both ranks hammer one counter word on rank 1.
	idx := uint64(64 + 8)
	const per = 50
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f, err := gas[r].FetchAdd(idx, 1)
				if err != nil {
					t.Errorf("rank %d fadd: %v", r, err)
					return
				}
				if _, err := f.Value(waitT); err != nil {
					t.Errorf("rank %d fadd wait: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	f, _ := gas[0].FetchAdd(idx, 0)
	v, err := f.Value(waitT)
	if err != nil || v != 2*per {
		t.Fatalf("counter = %d (err %v), want %d", v, err, 2*per)
	}
	// CAS.
	fc, _ := gas[0].CompSwap(idx, 2*per, 7)
	if v, err := fc.Value(waitT); err != nil || v != 2*per {
		t.Fatalf("cas prior = %d %v", v, err)
	}
}

func TestGASValidation(t *testing.T) {
	locs := job(t, 1, nil)
	if _, err := runtime.NewGlobalArray(locs[0], 7); err == nil {
		t.Fatal("misaligned block accepted")
	}
	g, err := runtime.NewGlobalArray(locs[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Put(60, make([]byte, 16)); err == nil {
		t.Fatal("cross-block put accepted")
	}
	if _, err := g.Get(60, 16); err == nil {
		t.Fatal("cross-block get accepted")
	}
	if _, err := g.FetchAdd(4, 1); err == nil {
		t.Fatal("misaligned atomic accepted")
	}
}

func TestActionIDStable(t *testing.T) {
	if runtime.ActionIDFor("foo") != runtime.ActionIDFor("foo") {
		t.Fatal("action IDs not stable")
	}
	if runtime.ActionIDFor("foo") == runtime.ActionIDFor("bar") {
		t.Fatal("suspicious collision")
	}
}

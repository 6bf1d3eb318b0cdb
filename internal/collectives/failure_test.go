package collectives_test

// Chaos-driven failure tests: kill ranks mid-collective at various
// schedule positions and sizes, and assert the failure-aware plane
// delivers its contract — every survivor returns ErrCommRevoked (also
// matching core.ErrPeerDown) promptly instead of hanging, the revoked
// comm fails fast afterwards, and Shrink yields a working communicator
// over the survivors whose reductions match the serial reference.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/vsim"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// failT is the whole-collective deadline for failure tests: generous
// enough to never trip on a loaded CI box, far above the prompt-abort
// bound the tests assert.
const failT = 30 * time.Second

// promptT is how fast an abort must land to count as detection-driven
// rather than deadline-driven.
const promptT = 10 * time.Second

type chaosWorld struct {
	comms []*collectives.Comm
	phs   []*core.Photon
	bes   []*chaos.Backend
	group *chaos.Group
}

// newChaosWorld boots n ranks over vsim with a chaos group wrapper and
// an armed failure detector on every rank. Each collective call times
// out after timeout, or failT when it is 0.
func newChaosWorld(t *testing.T, n int, timeout time.Duration, coreCfg core.Config) *chaosWorld {
	t.Helper()
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if timeout == 0 {
		timeout = failT
	}
	if coreCfg.HeartbeatInterval == 0 {
		coreCfg.HeartbeatInterval = 2 * time.Millisecond
	}
	if coreCfg.SuspectAfter == 0 {
		coreCfg.SuspectAfter = 6 * time.Millisecond
	}
	w := &chaosWorld{
		comms: make([]*collectives.Comm, n),
		phs:   make([]*core.Photon, n),
		bes:   make([]*chaos.Backend, n),
		group: chaos.NewGroup(3 * time.Millisecond),
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		w.bes[r] = chaos.WrapGroup(cl.Backend(r), chaos.Plan{Seed: int64(r)}, w.group)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ph, err := core.Init(w.bes[r], coreCfg)
			if err != nil {
				errs[r] = err
				return
			}
			w.phs[r] = ph
			w.comms[r] = collectives.New(ph, timeout)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: init: %v", r, err)
		}
	}
	return w
}

// leanCfg keeps per-rank engine state small enough for many-rank
// in-process clusters.
func leanCfg() core.Config {
	return core.Config{LedgerSlots: 16, EagerEntrySize: 256, RdzvSlabSize: 64 << 10}
}

// runAllErrs runs fn concurrently on every rank and returns the
// per-rank errors without judging them.
func runAllErrs(comms []*collectives.Comm, fn func(r int, c *collectives.Comm) error) []error {
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *collectives.Comm) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	return errs
}

// wantRevoked asserts every survivor's error is a revocation naming a
// dead peer; the victim's own outcome is not judged.
func wantRevoked(t *testing.T, errs []error, victim int) {
	t.Helper()
	for r, err := range errs {
		if r == victim {
			continue
		}
		if err == nil {
			t.Errorf("rank %d: collective succeeded despite dead rank %d", r, victim)
			continue
		}
		if !errors.Is(err, collectives.ErrCommRevoked) || !errors.Is(err, core.ErrPeerDown) {
			t.Errorf("rank %d: error does not match ErrCommRevoked+ErrPeerDown: %v", r, err)
		}
	}
}

// TestBarrierAbortsOnPeerDeath kills one rank mid-barrier — leaf,
// interior, and rank-0 positions of the dissemination schedule — and
// requires every survivor to abort with a revocation well before the
// whole-collective deadline.
func TestBarrierAbortsOnPeerDeath(t *testing.T) {
	const n = 8
	for _, victim := range []int{7, 2, 0} {
		t.Run(fmt.Sprintf("victim=%d", victim), func(t *testing.T) {
			w := newChaosWorld(t, n, 0, core.Config{})
			if errs := runAllErrs(w.comms, func(r int, c *collectives.Comm) error { return c.Barrier() }); true {
				for r, err := range errs {
					if err != nil {
						t.Fatalf("warmup barrier rank %d: %v", r, err)
					}
				}
			}
			w.bes[victim].CrashAfterOps(1)
			start := time.Now()
			errs := runAllErrs(w.comms, func(r int, c *collectives.Comm) error { return c.Barrier() })
			if el := time.Since(start); el > promptT {
				t.Errorf("abort took %v, want detection-driven (< %v)", el, promptT)
			}
			wantRevoked(t, errs, victim)
		})
	}
}

// TestAllreduceAbortsMidCall kills an interior rank mid-allreduce for
// the tree and ring schedules (recursive doubling is covered by the
// shrink tests below).
func TestAllreduceAbortsMidCall(t *testing.T) {
	for _, tc := range []struct {
		algo   string
		n      int
		victim int
		crash  int
		vec    int
	}{
		// Tree: the victim dies before its reduce contribution leaves,
		// so the root hangs and every rank waiting on the bcast must
		// abort via detection, not completion.
		{"tree", 8, 3, 1, 16},
		{"ring", 6, 2, 2, 64},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			w := newChaosWorld(t, tc.n, 0, core.Config{})
			warm := runAllErrs(w.comms, func(r int, c *collectives.Comm) error {
				vec := make([]float64, tc.vec)
				return c.AllreduceForced(tc.algo, vec, collectives.OpSum)
			})
			for r, err := range warm {
				if err != nil {
					t.Fatalf("warmup rank %d: %v", r, err)
				}
			}
			w.bes[tc.victim].CrashAfterOps(tc.crash)
			start := time.Now()
			errs := runAllErrs(w.comms, func(r int, c *collectives.Comm) error {
				vec := make([]float64, tc.vec)
				for i := range vec {
					vec[i] = float64(r*tc.vec + i)
				}
				return c.AllreduceForced(tc.algo, vec, collectives.OpSum)
			})
			if el := time.Since(start); el > promptT {
				t.Errorf("abort took %v, want detection-driven (< %v)", el, promptT)
			}
			wantRevoked(t, errs, tc.victim)
		})
	}
}

// TestRevokedCommFailsFast: after a revocation, further collectives on
// the same comm return immediately without touching the network.
func TestRevokedCommFailsFast(t *testing.T) {
	const n, victim = 4, 3
	w := newChaosWorld(t, n, 0, core.Config{})
	w.group.Kill(victim)
	runAllErrs(w.comms, func(r int, c *collectives.Comm) error { return c.Barrier() })
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if !w.comms[r].Revoked() {
			t.Fatalf("rank %d: comm not revoked after peer death", r)
		}
		start := time.Now()
		err := w.comms[r].Barrier()
		if !errors.Is(err, collectives.ErrCommRevoked) {
			t.Fatalf("rank %d: revoked comm returned %v", r, err)
		}
		if el := time.Since(start); el > time.Second {
			t.Fatalf("rank %d: fast-fail took %v", r, el)
		}
	}
}

// shrinkAndCheck shrinks the survivors' comms concurrently and
// property-tests the shrunken communicator: an allreduce over fresh
// per-rank vectors must match the serial reference, and a barrier must
// synchronize.
func shrinkAndCheck(t *testing.T, w *chaosWorld, victim int) {
	t.Helper()
	n := len(w.comms)
	ncs := make([]*collectives.Comm, 0, n-1)
	idx := make([]int, 0, n-1)
	for r := 0; r < n; r++ {
		if r != victim {
			idx = append(idx, r)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	serrs := make([]error, len(idx))
	got := make([]*collectives.Comm, len(idx))
	for i, r := range idx {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			nc, err := w.comms[r].Shrink()
			mu.Lock()
			got[i], serrs[i] = nc, err
			mu.Unlock()
		}(i, r)
	}
	wg.Wait()
	for i, err := range serrs {
		if err != nil {
			t.Fatalf("rank %d: Shrink: %v", idx[i], err)
		}
		if got[i].Size() != len(idx) {
			t.Fatalf("rank %d: shrunken size %d, want %d", idx[i], got[i].Size(), len(idx))
		}
		if got[i].Epoch() != w.comms[idx[i]].Epoch()+1 {
			t.Fatalf("rank %d: shrunken epoch %d, want parent+1", idx[i], got[i].Epoch())
		}
		ncs = append(ncs, got[i])
	}

	const vecLen = 16
	vecs := make([][]float64, len(ncs))
	for nr := range vecs {
		vecs[nr] = make([]float64, vecLen)
		for i := range vecs[nr] {
			vecs[nr][i] = float64(nr+1) * float64(i+1)
		}
	}
	want := serialReduce(vecs, collectives.OpSum)
	errs := runAllErrs(ncs, func(nr int, c *collectives.Comm) error {
		vec := append([]float64(nil), vecs[nr]...)
		if err := c.AllreduceInPlace(vec, collectives.OpSum); err != nil {
			return err
		}
		for i := range vec {
			if !approxEq(collectives.OpSum, vec[i], want[i]) {
				return fmt.Errorf("element %d: got %v want %v", i, vec[i], want[i])
			}
		}
		return c.Barrier()
	})
	for nr, err := range errs {
		if err != nil {
			t.Fatalf("shrunken comm rank %d: %v", nr, err)
		}
	}
}

// TestShrinkAfterLeaderDeath kills rank 0 — the would-be agreement
// leader — mid-allreduce, so the survivors must elect the next-lowest
// rank before they can agree.
func TestShrinkAfterLeaderDeath(t *testing.T) {
	const n, victim = 8, 0
	w := newChaosWorld(t, n, 0, core.Config{})
	w.bes[victim].CrashAfterOps(2)
	errs := runAllErrs(w.comms, func(r int, c *collectives.Comm) error {
		vec := make([]float64, 16)
		return c.AllreduceInPlace(vec, collectives.OpSum)
	})
	wantRevoked(t, errs, victim)
	shrinkAndCheck(t, w, victim)
}

// TestShrinkN32MidAllreduce is the acceptance scenario: 32 vsim
// ranks, one killed mid-allreduce. Every survivor must observe the
// revocation promptly (no hang, no wrong result), and the shrunken
// 31-rank communicator must pass the reference property test.
func TestShrinkN32MidAllreduce(t *testing.T) {
	if testing.Short() {
		t.Skip("32-rank cluster in -short mode")
	}
	const n, victim = 32, 13
	w := newChaosWorld(t, n, 0, leanCfg())
	warm := runAllErrs(w.comms, func(r int, c *collectives.Comm) error { return c.Barrier() })
	for r, err := range warm {
		if err != nil {
			t.Fatalf("warmup rank %d: %v", r, err)
		}
	}
	w.bes[victim].CrashAfterOps(3)
	start := time.Now()
	errs := runAllErrs(w.comms, func(r int, c *collectives.Comm) error {
		vec := make([]float64, 32)
		for i := range vec {
			vec[i] = float64(r)
		}
		return c.AllreduceInPlace(vec, collectives.OpSum)
	})
	el := time.Since(start)
	if el > promptT {
		t.Errorf("N=32 abort took %v, want detection-driven (< %v)", el, promptT)
	}
	wantRevoked(t, errs, victim)
	t.Logf("N=32: all %d survivors revoked in %v", n-1, el)
	shrinkAndCheck(t, w, victim)
}

// TestAbortObservability checks the telemetry contract: a collective
// abort bumps the coll_aborts gauge, records an abort-latency sample,
// and arms the flight recorder with a reason-tagged capture; the
// survivors then shrink to a size-3, epoch-1 communicator that passes
// the allreduce property check, and coll_shrinks counts it.
func TestAbortObservability(t *testing.T) {
	const n, victim = 4, 3
	cfg := core.Config{Metrics: true, FlightRecords: 16}
	w := newChaosWorld(t, n, 0, cfg)
	warm := runAllErrs(w.comms, func(r int, c *collectives.Comm) error { return c.Barrier() })
	for r, err := range warm {
		if err != nil {
			t.Fatalf("warmup rank %d: %v", r, err)
		}
	}
	w.bes[victim].CrashAfterOps(1)
	errs := runAllErrs(w.comms, func(r int, c *collectives.Comm) error { return c.Barrier() })
	wantRevoked(t, errs, victim)

	// A survivor records a detection→abort latency only if its own
	// engine had left healthy for the victim when it aborted (the abort
	// capture's From state); one that aborted on a forwarded revocation
	// notice first has no local detection instant to measure from. The
	// first survivor to abort detected the crash itself.
	var totalSamples int64
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		snap := w.phs[r].Metrics()
		if v, ok := snap.Gauges["coll_aborts"]; !ok || v < 1 {
			t.Errorf("rank %d: coll_aborts gauge = %d (ok=%v), want >= 1", r, v, ok)
		}
		var abortSamples int64
		for _, h := range snap.Hists {
			if h.Name == "coll/abort" {
				abortSamples = h.Hist.N()
			}
		}
		totalSamples += abortSamples
		fr := w.phs[r].FlightRecorder()
		if fr == nil {
			t.Fatalf("rank %d: flight recorder not armed", r)
		}
		found := false
		for _, rec := range fr.Records() {
			if rec.Reason != "collective abort" {
				continue
			}
			found = true
			if rec.From != core.PeerHealthy.String() && abortSamples < 1 {
				t.Errorf("rank %d: victim %s at abort but no coll/abort detection-to-abort latency sample", r, rec.From)
			}
		}
		if !found {
			t.Errorf("rank %d: no 'collective abort' flight capture", r)
		}
	}
	if totalSamples < 1 {
		t.Errorf("no coll/abort detection-to-abort latency sample on any survivor")
	}
	// At least one survivor observed the revocation via a forwarded
	// notice or sent one — the flood counter must have moved somewhere.
	var revokes int64
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if v, ok := w.phs[r].Metrics().Gauges["coll_revokes_sent"]; ok {
			revokes += v
		}
	}
	if revokes < 1 {
		t.Errorf("no revocation notices sent across survivors")
	}

	shrinkAndCheck(t, w, victim) // size n-1 = 3, epoch 0+1 = 1, allreduce matches the reference
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if v, ok := w.phs[r].Metrics().Gauges["coll_shrinks"]; !ok || v != 1 {
			t.Errorf("rank %d: coll_shrinks gauge = %d (ok=%v), want 1", r, v, ok)
		}
	}
}

package apps_test

import (
	"math"
	"math/rand"
	gort "runtime"
	"sync"
	"testing"
	"time"

	"photon/internal/apps"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/msg"
	"photon/internal/nicsim"
	"photon/internal/runtime"
)

func photonJob(t *testing.T, n int) []*core.Photon {
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

func msgJob(t *testing.T, n int) *msg.Job {
	t.Helper()
	j, err := msg.NewJob(n, fabric.Model{}, nicsim.Config{}, msg.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(j.Close)
	return j
}

func localities(t *testing.T, n int, reg func(l *runtime.Locality)) []*runtime.Locality {
	t.Helper()
	phs := photonJob(t, n)
	locs := make([]*runtime.Locality, n)
	for r, ph := range phs {
		l := runtime.NewLocality(ph, runtime.Config{Timeout: 20 * time.Second})
		if reg != nil {
			reg(l)
		}
		l.Start()
		locs[r] = l
	}
	t.Cleanup(func() {
		for _, l := range locs {
			l.Shutdown()
		}
	})
	return locs
}

func TestGUPSPhotonChecksum(t *testing.T) {
	phs := photonJob(t, 3)
	cfg := apps.GUPSConfig{TableWordsPerRank: 128, UpdatesPerRank: 500, Seed: 7}
	res, err := apps.RunGUPSPhoton(phs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 1500 {
		t.Fatalf("updates = %d", res.Updates)
	}
	// Every update is a +1 fetch-add, so the table must sum to the
	// update count exactly: atomicity check.
	if res.Checksum != 1500 {
		t.Fatalf("checksum = %d, want 1500 (lost or duplicated updates)", res.Checksum)
	}
	if res.UpdatesPerSec <= 0 {
		t.Fatalf("rate = %v", res.UpdatesPerSec)
	}
}

func TestGUPSBaselineChecksum(t *testing.T) {
	j := msgJob(t, 3)
	cfg := apps.GUPSConfig{TableWordsPerRank: 128, UpdatesPerRank: 300, Seed: 7}
	res, err := apps.RunGUPSBaseline(j, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != 900 {
		t.Fatalf("checksum = %d, want 900", res.Checksum)
	}
}

func TestGUPSValidation(t *testing.T) {
	phs := photonJob(t, 2)
	if _, err := apps.RunGUPSPhoton(phs, apps.GUPSConfig{TableWordsPerRank: 0}); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestStencilPhotonMatchesBaselineAndSerial(t *testing.T) {
	cfg := apps.StencilConfig{N: 32, Iterations: 10}
	serial, err := apps.RunStencilSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	phs := photonJob(t, 4)
	ph, err := apps.RunStencilPhoton(phs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := msgJob(t, 4)
	base, err := apps.RunStencilBaseline(j, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ph.Checksum-serial.Checksum) > 1e-9*math.Abs(serial.Checksum) {
		t.Fatalf("photon checksum %v != serial %v", ph.Checksum, serial.Checksum)
	}
	if math.Abs(base.Checksum-serial.Checksum) > 1e-9*math.Abs(serial.Checksum) {
		t.Fatalf("baseline checksum %v != serial %v", base.Checksum, serial.Checksum)
	}
	if ph.CellUpdates != int64(cfg.N)*int64(cfg.N)*int64(cfg.Iterations) {
		t.Fatalf("cell updates = %d", ph.CellUpdates)
	}
}

func TestStencilOddIterations(t *testing.T) {
	cfg := apps.StencilConfig{N: 16, Iterations: 7}
	serial, _ := apps.RunStencilSerial(cfg)
	phs := photonJob(t, 2)
	ph, err := apps.RunStencilPhoton(phs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ph.Checksum-serial.Checksum) > 1e-9*math.Abs(serial.Checksum)+1e-12 {
		t.Fatalf("odd-iteration checksum %v != %v", ph.Checksum, serial.Checksum)
	}
}

func TestStencilSingleRank(t *testing.T) {
	cfg := apps.StencilConfig{N: 8, Iterations: 3}
	serial, _ := apps.RunStencilSerial(cfg)
	phs := photonJob(t, 1)
	ph, err := apps.RunStencilPhoton(phs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Checksum != serial.Checksum {
		t.Fatalf("single rank checksum %v != %v", ph.Checksum, serial.Checksum)
	}
}

func TestStencilValidation(t *testing.T) {
	phs := photonJob(t, 3)
	if _, err := apps.RunStencilPhoton(phs, apps.StencilConfig{N: 32, Iterations: 1}); err == nil {
		t.Fatal("N not divisible by ranks accepted")
	}
}

func TestBFSMatchesSerial(t *testing.T) {
	locs := localities(t, 4, func(l *runtime.Locality) {
		if err := apps.RegisterBFSActions(l); err != nil {
			t.Fatal(err)
		}
	})
	cfg := apps.BFSConfig{Vertices: 256, Degree: 4, Seed: 11, Root: 3}
	res, dist, err := apps.RunBFSParcels(locs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := apps.BFSSerial(apps.GenGraph(cfg.Vertices, cfg.Degree, cfg.Seed), cfg.Root)
	for v := range ref {
		if dist[v] != ref[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], ref[v])
		}
	}
	var wantVisited int64
	for _, d := range ref {
		if d >= 0 {
			wantVisited++
		}
	}
	if res.Visited != wantVisited {
		t.Fatalf("visited = %d, want %d", res.Visited, wantVisited)
	}
	if res.TEPS <= 0 || res.ParcelsSent == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestBFSIsolatedRoot(t *testing.T) {
	// Degree 0: only the root is reached.
	locs := localities(t, 2, func(l *runtime.Locality) {
		apps.RegisterBFSActions(l)
	})
	cfg := apps.BFSConfig{Vertices: 64, Degree: 0, Seed: 1, Root: 9}
	res, dist, err := apps.RunBFSParcels(locs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != 1 || dist[9] != 0 {
		t.Fatalf("isolated root: %+v dist[9]=%d", res, dist[9])
	}
}

func TestBFSValidation(t *testing.T) {
	locs := localities(t, 3, func(l *runtime.Locality) { apps.RegisterBFSActions(l) })
	if _, _, err := apps.RunBFSParcels(locs, apps.BFSConfig{Vertices: 64, Degree: 2, Root: 1}); err == nil {
		t.Fatal("indivisible vertex count accepted")
	}
	if _, _, err := apps.RunBFSParcels(locs, apps.BFSConfig{Vertices: 63, Degree: 2, Root: 999}); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestGenGraphDeterministic(t *testing.T) {
	a := apps.GenGraph(100, 3, 42)
	b := apps.GenGraph(100, 3, 42)
	for v := range a {
		if len(a[v]) != len(b[v]) {
			t.Fatal("graph generation not deterministic")
		}
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				t.Fatal("graph generation not deterministic")
			}
		}
	}
}

// TestGenGraphMatchesPerVertexReference pins GenGraph's output to the
// construction the benchmark's serial references were defined by: one
// rng.Intn per edge, vertex-major, each list its own allocation. The
// slab behind the lists must not show: a list is full at its degree, so
// appending to it cannot reach the next vertex's entries.
func TestGenGraphMatchesPerVertexReference(t *testing.T) {
	const vertices, degree = 500, 8
	for _, seed := range []int64{1, 42, -7} {
		rng := rand.New(rand.NewSource(seed))
		want := make([][]int32, vertices)
		for v := range want {
			for d := 0; d < degree; d++ {
				want[v] = append(want[v], int32(rng.Intn(vertices)))
			}
		}
		got := apps.GenGraph(vertices, degree, seed)
		if len(got) != vertices {
			t.Fatalf("seed %d: %d lists, want %d", seed, len(got), vertices)
		}
		for v := range want {
			if len(got[v]) != degree || cap(got[v]) != degree {
				t.Fatalf("seed %d: vertex %d has len %d cap %d, want %d/%d", seed, v, len(got[v]), cap(got[v]), degree, degree)
			}
			for i := range want[v] {
				if got[v][i] != want[v][i] {
					t.Fatalf("seed %d: adj[%d][%d] = %d, want %d", seed, v, i, got[v][i], want[v][i])
				}
			}
		}
		next := got[1][0]
		_ = append(got[0], -1)
		if got[1][0] != next {
			t.Fatalf("seed %d: append to vertex 0's list overwrote vertex 1's", seed)
		}
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	gort.GC()
	var m gort.MemStats
	gort.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRunsReleaseTheirBuffers: a run deregisters what it registered, so
// repeated runs on one job keep the live heap flat. Each stencil call
// here registers about 1 MiB and each GUPS call 256 KiB; leaked, 50
// calls would pin 50 MiB and 12 MiB.
func TestRunsReleaseTheirBuffers(t *testing.T) {
	phs := photonJob(t, 2)
	runs := []struct {
		name string
		run  func() error
	}{
		{"stencil", func() error {
			_, err := apps.RunStencilPhoton(phs, apps.StencilConfig{N: 256, Iterations: 2})
			return err
		}},
		{"gups", func() error {
			_, err := apps.RunGUPSPhoton(phs, apps.GUPSConfig{TableWordsPerRank: 16384, UpdatesPerRank: 50, Seed: 3})
			return err
		}},
	}
	for _, r := range runs {
		name, run := r.name, r.run
		for i := 0; i < 3; i++ { // pools and rings reach their steady size
			if err := run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		before := liveHeap()
		for i := 0; i < 50; i++ {
			if err := run(); err != nil {
				t.Fatalf("%s call %d: %v", name, i, err)
			}
		}
		if after := liveHeap(); after > before+1<<20 {
			t.Fatalf("%s: live heap grew from %d to %d bytes over 50 calls", name, before, after)
		}
	}
}

// TestGUPSBaselineTwiceOnOneJob: the servers leave no receive posted,
// so a second run on the same job sees all of its own updates.
func TestGUPSBaselineTwiceOnOneJob(t *testing.T) {
	j := msgJob(t, 3)
	cfg := apps.GUPSConfig{TableWordsPerRank: 64, UpdatesPerRank: 200, Seed: 5}
	for run := 0; run < 2; run++ {
		res, err := apps.RunGUPSBaseline(j, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Checksum != 600 {
			t.Fatalf("run %d: checksum = %d, want 600", run, res.Checksum)
		}
	}
}

package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/stats"
)

// runE16 — scalable N-peer collectives (no paper figure: the paper's
// middleware stops at point-to-point PWC; this measures the collectives
// engine built over it).
//
// Legs:
//
//	a) barrier latency vs job size, to 128 vsim ranks
//	b) small (16-double) allreduce latency vs job size
//	c) allreduce goodput vs vector size at n=8, per algorithm
//	   (recursive doubling / ring / tree), showing the crossover
//	d) all-to-all aggregate message rate at n=16
//	e) shared-memory backend spot check at 12 ranks
//
// All vsim legs run under the 2us-latency delay model so schedule
// structure (how many serialized network latencies per operation)
// dominates, as on a real fabric. Absolute numbers on a small CI host
// are inflated by scheduling noise; the growth with job size and the
// algorithm crossover are the stable signals.
func runE16(scale float64) (*Report, error) {
	warmProcess(scaled(100, scale))

	// Lean per-peer resources so a 128-rank mesh fits: ledgers are
	// per-peer-pair, and collectives' log-depth schedules touch only
	// O(log n) peers per rank anyway.
	lean := core.Config{LedgerSlots: 16, EagerEntrySize: 256, CompQueueDepth: 256, RdzvSlabSize: 64 << 10}

	sizes := []int{4, 8, 16, 32, 64, 128}
	iters := scaled(20, scale)
	if iters < 5 {
		iters = 5
	}
	const warm = 3

	// Every leg reports the median of reps runs: a small host schedules
	// 128 rank goroutines noisily.
	const reps = 3
	lat := stats.NewSeries("E16ab: barrier and 16-double allreduce latency (us) vs ranks (vsim, 2us links, median of 3)",
		"ranks", "barrier-us", "allreduce16-us")
	for _, n := range sizes {
		var bars, ars []time.Duration
		for rep := 0; rep < reps; rep++ {
			bar, ar, err := engineLatencies(n, lean, collectives.Config{Timeout: benchWait}, warm, iters)
			if err != nil {
				return nil, fmt.Errorf("E16ab n=%d: %w", n, err)
			}
			bars, ars = append(bars, bar), append(ars, ar)
		}
		lat.Row(float64(n), us(median(bars)), us(median(ars)))
	}

	// Leg c: allreduce goodput per algorithm vs vector size at n=8.
	// Each algorithm column forces its schedule (with an arena ceiling
	// high enough that the force is honored). Goodput is vector bytes
	// over op latency; recursive doubling is skipped at 1 MiB (its
	// arena would dwarf the working set, exactly why selection hands
	// large vectors to the ring).
	const bwRanks = 8
	bwLens := []int{256, 2048, 16384, 131072} // doubles: 2KB .. 1MB
	bwIters := scaled(8, scale)
	if bwIters < 3 {
		bwIters = 3
	}
	bw := stats.NewSeries("E16c: allreduce goodput (MB/s) vs vector bytes at n=8, per algorithm (vsim, 2us links, median of 3)",
		"bytes", "rd", "ring", "tree")
	algos := []string{"rd", "ring", "tree"}
	bwSamples := make(map[string][][]float64) // algo -> [len index][rep]
	for _, algo := range algos {
		bwSamples[algo] = make([][]float64, len(bwLens))
	}
	for rep := 0; rep < reps; rep++ {
		for _, algo := range algos {
			cfg := collectives.Config{Timeout: benchWait, ForceAllreduce: algo}
			for li, L := range bwLens {
				if algo == "rd" {
					if L == 131072 {
						continue // arena would dwarf the working set
					}
					cfg.SmallAllreduceMax = 8 * L
				}
				d, err := engineAllreduce(bwRanks, core.Config{}, cfg, L, warm, bwIters)
				if err != nil {
					return nil, fmt.Errorf("E16c %s L=%d: %w", algo, L, err)
				}
				bwSamples[algo][li] = append(bwSamples[algo][li], mbps(8*L, d))
			}
		}
	}
	for li, L := range bwLens {
		cell := func(algo string) float64 {
			if len(bwSamples[algo][li]) == 0 {
				return 0
			}
			return medianF(bwSamples[algo][li])
		}
		bw.Row(float64(8*L), cell("rd"), cell("ring"), cell("tree"))
	}

	// Leg d: all-to-all aggregate message rate at n=16 (all n-1 sends
	// posted before reaping).
	const a2aRanks = 16
	a2aIters := scaled(30, scale)
	if a2aIters < 5 {
		a2aIters = 5
	}
	var rates []float64
	for rep := 0; rep < reps; rep++ {
		rate, err := engineAlltoallRate(a2aRanks, lean, warm, a2aIters)
		if err != nil {
			return nil, fmt.Errorf("E16d: %w", err)
		}
		rates = append(rates, rate)
	}
	a2a := stats.NewTable("E16d: 32B all-to-all aggregate message rate at n=16 (vsim, 2us links, median of 3)",
		"engine", "Kmsg/s")
	a2a.Row("nonblocking schedules", medianF(rates)/1e3)

	// Leg e: shared-memory backend spot check. No simulated link
	// delay here — this is the intra-host data path, where the
	// zero-alloc steady state matters most.
	shmTbl, err := e16Shm(warm, iters)
	if err != nil {
		return nil, fmt.Errorf("E16e: %w", err)
	}

	return &Report{ID: "E16", Title: "scalable N-peer collectives",
		Series: []*stats.Series{lat, bw},
		Tables: []*stats.Table{a2a, shmTbl}}, nil
}

func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func medianF(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// raceRanks runs f concurrently for every rank and returns the first
// error.
func raceRanks(n int, f func(r int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timedRounds runs warm untimed rounds then iters timed rounds of round
// across all ranks, returning the mean per-round wall time.
func timedRounds(n, warm, iters int, round func(r int) error) (time.Duration, error) {
	if err := raceRanks(n, func(r int) error {
		for i := 0; i < warm; i++ {
			if err := round(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := raceRanks(n, func(r int) error {
		for i := 0; i < iters; i++ {
			if err := round(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	return time.Since(start) / time.Duration(iters), nil
}

func engineComms(phs []*core.Photon, cfg collectives.Config) []*collectives.Comm {
	comms := make([]*collectives.Comm, len(phs))
	var wg sync.WaitGroup
	for r := range phs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r] = collectives.NewWithConfig(phs[r], cfg)
		}(r)
	}
	wg.Wait()
	return comms
}

func engineLatencies(n int, coreCfg core.Config, cfg collectives.Config, warm, iters int) (bar, ar time.Duration, err error) {
	e, err := NewPhotonOnly(n, latModel, coreCfg)
	if err != nil {
		return 0, 0, err
	}
	defer e.Close()
	comms := engineComms(e.Phs, cfg)
	bar, err = timedRounds(n, warm, iters, func(r int) error { return comms[r].Barrier() })
	if err != nil {
		return 0, 0, err
	}
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, 16)
	}
	ar, err = timedRounds(n, warm, iters, func(r int) error {
		return comms[r].AllreduceInPlace(vecs[r], collectives.OpSum)
	})
	return bar, ar, err
}

func engineAllreduce(n int, coreCfg core.Config, cfg collectives.Config, vecLen, warm, iters int) (time.Duration, error) {
	e, err := NewPhotonOnly(n, latModel, coreCfg)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	comms := engineComms(e.Phs, cfg)
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, vecLen)
	}
	return timedRounds(n, warm, iters, func(r int) error {
		return comms[r].AllreduceInPlace(vecs[r], collectives.OpSum)
	})
}

func engineAlltoallRate(n int, coreCfg core.Config, warm, iters int) (float64, error) {
	e, err := NewPhotonOnly(n, latModel, coreCfg)
	if err != nil {
		return 0, err
	}
	defer e.Close()
	comms := engineComms(e.Phs, collectives.Config{Timeout: benchWait})
	blobs := make([][][]byte, n)
	for r := range blobs {
		blobs[r] = make([][]byte, n)
		for d := range blobs[r] {
			blobs[r][d] = make([]byte, 32)
		}
	}
	per, err := timedRounds(n, warm, iters, func(r int) error {
		_, err := comms[r].Alltoall(blobs[r])
		return err
	})
	if err != nil {
		return 0, err
	}
	return float64(n*(n-1)) / per.Seconds(), nil
}

// e16Shm spot-checks the engine on the shared-memory backend at a
// dozen ranks: barrier and small allreduce latency.
func e16Shm(warm, iters int) (*stats.Table, error) {
	const n = 12
	phs, cleanup, err := NewShmPhotons(n, core.Config{})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	comms := engineComms(phs, collectives.Config{Timeout: benchWait})
	bar, err := timedRounds(n, warm, iters, func(r int) error { return comms[r].Barrier() })
	if err != nil {
		return nil, err
	}
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, 16)
	}
	ar, err := timedRounds(n, warm, iters, func(r int) error {
		return comms[r].AllreduceInPlace(vecs[r], collectives.OpSum)
	})
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("E16e: shm backend, 12 ranks: collective latency (us)",
		"operation", "latency-us")
	t.Row("barrier", us(bar))
	t.Row("allreduce-16", us(ar))
	return t, nil
}

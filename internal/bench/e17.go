package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/vsim"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// runE17 — failure-aware collectives (no paper figure: the paper's
// middleware stops at point-to-point PWC; this measures the abort,
// revoke, and shrink plane built over it).
//
// Legs:
//
//	a) kill→abort latency of a collective vs rank count, detector
//	   armed (abort driven by the peer-health latch plus the
//	   revocation flood) vs disarmed (the before state: the only
//	   bound is the whole-collective deadline, here 500ms — the seed
//	   engine would have waited its full per-wait timeout the same
//	   way). Reported per run: the worst survivor's latency from the
//	   kill instant to its collective returning an error.
//	b) goodput of shrink-then-continue vs restart-from-scratch: a
//	   fixed allreduce workload with one rank killed halfway. Shrink
//	   pays survivor agreement and finishes the remaining iterations
//	   on n-1 ranks; restart pays a full job re-boot and redoes the
//	   whole workload (the pre-shrink engine's only recovery story).
//
// vsim links use the 2us-latency model; the chaos group wrapper
// delivers kills with a 300us detection delay, so leg a's armed
// column is dominated by detector cadence + flood fan-out, not vsim
// transfer time.
func runE17(scale float64) (*Report, error) {
	warmProcess(scaled(50, scale))

	lean := core.Config{LedgerSlots: 16, EagerEntrySize: 256, RdzvSlabSize: 64 << 10}

	// Leg a: abort latency vs ranks, detector on/off. The deadline-only
	// column reads the configured deadline by construction, so a quick
	// pass (scale < 0.5) takes it once per rank count instead of waiting
	// the deadline out reps times.
	const deadlineOnly = 500 * time.Millisecond
	reps := max(3, int(5*scale))
	offReps := reps
	if scale < 0.5 {
		offReps = 1
	}
	abort := NewTable("E17a: kill->abort latency (ms), worst survivor, allreduce vs ranks (vsim, 300us detect delay, median)",
		"ranks", "deadline-only-ms", "detector-ms")
	for _, n := range []int{4, 8, 16, 32} {
		var off, on []float64
		for rep := 0; rep < reps; rep++ {
			if rep < offReps {
				// Detector disarmed: HeartbeatInterval 0 leaves the
				// engine's peer-health plane dark, so the only way out
				// of the collective is the whole-collective deadline.
				ms, err := abortLatency(n, lean, 0, deadlineOnly)
				if err != nil {
					return nil, fmt.Errorf("E17a deadline n=%d: %w", n, err)
				}
				off = append(off, ms)
			}
			ms, err := abortLatency(n, lean, 200*time.Microsecond, benchWait)
			if err != nil {
				return nil, fmt.Errorf("E17a detector n=%d: %w", n, err)
			}
			on = append(on, ms)
		}
		abort.Row(n, medianF(off), medianF(on))
	}

	// Leg b: shrink-then-continue vs restart goodput.
	iters := max(40, scaled(400, scale))
	const nB, vecLen = 16, 64
	tbl := NewTable(fmt.Sprintf("E17b: %d-rank job, %d x %d-double allreduces, one rank killed halfway (vsim, median-free single runs)", nB, iters, vecLen),
		"strategy", "total-ms", "recovery-ms", "allreduces-done")
	shTotal, shRecover, err := shrinkContinue(nB, lean, vecLen, iters)
	if err != nil {
		return nil, fmt.Errorf("E17b shrink: %w", err)
	}
	tbl.Row("shrink-then-continue", ms(shTotal), ms(shRecover), iters)
	rsTotal, rsRecover, err := restartFromScratch(nB, lean, vecLen, iters)
	if err != nil {
		return nil, fmt.Errorf("E17b restart: %w", err)
	}
	tbl.Row("restart-from-scratch", ms(rsTotal), ms(rsRecover), iters+iters/2)

	return &Report{Tables: []*Table{abort, tbl}}, nil
}

func medianF(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// chaosEnv is a vsim cluster with every backend wrapped in one chaos
// group, so a kill is observed consistently by all ranks.
type chaosEnv struct {
	cl    *vsim.Cluster
	group *chaos.Group
	bes   []*chaos.Backend
	phs   []*core.Photon
	comms []*collectives.Comm
}

func newChaosEnv(n int, fm fabric.Model, coreCfg core.Config, timeout time.Duration) (*chaosEnv, error) {
	cl, err := vsim.NewCluster(n, fm, nicsim.Config{})
	if err != nil {
		return nil, err
	}
	e := &chaosEnv{
		cl:    cl,
		group: chaos.NewGroup(300 * time.Microsecond),
		bes:   make([]*chaos.Backend, n),
		phs:   make([]*core.Photon, n),
		comms: make([]*collectives.Comm, n),
	}
	for r := range e.bes {
		e.bes[r] = chaos.WrapGroup(cl.Backend(r), chaos.Plan{Seed: int64(r)}, e.group)
	}
	err = firstErr(eachRank(n, func(r int) (err error) {
		if e.phs[r], err = core.Init(e.bes[r], coreCfg); err != nil {
			return err
		}
		e.comms[r] = collectives.New(e.phs[r], timeout)
		return nil
	}))
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func (e *chaosEnv) Close() {
	for _, ph := range e.phs {
		if ph != nil {
			ph.Close()
		}
	}
	e.cl.Close()
}

// abortLatency runs one kill-mid-allreduce round and returns the worst
// survivor's kill->error latency in milliseconds. hb == 0 leaves the
// failure detector disarmed.
func abortLatency(n int, coreCfg core.Config, hb, timeout time.Duration) (float64, error) {
	coreCfg.HeartbeatInterval = hb
	if hb > 0 {
		coreCfg.SuspectAfter = 4 * hb
	}
	e, err := newChaosEnv(n, latModel, coreCfg, timeout)
	if err != nil {
		return 0, err
	}
	defer e.Close()

	// One clean collective to settle arenas and schedules.
	if err := firstErr(eachRank(n, func(r int) error { return e.comms[r].Barrier() })); err != nil {
		return 0, err
	}
	victim := n / 2
	e.bes[victim].CrashAfterOps(2)
	done := make([]time.Time, n)
	vecs := make([][]float64, n)
	for r := range vecs {
		vecs[r] = make([]float64, 16)
	}
	errs := eachRank(n, func(r int) error {
		err := e.comms[r].AllreduceInPlace(vecs[r], collectives.OpSum)
		done[r] = time.Now()
		return err
	})
	killNS := e.group.KilledAtNS(victim)
	if killNS == 0 {
		return 0, fmt.Errorf("victim %d never crashed", victim)
	}
	var worst float64
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		if errs[r] == nil {
			return 0, fmt.Errorf("rank %d completed despite dead rank %d", r, victim)
		}
		if lat := float64(done[r].UnixNano()-killNS) / 1e6; lat > worst {
			worst = lat
		}
	}
	return worst, nil
}

// detectorCfg arms the failure detector at benchmark cadence.
func detectorCfg(base core.Config) core.Config {
	base.HeartbeatInterval = 200 * time.Microsecond
	base.SuspectAfter = 800 * time.Microsecond
	return base
}

// shrinkContinue measures the shrink recovery path: iters allreduces
// with a kill halfway, survivors Shrink and finish the remainder on
// n-1 ranks. Returns total wall time and the recovery span (revoked
// collective entered -> shrunken comm ready on all survivors).
func shrinkContinue(n int, coreCfg core.Config, vecLen, iters int) (total, recovery time.Duration, err error) {
	e, err := newChaosEnv(n, latModel, detectorCfg(coreCfg), benchWait)
	if err != nil {
		return 0, 0, err
	}
	defer e.Close()

	victim := n / 2
	half := iters / 2
	start := time.Now()
	var recStart, recEnd time.Time
	var recMu sync.Mutex
	errs := eachRank(n, func(r int) error {
		c := e.comms[r]
		vec := make([]float64, vecLen)
		for it := 0; it < iters; it++ {
			if r == victim && it == half {
				e.group.Kill(victim)
				return nil
			}
			if err := c.AllreduceInPlace(vec, collectives.OpSum); err != nil {
				if r == victim {
					return nil // the corpse's own view is irrelevant
				}
				recMu.Lock()
				if recStart.IsZero() {
					recStart = time.Now()
				}
				recMu.Unlock()
				nc, serr := c.Shrink()
				if serr != nil {
					return fmt.Errorf("shrink at iter %d: %w", it, serr)
				}
				recMu.Lock()
				recEnd = time.Now()
				recMu.Unlock()
				// Survivors can abort one iteration apart (a slow rank
				// is still inside the allreduce the victim's last
				// frames fed when the kill lands), so they agree on
				// the earliest aborted iteration and all redo from it.
				resume, rerr := nc.AllreduceScalar(float64(it), collectives.OpMin)
				if rerr != nil {
					return fmt.Errorf("resume point after shrink at iter %d: %w", it, rerr)
				}
				c, it = nc, int(resume)-1
				continue
			}
		}
		return nil
	})
	if err := firstErr(errs); err != nil {
		return 0, 0, err
	}
	return time.Since(start), recEnd.Sub(recStart), nil
}

// restartFromScratch measures the before-state recovery story: the
// same workload, but the failure tears the whole job down and a fresh
// (n-1)-rank job redoes every iteration from zero.
func restartFromScratch(n int, coreCfg core.Config, vecLen, iters int) (total, recovery time.Duration, err error) {
	half := iters / 2
	start := time.Now()

	run := func(nRanks, todo int, kill bool) error {
		e, err := newChaosEnv(nRanks, latModel, detectorCfg(coreCfg), benchWait)
		if err != nil {
			return err
		}
		defer e.Close()
		victim := nRanks / 2
		errs := eachRank(nRanks, func(r int) error {
			c := e.comms[r]
			vec := make([]float64, vecLen)
			for it := 0; it < todo; it++ {
				if kill && r == victim && it == half {
					e.group.Kill(victim)
					return nil
				}
				if err := c.AllreduceInPlace(vec, collectives.OpSum); err != nil {
					if r == victim || kill {
						return nil // job is dead; everyone exits
					}
					return err
				}
			}
			return nil
		})
		if kill {
			return nil // errors are the expected abort
		}
		return firstErr(errs)
	}

	if err := run(n, iters, true); err != nil {
		return 0, 0, err
	}
	recStart := time.Now()
	if err := run(n-1, iters, false); err != nil {
		return 0, 0, err
	}
	return time.Since(start), time.Since(recStart), nil
}

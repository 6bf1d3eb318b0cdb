// Package apps contains the distributed workload kernels the
// evaluation uses: GUPS-style random remote updates, a 2-D Jacobi
// stencil with halo exchange, and level-synchronous BFS over parcels.
// Each kernel exists in a Photon (one-sided) variant and, where the
// reconstructed evaluation compares against two-sided messaging, an
// msg-baseline variant, so the benchmark harness can put both on the
// same axis.
//
// Kernels run all ranks of a simulated job inside one process (one
// goroutine per rank), which is how the whole reproduction runs
// multi-node experiments on a single machine.
package apps

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	gort "runtime"
	"sync"
	"time"

	"photon/internal/core"
	"photon/internal/mem"
	"photon/internal/msg"
)

// GUPSResult reports one GUPS run.
type GUPSResult struct {
	Updates       int64
	Elapsed       time.Duration
	UpdatesPerSec float64
	// Checksum is the sum of all table words after the run; identical
	// across implementations for identical parameters.
	Checksum uint64
}

// GUPSConfig parameterizes a run.
type GUPSConfig struct {
	// TableWordsPerRank is each rank's share of the global table.
	TableWordsPerRank int
	// UpdatesPerRank is the number of remote fetch-adds per rank.
	UpdatesPerRank int
	// Seed makes target sequences reproducible.
	Seed int64
}

func (c *GUPSConfig) validate() error {
	if c.TableWordsPerRank <= 0 || c.UpdatesPerRank < 0 {
		return fmt.Errorf("apps: bad GUPS geometry %+v", *c)
	}
	return nil
}

// gupsWindow bounds outstanding updates per rank.
const gupsWindow = 64

// RunGUPSPhoton runs GUPS using Photon remote atomics: every update is
// one NIC-level fetch-add, no target-side software involvement — the
// one-sided case the paper's design exists to enable.
func RunGUPSPhoton(phs []*core.Photon, cfg GUPSConfig) (GUPSResult, error) {
	if err := cfg.validate(); err != nil {
		return GUPSResult{}, err
	}
	n := len(phs)
	tables := make([][]byte, n)
	descs := make([][]mem.RemoteBuffer, n)
	lks := make([]sync.Locker, n)
	regs := make([]mem.RemoteBuffer, n)
	defer deregisterAll(phs, regs)

	// Collective setup: register and exchange table descriptors.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tables[r] = make([]byte, cfg.TableWordsPerRank*8)
			rb, lk, err := phs[r].RegisterBuffer(tables[r])
			if err != nil {
				errs[r] = err
				return
			}
			regs[r] = rb
			lks[r] = lk
			descs[r], errs[r] = phs[r].ExchangeBuffers(rb)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return GUPSResult{}, err
		}
	}

	start := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(r)))
			ph := phs[r]
			w := core.NewWaiter(ph)
			defer w.Release()
			inflight := 0
			next := uint64(1)
			drain := func(target int) error {
				for inflight > target {
					// Batch: one progress round, then pop every
					// available completion before progressing again.
					n := ph.Progress()
					popped := false
					for {
						c, ok := ph.PopLocal()
						if !ok {
							break
						}
						if c.Err != nil {
							return c.Err
						}
						inflight--
						popped = true
					}
					if n == 0 && !popped {
						w.Idle()
					}
				}
				return nil
			}
			for i := 0; i < cfg.UpdatesPerRank; i++ {
				dst := rng.Intn(n)
				off := uint64(rng.Intn(cfg.TableWordsPerRank) * 8)
				if err := ph.Retry(w, nil, func() error {
					return ph.FetchAdd(dst, descs[r][dst], off, 1, next)
				}); err != nil {
					errs[r] = err
					return
				}
				next++
				inflight++
				if inflight >= gupsWindow {
					if err := drain(gupsWindow / 2); err != nil {
						errs[r] = err
						return
					}
				}
			}
			errs[r] = drain(0)
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return GUPSResult{}, err
		}
	}

	var sum uint64
	for r := 0; r < n; r++ {
		lks[r].Lock()
		for w := 0; w < cfg.TableWordsPerRank; w++ {
			sum += binary.LittleEndian.Uint64(tables[r][w*8:])
		}
		lks[r].Unlock()
	}
	total := int64(n * cfg.UpdatesPerRank)
	return GUPSResult{
		Updates:       total,
		Elapsed:       elapsed,
		UpdatesPerSec: float64(total) / elapsed.Seconds(),
		Checksum:      sum,
	}, nil
}

// Baseline GUPS message tags.
const (
	gupsTagUpdate = 1
	gupsTagAck    = 2
	gupsTagStop   = 3
)

// RunGUPSBaseline runs the same workload over the two-sided baseline:
// every update is a request message the owner must receive, match,
// apply, and acknowledge — the software path one-sided RMA removes.
func RunGUPSBaseline(job *msg.Job, cfg GUPSConfig) (GUPSResult, error) {
	if err := cfg.validate(); err != nil {
		return GUPSResult{}, err
	}
	eps := job.Endpoints()
	n := len(eps)
	tables := make([][]uint64, n)
	for r := range tables {
		tables[r] = make([]uint64, cfg.TableWordsPerRank)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2*n)
	start := time.Now()

	// Servers: apply updates, ack, exit after a stop from every rank.
	// Receives are posted per tag — an any-tag receive would steal the
	// acks addressed to this rank's own client goroutine.
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := eps[r]
			updCh, err := ep.Recv(-1, gupsTagUpdate, nil)
			if err != nil {
				errs[r] = err
				return
			}
			stopCh, err := ep.Recv(-1, gupsTagStop, nil)
			if err != nil {
				errs[r] = err
				return
			}
			stops := 0
			deadline := time.Now().Add(60 * time.Second)
			for stops < n {
				ep.Progress()
				select {
				case m, ok := <-updCh:
					if !ok {
						errs[r] = msg.ErrClosed
						return
					}
					word := binary.LittleEndian.Uint64(m.Data)
					tables[r][word]++
					ack := make([]byte, 8)
					binary.LittleEndian.PutUint64(ack, tables[r][word]-1)
					if _, err := ep.Send(m.Src, gupsTagAck, ack); err != nil {
						errs[r] = err
						return
					}
					if updCh, err = ep.Recv(-1, gupsTagUpdate, nil); err != nil {
						errs[r] = err
						return
					}
				case m, ok := <-stopCh:
					if !ok {
						errs[r] = msg.ErrClosed
						return
					}
					_ = m
					stops++
					if stops < n {
						if stopCh, err = ep.Recv(-1, gupsTagStop, nil); err != nil {
							errs[r] = err
							return
						}
					}
				default:
					gort.Gosched()
					if time.Now().After(deadline) {
						errs[r] = fmt.Errorf("server %d: %w", r, msg.ErrTimeout)
						return
					}
				}
			}
			// Every client has drained its acks, so no update is on its
			// way, but this server's last update receive is still
			// posted and would swallow the first update of a later run
			// on the same job. Use it up with an update to self.
			if _, err := ep.Send(r, gupsTagUpdate, nil); err != nil {
				errs[r] = err
				return
			}
			for {
				ep.Progress()
				select {
				case <-updCh:
					return
				default:
				}
				gort.Gosched()
				if time.Now().After(deadline) {
					errs[r] = fmt.Errorf("server %d: %w", r, msg.ErrTimeout)
					return
				}
			}
		}(r)
	}

	// Clients: issue updates with a window of outstanding acks.
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := eps[r]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(r)))
			inflight := 0
			drain := func(target int) error {
				for inflight > target {
					if _, err := ep.RecvBlocking(-1, gupsTagAck, nil, 30*time.Second); err != nil {
						return err
					}
					inflight--
				}
				return nil
			}
			for i := 0; i < cfg.UpdatesPerRank; i++ {
				dst := rng.Intn(n)
				word := rng.Intn(cfg.TableWordsPerRank)
				req := make([]byte, 8)
				binary.LittleEndian.PutUint64(req, uint64(word))
				if _, err := ep.Send(dst, gupsTagUpdate, req); err != nil {
					errs[n+r] = err
					return
				}
				inflight++
				if inflight >= gupsWindow {
					if err := drain(gupsWindow / 2); err != nil {
						errs[n+r] = err
						return
					}
				}
			}
			if err := drain(0); err != nil {
				errs[n+r] = err
				return
			}
			for dst := 0; dst < n; dst++ {
				if _, err := ep.Send(dst, gupsTagStop, nil); err != nil {
					errs[n+r] = err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return GUPSResult{}, err
		}
	}
	var sum uint64
	for r := range tables {
		for _, w := range tables[r] {
			sum += w
		}
	}
	total := int64(n * cfg.UpdatesPerRank)
	return GUPSResult{
		Updates:       total,
		Elapsed:       elapsed,
		UpdatesPerSec: float64(total) / elapsed.Seconds(),
		Checksum:      sum,
	}, nil
}

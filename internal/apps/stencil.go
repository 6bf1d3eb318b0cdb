package apps

import (
	"fmt"
	gort "runtime"
	"sync"
	"time"
	"unsafe"

	"photon/internal/core"
	"photon/internal/mem"
	"photon/internal/msg"
)

// StencilResult reports one Jacobi run.
type StencilResult struct {
	Iterations  int
	Elapsed     time.Duration
	PerIter     time.Duration
	Checksum    float64 // sum of interior cells after the run
	CellUpdates int64
}

// StencilConfig parameterizes a run. The grid is N x N cells
// partitioned into row bands, one band per rank; N must be divisible by
// the rank count.
type StencilConfig struct {
	N          int
	Iterations int
}

func (c *StencilConfig) validate(ranks int) error {
	if c.N <= 0 || c.Iterations < 0 {
		return fmt.Errorf("apps: bad stencil geometry %+v", *c)
	}
	if c.N%ranks != 0 {
		return fmt.Errorf("apps: N=%d not divisible by %d ranks", c.N, ranks)
	}
	if c.N/ranks < 1 {
		return fmt.Errorf("apps: band too thin")
	}
	return nil
}

// stencilBand holds one rank's rows plus two halo rows as native
// float64s, with a byte view of the same memory for registration and
// halo puts so neighbors can write halos one-sidedly. Halo rows travel
// between ranks of one job on one byte order, so the bytes need no
// conversion. Layout: row 0 = upper halo, rows 1..H = owned, row H+1 =
// lower halo.
type stencilBand struct {
	n, h int
	f    []float64 // (h+2) * n cells
	buf  []byte    // f's memory as bytes
}

func newBand(n, h int) *stencilBand {
	f := make([]float64, (h+2)*n)
	return &stencilBand{n: n, h: h, f: f, buf: unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*8)}
}

func (b *stencilBand) row(row int) []float64 { return b.f[row*b.n : (row+1)*b.n] }

func (b *stencilBand) rowBytes(row int) []byte {
	return b.buf[row*b.n*8 : (row+1)*b.n*8]
}

func (b *stencilBand) rowOffset(row int) uint64 { return uint64(row * b.n * 8) }

// initBand seeds deterministic initial conditions: hot left edge, a
// diagonal ripple inside.
func initBand(b *stencilBand, rank int) {
	h := b.h
	for r := 1; r <= h; r++ {
		globalRow := rank*h + (r - 1)
		row := b.row(r)
		for c := range row {
			v := 0.0
			if c == 0 {
				v = 100
			} else if (globalRow+c)%17 == 0 {
				v = 10
			}
			row[c] = v
		}
	}
}

// jacobiSweep computes one iteration from cur into next, treating halo
// rows and the left/right columns as fixed boundary.
func jacobiSweep(cur, next *stencilBand, topBoundary, bottomBoundary bool) {
	h, n := cur.h, cur.n
	for r := 1; r <= h; r++ {
		mid, out := cur.row(r), next.row(r)
		// Global boundary rows stay fixed.
		if (topBoundary && r == 1) || (bottomBoundary && r == h) {
			copy(out, mid)
			continue
		}
		// Reslicing all four rows to n lets the compiler drop most
		// bounds checks from the loop.
		up, dn := cur.row(r - 1)[:n], cur.row(r + 1)[:n]
		mid, out = mid[:n], out[:n]
		out[0] = mid[0]
		for c := 1; c < n-1; c++ {
			out[c] = 0.25 * (up[c] + dn[c] + mid[c-1] + mid[c+1])
		}
		out[n-1] = mid[n-1]
	}
}

func (b *stencilBand) checksum() float64 {
	var s float64
	for _, v := range b.f[b.n : (b.h+1)*b.n] {
		s += v
	}
	return s
}

// deregisterAll releases the buffers a run registered: regs holds the
// same number of slots for every rank of phs, rank-major, and a slot
// the run never filled (it failed first) is skipped. The Run functions
// defer it, so it runs once every rank has finished — nothing is in
// flight toward a buffer any more — and after Elapsed was taken.
// Without it each call would leave its buffers pinned until the job
// closes.
func deregisterAll(phs []*core.Photon, regs []mem.RemoteBuffer) {
	for i, rb := range regs {
		if rb.Len != 0 {
			_ = phs[i*len(phs)/len(regs)].DeregisterBuffer(rb)
		}
	}
}

// RunStencilPhoton runs the Jacobi stencil with Photon one-sided halo
// exchange: each rank puts its boundary rows directly into its
// neighbors' halo rows, with the remote completion itself serving as
// the arrival notification — no receives, no matching, no barrier.
func RunStencilPhoton(phs []*core.Photon, cfg StencilConfig) (StencilResult, error) {
	n := len(phs)
	if err := cfg.validate(n); err != nil {
		return StencilResult{}, err
	}
	h := cfg.N / n
	cur := make([]*stencilBand, n)
	nxt := make([]*stencilBand, n)
	descsCur := make([][]mem.RemoteBuffer, n)
	descsNxt := make([][]mem.RemoteBuffer, n)
	lksCur := make([]sync.Locker, n)
	lksNxt := make([]sync.Locker, n)
	regs := make([]mem.RemoteBuffer, 2*n)
	defer deregisterAll(phs, regs)

	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cur[r] = newBand(cfg.N, h)
			nxt[r] = newBand(cfg.N, h)
			initBand(cur[r], r)
			rbC, lkC, err := phs[r].RegisterBuffer(cur[r].buf)
			if err != nil {
				errs[r] = err
				return
			}
			regs[2*r] = rbC
			lksCur[r] = lkC
			rbN, lkN, err := phs[r].RegisterBuffer(nxt[r].buf)
			if err != nil {
				errs[r] = err
				return
			}
			regs[2*r+1] = rbN
			lksNxt[r] = lkN
			if descsCur[r], err = phs[r].ExchangeBuffers(rbC); err != nil {
				errs[r] = err
				return
			}
			descsNxt[r], errs[r] = phs[r].ExchangeBuffers(rbN)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return StencilResult{}, err
		}
	}

	start := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ph := phs[r]
			a, b := cur[r], nxt[r]
			dA, dB := descsCur[r], descsNxt[r]
			lkA, lkB := lksCur[r], lksNxt[r]
			// Neighbors may run one iteration ahead (never more:
			// they block on our put), so their halo arrivals for
			// iteration i+1 can interleave with our wait for
			// iteration i. Completions are matched by the iteration
			// in the RID; early ones are banked for the next round.
			early := 0
			for iter := 0; iter < cfg.Iterations; iter++ {
				// Exchange halos of the current band: my first owned
				// row -> upper neighbor's lower halo; my last owned
				// row -> lower neighbor's upper halo.
				expect := 0
				ridBase := uint64(iter)<<16 | 1
				if r > 0 {
					dst := dA[r-1]
					err := ph.PutBlocking(r-1, a.rowBytes(1), dst, a.rowOffset(h+1), ridBase, ridBase|0x100)
					if err != nil {
						errs[r] = err
						return
					}
					expect++
				}
				if r < n-1 {
					dst := dA[r+1]
					err := ph.PutBlocking(r+1, a.rowBytes(h), dst, a.rowOffset(0), ridBase|1, ridBase|0x101)
					if err != nil {
						errs[r] = err
						return
					}
					expect++
				}
				// Wait for my neighbors' rows to land (remote
				// completions) and my own puts to retire (local).
				gotRemote, gotLocal := early, 0
				early = 0
				for gotRemote < expect || gotLocal < expect {
					c, ok := ph.Probe(core.ProbeAny)
					if !ok {
						gort.Gosched()
						continue
					}
					if c.Err != nil {
						errs[r] = c.Err
						return
					}
					if c.Local {
						gotLocal++
						continue
					}
					switch int(c.RID >> 16) {
					case iter:
						gotRemote++
					case iter + 1:
						early++
					default:
						errs[r] = fmt.Errorf("apps: stencil completion from iteration %d during %d", c.RID>>16, iter)
						return
					}
				}
				// Compute under the registration lock of the band
				// being read: neighbors write its halos one-sidedly.
				lkA.Lock()
				jacobiSweep(a, b, r == 0, r == n-1)
				lkA.Unlock()
				a, b = b, a
				dA, dB = dB, dA
				lkA, lkB = lkB, lkA
			}
			_, _ = dB, lkB
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return StencilResult{}, err
		}
	}

	final, finalLks := cur, lksCur
	if cfg.Iterations%2 == 1 {
		final, finalLks = nxt, lksNxt
	}
	var sum float64
	for r := 0; r < n; r++ {
		finalLks[r].Lock()
		sum += final[r].checksum()
		finalLks[r].Unlock()
	}
	iters := cfg.Iterations
	per := time.Duration(0)
	if iters > 0 {
		per = elapsed / time.Duration(iters)
	}
	return StencilResult{
		Iterations:  iters,
		Elapsed:     elapsed,
		PerIter:     per,
		Checksum:    sum,
		CellUpdates: int64(iters) * int64(cfg.N) * int64(cfg.N),
	}, nil
}

// Stencil baseline tags: tag = iter<<2 | dir (dir 0: from above, 1:
// from below).
func stencilTag(iter, dir int) uint64 { return uint64(iter)<<2 | uint64(dir) }

// RunStencilBaseline is the same computation with two-sided halo
// exchange: boundary rows travel as matched messages into the halo
// rows.
func RunStencilBaseline(job *msg.Job, cfg StencilConfig) (StencilResult, error) {
	eps := job.Endpoints()
	n := len(eps)
	if err := cfg.validate(n); err != nil {
		return StencilResult{}, err
	}
	h := cfg.N / n
	cur := make([]*stencilBand, n)
	nxt := make([]*stencilBand, n)
	for r := 0; r < n; r++ {
		cur[r] = newBand(cfg.N, h)
		nxt[r] = newBand(cfg.N, h)
		initBand(cur[r], r)
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	start := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := eps[r]
			a, b := cur[r], nxt[r]
			for iter := 0; iter < cfg.Iterations; iter++ {
				var hs []*msg.SendHandle
				if r > 0 {
					hdl, err := ep.Send(r-1, stencilTag(iter, 1), a.rowBytes(1))
					if err != nil {
						errs[r] = err
						return
					}
					hs = append(hs, hdl)
				}
				if r < n-1 {
					hdl, err := ep.Send(r+1, stencilTag(iter, 0), a.rowBytes(h))
					if err != nil {
						errs[r] = err
						return
					}
					hs = append(hs, hdl)
				}
				if r > 0 {
					m, err := ep.RecvBlocking(r-1, stencilTag(iter, 0), a.rowBytes(0), 30*time.Second)
					if err != nil {
						errs[r] = err
						return
					}
					_ = m
				}
				if r < n-1 {
					if _, err := ep.RecvBlocking(r+1, stencilTag(iter, 1), a.rowBytes(h+1), 30*time.Second); err != nil {
						errs[r] = err
						return
					}
				}
				for _, hdl := range hs {
					if err := hdl.Wait(30 * time.Second); err != nil {
						errs[r] = err
						return
					}
				}
				jacobiSweep(a, b, r == 0, r == n-1)
				a, b = b, a
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return StencilResult{}, err
		}
	}
	final := cur
	if cfg.Iterations%2 == 1 {
		final = nxt
	}
	var sum float64
	for r := 0; r < n; r++ {
		sum += final[r].checksum()
	}
	per := time.Duration(0)
	if cfg.Iterations > 0 {
		per = elapsed / time.Duration(cfg.Iterations)
	}
	return StencilResult{
		Iterations:  cfg.Iterations,
		Elapsed:     elapsed,
		PerIter:     per,
		Checksum:    sum,
		CellUpdates: int64(cfg.Iterations) * int64(cfg.N) * int64(cfg.N),
	}, nil
}

// RunStencilSerial computes the same stencil on one goroutine (reference
// for correctness checks).
func RunStencilSerial(cfg StencilConfig) (StencilResult, error) {
	if err := cfg.validate(1); err != nil {
		return StencilResult{}, err
	}
	cur := newBand(cfg.N, cfg.N)
	nxt := newBand(cfg.N, cfg.N)
	initBand(cur, 0)
	start := time.Now()
	for iter := 0; iter < cfg.Iterations; iter++ {
		jacobiSweep(cur, nxt, true, true)
		cur, nxt = nxt, cur
	}
	elapsed := time.Since(start)
	return StencilResult{
		Iterations:  cfg.Iterations,
		Elapsed:     elapsed,
		Checksum:    cur.checksum(),
		CellUpdates: int64(cfg.Iterations) * int64(cfg.N) * int64(cfg.N),
	}, nil
}

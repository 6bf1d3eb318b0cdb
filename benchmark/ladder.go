package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"photon/internal/apps"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/ledger"
	"photon/internal/mem"
	"photon/internal/msg"
	"photon/internal/nicsim"
	"photon/internal/runtime"
)

// The ladder measures one quantity — post a signaled write, see its
// completion at the initiator — through each layer's own exported API
// on two nodes, so a rung minus the rung below it is that layer's self
// time. Further rungs time the remaining primitives (in-memory ledger
// and allocator cycles, remote notification, collectives, parcels) and
// the comparators (two-sided messaging, application baselines).
//
// Every rung waits the way core's blocking waits do: poll, and when the
// poll is dry park on the layer's own completion event. A rung that
// spun while the one above it parked would charge the difference in
// waiting strategy to the upper layer.

// rung is one ladder measurement. n is its sample count at scale 1;
// open builds the environment and returns the function that appends k
// more samples (nanoseconds per op) plus a teardown.
type rung struct {
	name string
	n    int
	open func(lad *ladder) (pass func(k int, out *[]int64) error, closeFn func(), err error)
	// perPass rungs run started localities. Their dispatch loops poll, so
	// the environment is opened for each pass and closed after it rather
	// than left alive; and every Future.Wait parks a 30 s timer, and a
	// process holding thousands of them pays more for every timed park
	// (the 64 KiB allreduce rung read 700 us instead of 420 us after the
	// runtime rungs had run), so these rungs run after all others.
	perPass bool
}

// ladder carries state shared by rungs while they run.
type ladder struct {
	small bool // smoke-sized application inputs
	// extra sample sets that a rung records beside its own (time inside
	// Apply, time inside Future.Wait), keyed by metric name.
	extra map[string]*[]int64
}

func (l *ladder) extraSet(name string) *[]int64 {
	if l.extra[name] == nil {
		l.extra[name] = new([]int64)
	}
	return l.extra[name]
}

// ladderPasses interleaves the rungs: each pass takes a share of every
// rung's samples. The host's speed moves in phases of seconds (see
// Summary); with one pass per rung, a self time would be the difference
// of two rungs measured in different phases.
const ladderPasses = 8

// timeEach returns a pass function timing every call of op.
func timeEach(op func() error) func(int, *[]int64) error {
	return func(k int, out *[]int64) error {
		for i := 0; i < k; i++ {
			t := time.Now()
			if err := op(); err != nil {
				return err
			}
			*out = append(*out, int64(time.Since(t)))
		}
		return nil
	}
}

// nsBatch is the calls per clock read for nanosecond-scale rungs, where
// one time.Now costs as much as the op.
const nsBatch = 64

func timeBatches(op func() error) func(int, *[]int64) error {
	return func(k int, out *[]int64) error {
		for i := 0; i < k; i++ {
			t := time.Now()
			for b := 0; b < nsBatch; b++ {
				if err := op(); err != nil {
					return err
				}
			}
			*out = append(*out, int64(time.Since(t))/nsBatch)
		}
		return nil
	}
}

// eachCall returns a pass function for rungs whose product call times
// itself: call returns the sample.
func eachCall(call func() (int64, error)) func(int, *[]int64) error {
	return func(k int, out *[]int64) error {
		for i := 0; i < k; i++ {
			v, err := call()
			if err != nil {
				return err
			}
			*out = append(*out, v)
		}
		return nil
	}
}

// park waits for a capacity-1 event channel with core's 1 ms grace and
// reports whether the event (rather than the grace timer) ended the wait.
func park(ch <-chan struct{}, t **time.Timer) bool {
	if *t == nil {
		*t = time.NewTimer(time.Millisecond)
	} else {
		(*t).Reset(time.Millisecond)
	}
	select {
	case <-ch:
		if !(*t).Stop() {
			<-(*t).C
		}
		return true
	case <-(*t).C:
		return false
	}
}

func kicker() (chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	return ch, func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

const ladderStall = 10 * time.Second

// --- fabric -----------------------------------------------------------

// fabricRung: Fabric.Send of a frame to node 1, whose handler sends a
// 16-byte echo back. The fabric moves frames by reference, so the 64 KiB
// rung shows that no byte is touched at this layer.
func fabricRung(name string, size int) rung {
	return rung{name: name, n: 50_000, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		fab := fabric.New(2, fabric.Model{})
		frame, echo := make([]byte, size), make([]byte, 16)
		done, kick := kicker()
		if err := fab.Attach(1, func(fabric.Frame) { fab.Send(1, 0, echo) }); err != nil { //nolint:errcheck // a send after Close is dropped with the run
			return nil, nil, err
		}
		if err := fab.Attach(0, func(fabric.Frame) { kick() }); err != nil {
			return nil, nil, err
		}
		var timer *time.Timer
		op := func() error {
			if err := fab.Send(0, 1, frame); err != nil {
				return err
			}
			deadline := time.Now().Add(ladderStall)
			for !park(done, &timer) {
				if time.Now().After(deadline) {
					return fmt.Errorf("%s: no echo: %w", name, core.ErrTimeout)
				}
			}
			return nil
		}
		return timeEach(op), fab.Close, nil
	}}
}

// --- nicsim -----------------------------------------------------------

// nicsimRung: QP.PostSend of a signaled RDMA write, completion reaped
// from the send CQ with PollInto.
func nicsimRung(name string, size int) rung {
	return rung{name: name, n: pick(size, 50_000, 20_000), open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		fab := fabric.New(2, fabric.Model{})
		closeAll := fab.Close
		fail := func(err error) (func(int, *[]int64) error, func(), error) {
			closeAll()
			return nil, nil, err
		}
		var nics [2]*nicsim.NIC
		var qps [2]*nicsim.QP
		var scq *nicsim.CQ
		for r := range nics {
			nic, err := nicsim.New(fab, r, nicsim.Config{})
			if err != nil {
				return fail(err)
			}
			nics[r] = nic
			prev := closeAll
			closeAll = func() { nic.Close(); prev() }
			send := nicsim.NewCQ(4096)
			if r == 0 {
				scq = send
			}
			if qps[r], err = nic.CreateQP(send, nicsim.NewCQ(16)); err != nil {
				return fail(err)
			}
		}
		target := make([]byte, size)
		mr, err := nics[1].RegisterMemory(target, nicsim.AccessAll)
		if err != nil {
			return fail(err)
		}
		for r := range qps {
			if err := qps[r].Connect(1-r, qps[1-r].QPN()); err != nil {
				return fail(err)
			}
		}
		ev, kick := kicker()
		scq.SetWakeHook(kick)
		payload := make([]byte, size)
		var cqes [8]nicsim.CQE
		var timer *time.Timer
		var wrid uint64
		op := func() error {
			wrid++
			err := qps[0].PostSend(nicsim.SendWR{WRID: wrid, Op: nicsim.OpRDMAWrite, Local: payload,
				RemoteAddr: mr.Base(), RKey: mr.RKey(), Signaled: true})
			if err != nil {
				return err
			}
			deadline := time.Now().Add(ladderStall)
			for {
				// FastLen first: the lock-free empty check vsim's Poll uses.
				if scq.FastLen() > 0 && scq.PollInto(cqes[:]) > 0 {
					if cqes[0].WRID != wrid || cqes[0].Status != nicsim.StatusOK {
						return fmt.Errorf("%s: completion %d status %v", name, cqes[0].WRID, cqes[0].Status)
					}
					return nil
				}
				park(ev, &timer)
				if time.Now().After(deadline) {
					return fmt.Errorf("%s: no completion: %w", name, core.ErrTimeout)
				}
			}
		}
		return timeEach(op), closeAll, nil
	}}
}

func pick(size, small, large int) int {
	if size <= 1024 {
		return small
	}
	return large
}

// --- backends ----------------------------------------------------------

// backendRung: PostWrite signaled on rank 0's backend, completion reaped
// with Poll. No core above it: the buffer is registered on rank 1's
// backend directly and its descriptor handed to rank 0 in-process.
func backendRung(name string, bare func(int) (*job, error), size int) rung {
	return rung{name: name, n: pick(size, 50_000, 20_000), open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		j, err := bare(2)
		if err != nil {
			return nil, nil, err
		}
		be := j.backend(0)
		rb, _, err := j.backend(1).Register(make([]byte, size))
		if err != nil {
			j.close()
			return nil, nil, err
		}
		payload := make([]byte, size)
		var comps [8]core.BackendCompletion
		var timer *time.Timer
		var tok uint64
		op := func() error {
			tok++
			if err := retry(nil, func() error { return be.PostWrite(1, payload, rb.Addr, rb.RKey, tok, true) }); err != nil {
				return err
			}
			deadline := time.Now().Add(ladderStall)
			for {
				if be.Poll(comps[:]) > 0 {
					if comps[0].Token != tok || !comps[0].OK {
						return fmt.Errorf("%s: completion %d ok=%v: %w", name, comps[0].Token, comps[0].OK, comps[0].Err)
					}
					return nil
				}
				park(be.Notify(), &timer)
				if time.Now().After(deadline) {
					return fmt.Errorf("%s: no completion: %w", name, core.ErrTimeout)
				}
			}
		}
		return timeEach(op), j.close, nil
	}}
}

// --- core --------------------------------------------------------------

// coreWriteRung: PutBlocking with a local RID and no remote RID (one
// signaled backend write, the same wire work as the backend rung) and
// WaitLocal for it.
func coreWriteRung(name string, boot func(int, core.Config) (*job, error), size int) rung {
	return rung{name: name, n: pick(size, 50_000, 20_000), open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		j, err := bootShared(boot, 2, size)
		if err != nil {
			return nil, nil, err
		}
		payload := make([]byte, size)
		var rid uint64
		op := func() error {
			rid++
			if err := j.phs[0].PutBlocking(1, payload, j.sh.descs[0][1], 0, rid, 0); err != nil {
				return err
			}
			_, err := j.phs[0].WaitLocal(rid, opWait)
			return err
		}
		return timeEach(op), j.close, nil
	}}
}

// pingpongRung times round trips between ranks 0 and 1 of a vsim job and
// records half of each: post posts toward peer with remote RID rid, both
// sides wait for the RID the other posted.
func pingpongRung(name string, n int, cfg core.Config, post func(j *job, r int, rid uint64) error) rung {
	return rung{name: name, n: n, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		j, err := bootShared(func(n int, _ core.Config) (*job, error) { return bootVsim(n, cfg) }, 2, 64<<10)
		if err != nil {
			return nil, nil, err
		}
		var next uint64
		pass := func(k int, out *[]int64) error {
			base := next
			next += uint64(k)
			return eachRank(2, func(r int) error {
				for i := uint64(1); i <= uint64(k); i++ {
					rid := base + i
					if r == 0 {
						t := time.Now()
						if err := post(j, 0, rid); err != nil {
							return err
						}
						if _, err := j.phs[0].WaitRemote(rid, opWait); err != nil {
							return err
						}
						*out = append(*out, int64(time.Since(t)/2))
						continue
					}
					if _, err := j.phs[1].WaitRemote(rid, opWait); err != nil {
						return err
					}
					if err := post(j, 1, rid); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return pass, j.close, nil
	}}
}

func putPost(size int) func(*job, int, uint64) error {
	payload := [2][]byte{make([]byte, size), make([]byte, size)}
	return func(j *job, r int, rid uint64) error {
		return j.phs[r].PutBlocking(1-r, payload[r], j.sh.descs[r][1-r], 0, 0, rid)
	}
}

func sendPost(size int) func(*job, int, uint64) error {
	payload := [2][]byte{make([]byte, size), make([]byte, size)}
	return func(j *job, r int, rid uint64) error {
		return j.phs[r].SendBlocking(1-r, payload[r], 0, rid)
	}
}

// initiatorRung times an op rank 0 completes alone (get, fetch-add).
func initiatorRung(name string, n int, issue func(j *job, rid uint64) error) rung {
	return rung{name: name, n: n, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		j, err := bootShared(bootVsim, 2, 4096)
		if err != nil {
			return nil, nil, err
		}
		var rid uint64
		op := func() error {
			rid++
			if err := retry(j.phs[0], func() error { return issue(j, rid) }); err != nil {
				return err
			}
			c, err := j.phs[0].WaitLocal(rid, opWait)
			if err != nil {
				return err
			}
			return c.Err
		}
		return timeEach(op), j.close, nil
	}}
}

// --- in-memory rungs ----------------------------------------------------

// ledgerRung: one full trip of a ledger entry with no transport under
// it — reserve a slot, encode into the receiver's memory, poll it, take
// the credit, give it back.
var ledgerRung = rung{name: "ledger.cycle_ns", n: 20_000, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
	const entry, slots = 64, 64
	buf := make([]byte, entry*slots)
	rx, err := ledger.NewReceiver(buf, entry, nil)
	if err != nil {
		return nil, nil, err
	}
	tx, err := ledger.NewSender(mem.RemoteBuffer{Addr: 0x1000, RKey: 1, Len: len(buf)}, entry)
	if err != nil {
		return nil, nil, err
	}
	payload := make([]byte, 24)
	op := func() error {
		res, err := tx.Reserve()
		if err != nil {
			return err
		}
		off := int(res.RemoteAddr - 0x1000)
		if err := ledger.Encode(buf[off:off+entry], res.Seq, payload); err != nil {
			return err
		}
		if _, ok := rx.Poll(); !ok {
			return errors.New("ledger.cycle_ns: entry not visible")
		}
		return tx.AddCredits(rx.TakeCredits())
	}
	return timeBatches(op), func() {}, nil
}}

var bufpoolRung = rung{name: "mem.bufpool_getput_ns", n: 20_000, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
	pool := mem.NewBufPool(1024, 64)
	op := func() error {
		pool.Put(pool.Get(1024))
		return nil
	}
	return timeBatches(op), func() {}, nil
}}

var slabRung = rung{name: "mem.slab_allocfree_ns", n: 20_000, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
	slab, err := mem.NewSlabOver(make([]byte, 1<<20), 0x1000)
	if err != nil {
		return nil, nil, err
	}
	op := func() error {
		b, err := slab.Alloc(32 << 10)
		if err != nil {
			return err
		}
		return slab.Release(b)
	}
	return timeBatches(op), func() {}, nil
}}

var progressIdleRung = rung{name: "core.progress_idle_ns", n: 20_000, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
	j, err := bootVsim(2, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	op := func() error {
		j.phs[0].Progress()
		return nil
	}
	return timeBatches(op), j.close, nil
}}

// --- collectives --------------------------------------------------------

// collectiveRung times one collective at rank 0 with all four ranks
// entering it in lockstep: an untimed barrier follows every timed call,
// as the barrier of allreduce_step's solver step realigns its ranks, so
// the three rungs add up to the step they are checked against.
func collectiveRung(name string, n int, call func(c *collectives.Comm, vec []float64) error, vecLen int) rung {
	return rung{name: name, n: n, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		j, err := bootVsim(stepRanks, core.Config{})
		if err != nil {
			return nil, nil, err
		}
		for _, ph := range j.phs {
			j.comms = append(j.comms, collectives.New(ph, opWait))
		}
		vecs := make([][]float64, stepRanks)
		for r := range vecs {
			vecs[r] = make([]float64, vecLen)
		}
		pass := func(k int, out *[]int64) error {
			return eachRank(stepRanks, func(r int) error {
				for i := 0; i < k; i++ {
					t := time.Now()
					if err := call(j.comms[r], vecs[r]); err != nil {
						return err
					}
					if r == 0 {
						*out = append(*out, int64(time.Since(t)))
					}
					if err := j.comms[r].Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return pass, j.close, nil
	}}
}

func allreduceCall(c *collectives.Comm, vec []float64) error {
	// Max keeps the all-ones vector bounded over any number of calls.
	return c.AllreduceInPlace(vec, collectives.OpMax)
}

// --- runtime ------------------------------------------------------------

// bootLocalities boots n vsim ranks with started localities; register
// installs the rung's actions on each before Start.
func bootLocalities(n int, register func(l *runtime.Locality) error) (*job, error) {
	j, err := bootVsim(n, core.Config{})
	if err != nil {
		return nil, err
	}
	for _, ph := range j.phs {
		l := runtime.NewLocality(ph, runtime.Config{Timeout: opWait})
		if err := register(l); err != nil {
			j.close()
			return nil, err
		}
		j.locs = append(j.locs, l)
	}
	for _, l := range j.locs {
		l.Start()
	}
	j.onClose(func() {
		for _, l := range j.locs {
			l.Shutdown()
		}
	})
	return j, nil
}

// applyRung: a parcel ping-pong — rank 0 applies "ping" at rank 1, whose
// handler applies "pong" at rank 0, whose handler releases the caller.
// Half the round trip is one parcel's one-way time; the time inside the
// Apply call itself is recorded beside it.
var applyRung = rung{name: "runtime.apply_oneway_us", n: 20_000, perPass: true, open: func(lad *ladder) (func(int, *[]int64) error, func(), error) {
	back, kick := kicker()
	j, err := bootLocalities(2, func(l *runtime.Locality) error {
		if _, err := l.RegisterAction("bench_ping", func(ctx *runtime.Context) ([]byte, error) {
			return nil, ctx.Rt.Apply(0, runtime.ActionIDFor("bench_pong"), nil)
		}); err != nil {
			return err
		}
		_, err := l.RegisterAction("bench_pong", func(*runtime.Context) ([]byte, error) {
			kick()
			return nil, nil
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	inCall := lad.extraSet("runtime.apply_us_p50")
	ping := runtime.ActionIDFor("bench_ping")
	var body [8]byte
	pass := func(k int, out *[]int64) error {
		for i := 0; i < k; i++ {
			t := time.Now()
			if err := j.locs[0].Apply(1, ping, body[:]); err != nil {
				return err
			}
			*inCall = append(*inCall, int64(time.Since(t)))
			select {
			case <-back:
			case <-time.After(ladderStall):
				return fmt.Errorf("runtime.apply_oneway_us: no pong: %w", core.ErrTimeout)
			}
			*out = append(*out, int64(time.Since(t)/2))
		}
		return nil
	}
	return pass, j.close, nil
}}

// callRung: Call an echo action at rank 1 and wait for the future.
var callRung = rung{name: "runtime.call_rtt_us", n: 20_000, perPass: true, open: func(lad *ladder) (func(int, *[]int64) error, func(), error) {
	j, err := bootLocalities(2, func(l *runtime.Locality) error {
		_, err := l.RegisterAction("bench_echo", func(ctx *runtime.Context) ([]byte, error) { return ctx.Payload, nil })
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	inWait := lad.extraSet("runtime.future_wait_us_p50")
	echo := runtime.ActionIDFor("bench_echo")
	var body [8]byte
	pass := func(k int, out *[]int64) error {
		for i := 0; i < k; i++ {
			t := time.Now()
			f, err := j.locs[0].Call(1, echo, body[:])
			if err != nil {
				return err
			}
			w := time.Now()
			if _, err := f.Wait(opWait); err != nil {
				return err
			}
			end := time.Now()
			*inWait = append(*inWait, int64(end.Sub(w)))
			*out = append(*out, int64(end.Sub(t)))
		}
		return nil
	}
	return pass, j.close, nil
}}

// gasGetRung: a global-address-space get of 8 bytes owned by rank 1.
var gasGetRung = rung{name: "runtime.gas_get_rtt_us", n: 20_000, perPass: true, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
	j, err := bootLocalities(2, func(*runtime.Locality) error { return nil })
	if err != nil {
		return nil, nil, err
	}
	const block = 4096
	arrays := make([]*runtime.GlobalArray, 2)
	err = eachRank(2, func(r int) error {
		var err error
		arrays[r], err = runtime.NewGlobalArray(j.locs[r], block)
		return err
	})
	if err != nil {
		j.close()
		return nil, nil, err
	}
	op := func() error {
		f, err := arrays[0].Get(block+64, 8)
		if err != nil {
			return err
		}
		_, err = f.Wait(opWait)
		return err
	}
	return timeEach(op), j.close, nil
}}

// --- comparators --------------------------------------------------------

// msgRung: the two-sided baseline's ping-pong over the same simulated
// NIC — matched send/receive where Photon uses ledger completion.
func msgRung(name string, size, n int) rung {
	return rung{name: name, n: n, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
		mj, err := msg.NewJob(2, fabric.Model{}, nicsim.Config{}, msg.Config{})
		if err != nil {
			return nil, nil, err
		}
		payload := make([]byte, size)
		var next uint64
		pass := func(k int, out *[]int64) error {
			base := next
			next += uint64(k)
			return eachRank(2, func(r int) error {
				ep := mj.Endpoint(r)
				for i := uint64(0); i < uint64(k); i++ {
					tag := base + i
					if r == 0 {
						t := time.Now()
						if _, err := ep.Send(1, tag, payload); err != nil {
							return err
						}
						if _, err := ep.RecvBlocking(1, tag, nil, opWait); err != nil {
							return err
						}
						*out = append(*out, int64(time.Since(t)/2))
						continue
					}
					if _, err := ep.RecvBlocking(0, tag, nil, opWait); err != nil {
						return err
					}
					if _, err := ep.Send(0, tag, payload); err != nil {
						return err
					}
				}
				return nil
			})
		}
		return pass, mj.Close, nil
	}}
}

func (l *ladder) stencilCfg() apps.StencilConfig {
	if l.small {
		return apps.StencilConfig{N: 64, Iterations: 20}
	}
	return apps.StencilConfig{N: stencilN, Iterations: stencilIters}
}

// Application rungs record one sample per call: ns per iteration.
var stencilPhotonRung = rung{name: "apps.stencil.photon_iter_us", n: 8, open: func(lad *ladder) (func(int, *[]int64) error, func(), error) {
	j, err := bootVsim(2, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	cfg := lad.stencilCfg()
	return eachCall(func() (int64, error) {
		res, err := apps.RunStencilPhoton(j.phs, cfg)
		return int64(res.PerIter), err
	}), j.close, nil
}}

var stencilBaselineRung = rung{name: "apps.stencil.baseline_iter_us", n: 8, open: func(lad *ladder) (func(int, *[]int64) error, func(), error) {
	mj, err := msg.NewJob(2, fabric.Model{}, nicsim.Config{}, msg.Config{})
	if err != nil {
		return nil, nil, err
	}
	cfg := lad.stencilCfg()
	return eachCall(func() (int64, error) {
		res, err := apps.RunStencilBaseline(mj, cfg)
		return int64(res.PerIter), err
	}), mj.Close, nil
}}

// stencilComputeRung: the serial sweep divided by the two ranks the
// workload runs on — the compute share of an iteration.
var stencilComputeRung = rung{name: "apps.stencil.compute_us", n: 8, open: func(lad *ladder) (func(int, *[]int64) error, func(), error) {
	cfg := lad.stencilCfg()
	return eachCall(func() (int64, error) {
		res, err := apps.RunStencilSerial(cfg)
		return int64(res.Elapsed) / int64(cfg.Iterations) / 2, err
	}), func() {}, nil
}}

// bfsRung records one sample per traversal: picoseconds per traversed
// edge, so 1e6 over the value is MTEPS.
func bfsRung(name string, ranks int) rung {
	return rung{name: name, n: 4, perPass: true, open: func(lad *ladder) (func(int, *[]int64) error, func(), error) {
		j, err := bootLocalities(ranks, apps.RegisterBFSActions)
		if err != nil {
			return nil, nil, err
		}
		cfg := apps.BFSConfig{Vertices: bfsVertices, Degree: bfsDegree, Seed: 1}
		if lad.small {
			cfg.Vertices = 1 << 10
		}
		return eachCall(func() (int64, error) {
			cfg.Root = (cfg.Root + 7919) % cfg.Vertices
			res, _, err := apps.RunBFSParcels(j.locs, cfg)
			if err != nil {
				return 0, err
			}
			return res.Elapsed.Nanoseconds() * 1000 / (res.Visited * bfsDegree), nil
		}), j.close, nil
	}}
}

// gupsCfg is one GUPS call: 5000 fetch-adds per rank.
var gupsCfg = apps.GUPSConfig{TableWordsPerRank: 4096, UpdatesPerRank: 5_000, Seed: 1}

var gupsRung = rung{name: "apps.gups.kups", n: 8, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
	j, err := bootVsim(2, core.Config{})
	if err != nil {
		return nil, nil, err
	}
	return eachCall(func() (int64, error) {
		res, err := apps.RunGUPSPhoton(j.phs, gupsCfg)
		if err != nil {
			return 0, err
		}
		return int64(res.Elapsed) / res.Updates, nil
	}), j.close, nil
}}

// gupsBaselineRung boots a fresh two-sided job per call: a GUPS server
// leaves its last posted receive behind, which would swallow the next
// call's first update.
var gupsBaselineRung = rung{name: "apps.gups.baseline_kups", n: 8, open: func(*ladder) (func(int, *[]int64) error, func(), error) {
	return eachCall(func() (int64, error) {
		mj, err := msg.NewJob(2, fabric.Model{}, nicsim.Config{}, msg.Config{})
		if err != nil {
			return 0, err
		}
		defer mj.Close()
		res, err := apps.RunGUPSBaseline(mj, gupsCfg)
		if err != nil {
			return 0, err
		}
		return int64(res.Elapsed) / res.Updates, nil
	}), func() {}, nil
}}

// --- the ladder ----------------------------------------------------------

var rungs = []rung{
	fabricRung("fabric.wr_rtt_8B_us", 8),
	fabricRung("fabric.wr_rtt_64K_us", 64<<10),
	nicsimRung("nicsim.wr_rtt_8B_us", 8),
	nicsimRung("nicsim.wr_rtt_64K_us", 64<<10),
	backendRung("backend.vsim.wr_rtt_8B_us", bareVsim, 8),
	backendRung("backend.vsim.wr_rtt_64K_us", bareVsim, 64<<10),
	backendRung("backend.tcp.wr_rtt_8B_us", bareTCP, 8),
	backendRung("backend.tcp.wr_rtt_64K_us", bareTCP, 64<<10),
	backendRung("backend.shm.wr_rtt_8B_us", bareShm, 8),
	backendRung("backend.shm.wr_rtt_64K_us", bareShm, 64<<10),
	coreWriteRung("core.wr_rtt_vsim_8B_us", bootVsim, 8),
	coreWriteRung("core.wr_rtt_vsim_64K_us", bootVsim, 64<<10),
	coreWriteRung("core.wr_rtt_tcp_8B_us", bootTCP, 8),
	coreWriteRung("core.wr_rtt_shm_8B_us", bootShm, 8),
	ledgerRung, bufpoolRung, slabRung,
	pingpongRung("core.pwc_oneway_8B_us", 50_000, core.Config{}, putPost(8)),
	pingpongRung("core.send_oneway_8B_us", 50_000, core.Config{}, sendPost(8)),
	pingpongRung("core.send_oneway_32K_us", 10_000, core.Config{}, sendPost(32<<10)),
	initiatorRung("core.get_rtt_8B_us", 50_000, func(j *job, rid uint64) error {
		return j.phs[0].GetWithCompletion(1, j.sh.bufs[0][:8], j.sh.descs[0][1], 0, rid, 0)
	}),
	initiatorRung("core.fadd_rtt_us", 50_000, func(j *job, rid uint64) error {
		return j.phs[0].FetchAdd(1, j.sh.descs[0][1], 64, 1, rid)
	}),
	progressIdleRung,
	collectiveRung("collectives.barrier_p50_us", 10_000, func(c *collectives.Comm, _ []float64) error { return c.Barrier() }, 1),
	collectiveRung("collectives.allreduce16_p50_us", 10_000, allreduceCall, stepSmall),
	collectiveRung("collectives.allreduce64K_p50_us", 3_000, allreduceCall, stepLarge),
	applyRung, callRung, gasGetRung,
	msgRung("msg.sendrecv_oneway_8B_us", 8, 50_000),
	msgRung("msg.sendrecv_oneway_64K_us", 64<<10, 10_000),
	stencilPhotonRung, stencilBaselineRung, stencilComputeRung,
	bfsRung("apps.bfs.r2", 2), bfsRung("apps.bfs.r4", 4),
	gupsRung, gupsBaselineRung,
	// The PR 7 observability budget: the same ping-pong with the metrics
	// registry recording. The one rung that turns a product knob.
	pingpongRung("obs.put8_dark", 25_000, core.Config{}, putPost(8)),
	pingpongRung("obs.put8_lit", 25_000, core.Config{Metrics: true}, putPost(8)),
}

// runLadder measures every rung at the given scale and returns the
// per-layer ladder metrics: each rung's value plus the derived self
// times and ratios, in the metric's own unit.
func runLadder(scale float64, small bool) (map[string]Summary, error) {
	lad := &ladder{small: small, extra: map[string]*[]int64{}}
	type env struct {
		pass    func(int, *[]int64) error
		closeFn func()
	}
	// openRung builds a rung's environment and runs its warm-up: the
	// first ops pay lazy set-up (arena exchange, pools).
	openRung := func(r rung) (env, error) {
		pass, closeFn, err := r.open(lad)
		if err != nil {
			return env{}, fmt.Errorf("ladder %s: %w", r.name, err)
		}
		var discard []int64
		if err := pass(warmFor(r.n, scale), &discard); err != nil {
			closeFn()
			return env{}, fmt.Errorf("ladder %s warm-up: %w", r.name, err)
		}
		for _, set := range lad.extra {
			*set = (*set)[:0]
		}
		return env{pass, closeFn}, nil
	}
	// Most environments live across the passes and are closed at the
	// end; idle, they only hold parked goroutines.
	envs := make([]env, len(rungs))
	defer func() {
		for _, e := range envs {
			if e.closeFn != nil {
				e.closeFn()
			}
		}
	}()
	for i, r := range rungs {
		if r.perPass {
			continue
		}
		var err error
		if envs[i], err = openRung(r); err != nil {
			return nil, err
		}
	}
	// passMed[name][p] is the median of the rung's samples in pass p, ns.
	passMed := map[string][]float64{}
	count := map[string]int{}
	note := func(name string, set []int64) {
		if len(set) > 0 {
			count[name] += len(set)
			passMed[name] = append(passMed[name], float64(percentile(sortedCopy(set), 50)))
		}
	}
	for _, late := range []bool{false, true} {
		for p := 0; p < ladderPasses; p++ {
			for i, r := range rungs {
				if r.perPass != late {
					continue
				}
				// A rung with fewer samples than passes takes one per pass
				// for as many passes as it has samples.
				total := max(1, int(float64(r.n)*scale))
				k := total / ladderPasses
				if k == 0 && p < total {
					k = 1
				}
				if k == 0 {
					continue
				}
				e := envs[i]
				if r.perPass {
					var err error
					if e, err = openRung(r); err != nil {
						return nil, err
					}
				}
				var set []int64
				err := e.pass(k, &set)
				if r.perPass {
					e.closeFn()
				}
				if err != nil {
					return nil, fmt.Errorf("ladder %s: %w", r.name, err)
				}
				note(r.name, set)
				for name, set := range lad.extra {
					note(name, *set)
					*set = (*set)[:0]
				}
			}
		}
	}

	// A rung's value is the mean of its three best pass medians, as the
	// workloads report their repetitions. A derived quantity is taken
	// pass by pass — the two rungs of a pass ran back to back, in the
	// same phase of the host — and the median over the passes reported:
	// the difference of two rungs' best passes would compare a lucky
	// pass of one with a lucky pass of the other.
	val := func(name string) float64 {
		return summarizeBest(passMed[name], "", lower, 0).Value
	}
	paired := func(a, b string, f func(x, y float64) float64) float64 {
		var d []float64
		for p := 0; p < min(len(passMed[a]), len(passMed[b])); p++ {
			d = append(d, f(passMed[a][p], passMed[b][p]))
		}
		return median(d)
	}
	sub := func(x, y float64) float64 { return x - y }

	out := map[string]Summary{}
	// put records a metric given in ns (or as a plain ratio).
	put := func(name string, v float64, n int) {
		lm := layerByName(name)
		if lm == nil {
			return // helper rung (obs.put8_dark, apps.bfs.r2, ...)
		}
		if lm.unit == "us" {
			v /= 1e3
		}
		out[name] = Summary{Value: v, Median: v, Q1: v, Q3: v, Unit: lm.unit, Samples: n}
	}
	for name := range passMed {
		put(name, val(name), count[name])
	}
	self := func(name, upper, lower string) {
		put(name, paired(upper, lower, sub), count[upper])
	}
	self("nicsim.self_8B_us", "nicsim.wr_rtt_8B_us", "fabric.wr_rtt_8B_us")
	self("nicsim.self_64K_us", "nicsim.wr_rtt_64K_us", "fabric.wr_rtt_64K_us")
	self("backend.vsim.self_8B_us", "backend.vsim.wr_rtt_8B_us", "nicsim.wr_rtt_8B_us")
	self("backend.vsim.self_64K_us", "backend.vsim.wr_rtt_64K_us", "nicsim.wr_rtt_64K_us")
	// No in-repo layer below the tcp and shm transports: self = the rung.
	put("backend.tcp.self_8B_us", val("backend.tcp.wr_rtt_8B_us"), count["backend.tcp.wr_rtt_8B_us"])
	put("backend.shm.self_8B_us", val("backend.shm.wr_rtt_8B_us"), count["backend.shm.wr_rtt_8B_us"])
	self("core.self_vsim_8B_us", "core.wr_rtt_vsim_8B_us", "backend.vsim.wr_rtt_8B_us")
	self("core.self_vsim_64K_us", "core.wr_rtt_vsim_64K_us", "backend.vsim.wr_rtt_64K_us")
	self("core.self_tcp_8B_us", "core.wr_rtt_tcp_8B_us", "backend.tcp.wr_rtt_8B_us")
	self("core.self_shm_8B_us", "core.wr_rtt_shm_8B_us", "backend.shm.wr_rtt_8B_us")
	// A parcel is one SendBlocking: what the runtime adds on top of it.
	self("runtime.self_apply_us", "runtime.apply_oneway_us", "core.send_oneway_8B_us")

	const photon = "apps.stencil.photon_iter_us"
	put("apps.stencil.photon_over_baseline", paired(photon, "apps.stencil.baseline_iter_us", div), count[photon])
	put("apps.stencil.comm_us", paired(photon, "apps.stencil.compute_us", sub), count[photon])
	// ps per edge -> edges per microsecond = MTEPS.
	put("apps.bfs.mteps_r2", div(1e6, val("apps.bfs.r2")), count["apps.bfs.r2"])
	put("apps.bfs.r4_over_r2", paired("apps.bfs.r2", "apps.bfs.r4", div), count["apps.bfs.r4"])
	// ns per update -> thousand updates per second.
	put("apps.gups.kups", div(1e6, val("apps.gups.kups")), count["apps.gups.kups"])
	put("apps.gups.baseline_kups", div(1e6, val("apps.gups.baseline_kups")), count["apps.gups.baseline_kups"])
	put("obs.put8_lit_over_dark", paired("obs.put8_lit", "obs.put8_dark", div), count["obs.put8_lit"])
	return out, nil
}

func warmFor(n int, scale float64) int {
	w := int(float64(n) * scale / 20)
	if w < 1 {
		w = 1
	}
	if w > 500 {
		w = 500
	}
	return w
}

// selfTimeSlack is how far below zero a derived self time may read
// before it is a mismatch. A layer that is a one-line wrapper (vsim over
// nicsim) has a true self time near zero, and the two rungs it is the
// difference of are separate environments whose medians each sit within
// a few percent of the truth (buffer placement, which goroutine the
// scheduler wakes first); a negative self time beyond that is a rung
// measuring something other than its name.
const selfTimeSlack = 0.10 // share of the lower rung

// ladderChecks is the ladder's self-check: every derived self time must
// be non-negative, and the top rungs must agree with the workloads they
// mirror within the lat_p50_us bound. Each violation is one
// "ladder_mismatch" line carrying both numbers.
func ladderChecks(lad map[string]Summary, results map[string]*WorkloadResult) []string {
	var bad []string
	lowerOf := map[string]string{
		"nicsim.self_8B_us": "fabric.wr_rtt_8B_us", "nicsim.self_64K_us": "fabric.wr_rtt_64K_us",
		"backend.vsim.self_8B_us": "nicsim.wr_rtt_8B_us", "backend.vsim.self_64K_us": "nicsim.wr_rtt_64K_us",
		"core.self_vsim_8B_us": "backend.vsim.wr_rtt_8B_us", "core.self_vsim_64K_us": "backend.vsim.wr_rtt_64K_us",
		"core.self_tcp_8B_us": "backend.tcp.wr_rtt_8B_us", "core.self_shm_8B_us": "backend.shm.wr_rtt_8B_us",
		"runtime.self_apply_us": "core.send_oneway_8B_us",
	}
	names := make([]string, 0, len(lowerOf))
	for n := range lowerOf {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s, ok := lad[n]
		if !ok {
			continue
		}
		below := lad[lowerOf[n]].Value
		if s.Value < -selfTimeSlack*below {
			bad = append(bad, fmt.Sprintf("ladder_mismatch %s = %.3f us is negative (rung below %s = %.3f us)", n, s.Value, lowerOf[n], below))
		}
	}
	agree := func(what string, rungSum float64, workload string) {
		res, ok := results[workload]
		if !ok || rungSum == 0 {
			return
		}
		got := res.EndToEnd["lat_p50_us"].Value
		if bound := e2eByName("lat_p50_us").bound; got > rungSum*(1+bound) || got < rungSum*(1-bound) {
			bad = append(bad, fmt.Sprintf("ladder_mismatch %s = %.3f us vs lat_p50_us on %s = %.3f us (more than %.0f%% apart)",
				what, rungSum, workload, got, bound*100))
		}
	}
	agree("core.pwc_oneway_8B_us", lad["core.pwc_oneway_8B_us"].Value, "put8_pingpong")
	agree("collectives.allreduce16_p50_us + allreduce64K_p50_us + barrier_p50_us",
		lad["collectives.allreduce16_p50_us"].Value+lad["collectives.allreduce64K_p50_us"].Value+lad["collectives.barrier_p50_us"].Value,
		"allreduce_step")
	return bad
}

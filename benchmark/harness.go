package main

import (
	"fmt"
	"net"
	gort "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"photon/internal/backend/shm"
	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/nicsim"
	"photon/internal/runtime"
)

// opWait bounds every blocking wait the harness issues. It is the only
// field the benchmark sets in any product Config: a wedged run must end
// as a reported failure, not a hang.
const opWait = 30 * time.Second

// job is one booted cluster: the Photon instances plus whichever
// transport handles expose the boundary counters. Every repetition
// boots a fresh one and closes it.
type job struct {
	phs  []*core.Photon
	vs   *vsim.Cluster  // vsim jobs: fabric and NIC counters
	tcps []*tcp.Backend // tcp jobs: data-path counters
	shms []*shm.Backend // shm jobs: ring counters
	locs []*runtime.Locality

	// Workload state that lives as long as the job.
	sh       *shared             // registered buffers
	comms    []*collectives.Comm // allreduce_step
	verified atomic.Int64        // put64k_stream: puts rank 1 has verified since boot
	slotBusy []atomic.Bool       // rma_mix_shm: put slots written but not yet verified

	closers []func() // run in reverse order by close
}

func (j *job) onClose(f func()) { j.closers = append(j.closers, f) }

func (j *job) close() {
	for i := len(j.closers) - 1; i >= 0; i-- {
		j.closers[i]()
	}
	j.closers = nil
}

// eachRank runs f once per rank concurrently and returns the first error.
func eachRank(n int, f func(r int) error) error {
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
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// initPhotons runs the collective core.Init over the given backends.
func (j *job) initPhotons(bes []core.Backend, cfg core.Config) error {
	j.phs = make([]*core.Photon, len(bes))
	j.onClose(func() {
		for _, p := range j.phs {
			if p != nil {
				p.Close() //nolint:errcheck // teardown; Close reports nothing actionable
			}
		}
	})
	return eachRank(len(bes), func(r int) error {
		ph, err := core.Init(bes[r], cfg)
		j.phs[r] = ph
		return err
	})
}

// bareVsim builds an n-rank simulated-verbs cluster on a zero-delay
// fabric — pure software cost, no sleeps in the fabric — without core.
func bareVsim(n int) (*job, error) {
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		return nil, err
	}
	j := &job{vs: cl}
	j.onClose(cl.Close)
	return j, nil
}

// bareShm builds an n-rank shared-memory ring cluster without core.
func bareShm(n int) (*job, error) {
	cl, err := shm.NewCluster(n, shm.Config{})
	if err != nil {
		return nil, err
	}
	j := &job{shms: cl.Backends()}
	j.onClose(cl.Close)
	return j, nil
}

// bareTCP opens n loopback listeners and dials the full mesh, no core.
func bareTCP(n int) (*job, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close() //nolint:errcheck // unwinding a failed boot
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	j := &job{tcps: make([]*tcp.Backend, n)}
	// Close is idempotent, so it does not matter that a Photon booted
	// over the backend closes it too.
	j.onClose(func() {
		for _, be := range j.tcps {
			if be != nil {
				be.Close() //nolint:errcheck // teardown
			}
		}
	})
	err := eachRank(n, func(r int) error {
		be, err := tcp.New(tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]})
		j.tcps[r] = be
		return err
	})
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// transport is what every backend offers the harness: the core contract
// plus the activity channel idle pollers park on.
type transport interface {
	core.Backend
	Notify() <-chan struct{}
}

// backend returns rank r's transport, whichever kind the job runs over.
func (j *job) backend(r int) transport {
	switch {
	case j.vs != nil:
		return j.vs.Backend(r)
	case j.tcps != nil:
		return j.tcps[r]
	default:
		return j.shms[r]
	}
}

// withCore turns a bare-transport constructor into one that also runs
// the collective core.Init on every rank.
func withCore(bare func(int) (*job, error)) func(int, core.Config) (*job, error) {
	return func(n int, cfg core.Config) (*job, error) {
		j, err := bare(n)
		if err != nil {
			return nil, err
		}
		bes := make([]core.Backend, n)
		for r := range bes {
			bes[r] = j.backend(r)
		}
		if err := j.initPhotons(bes, cfg); err != nil {
			j.close()
			return nil, err
		}
		return j, nil
	}
}

// bootVsim, bootTCP and bootShm boot n Photon ranks over the named
// transport.
var (
	bootVsim = withCore(bareVsim)
	bootTCP  = withCore(bareTCP)
	bootShm  = withCore(bareShm)
)

// shared is one registered buffer per rank with descriptors exchanged:
// bufs[r] is rank r's memory, descs[r][p] is rank p's buffer as rank r
// addresses it, lks[r] guards local reads of bufs[r] against remote
// writes.
type shared struct {
	bufs  [][]byte
	descs [][]mem.RemoteBuffer
	//photon:lock dma 10
	lks []sync.Locker
}

func shareBuffers(phs []*core.Photon, size int) (*shared, error) {
	n := len(phs)
	s := &shared{bufs: make([][]byte, n), descs: make([][]mem.RemoteBuffer, n), lks: make([]sync.Locker, n)}
	err := eachRank(n, func(r int) error {
		s.bufs[r] = make([]byte, size)
		rb, lk, err := phs[r].RegisterBuffer(s.bufs[r])
		if err != nil {
			return err
		}
		s.lks[r] = lk
		s.descs[r], err = phs[r].ExchangeBuffers(rb)
		return err
	})
	return s, err
}

// idle parks a dry harness poll loop the way the product's own blocking
// waits do: on the engine's activity latch when the backend has one,
// with a scheduler yield otherwise. Spinning would starve the network
// poller on a 2-vCPU host.
func idle(ph *core.Photon, t **time.Timer) {
	if ch := ph.BackendNotify(); ch != nil {
		park(ch, t)
		return
	}
	gort.Gosched()
}

// counters is a snapshot of every exported boundary counter of a job,
// summed over ranks, plus the process-level allocation and CPU clocks.
// Deltas of two snapshots bracket a timed phase.
type counters struct {
	core    core.Stats
	fabric  fabric.LinkStats
	nic     nicsim.Counters
	tcp     tcp.DataPathStats
	shm     map[string]int64
	parcels int64
	mallocs uint64
	cpu     time.Duration
}

func (j *job) snapshot() counters {
	var c counters
	for _, ph := range j.phs {
		s := ph.Stats()
		c.core.PutsDirect += s.PutsDirect
		c.core.PutsPacked += s.PutsPacked
		c.core.Gets += s.Gets
		c.core.RdzvSends += s.RdzvSends
		c.core.RdzvRecvs += s.RdzvRecvs
		c.core.Atomics += s.Atomics
		c.core.CreditWrites += s.CreditWrites
		c.core.ProgressCalls += s.ProgressCalls
		c.core.DeferredWrites += s.DeferredWrites
		c.core.EntryPoolHits += s.EntryPoolHits
		c.core.EntryPoolMisses += s.EntryPoolMisses
		c.core.RingOverflows += s.RingOverflows
		c.core.BatchPosts += s.BatchPosts
		c.core.BatchedOps += s.BatchedOps
	}
	if j.vs != nil {
		c.fabric = j.vs.Fabric().TotalStats()
		for _, be := range j.vs.Backends() {
			n := be.Device().NIC().Counters()
			c.nic.SendsPosted += n.SendsPosted
			c.nic.Completions += n.Completions
			c.nic.WireFrames += n.WireFrames
			c.nic.WireBytes += n.WireBytes
		}
	}
	for _, be := range j.tcps {
		s := be.Stats()
		c.tcp.Flushes += s.Flushes
		c.tcp.FramesOut += s.FramesOut
		c.tcp.ReadCalls += s.ReadCalls
		c.tcp.AcksPiggybacked += s.AcksPiggybacked
		c.tcp.AcksStandalone += s.AcksStandalone
	}
	if len(j.shms) > 0 {
		c.shm = make(map[string]int64)
		for _, be := range j.shms {
			be.TransportStats(func(name string, v int64) { c.shm[name] += v })
		}
	}
	for _, l := range j.locs {
		c.parcels += l.Counters().ParcelsSent
	}
	var ms gort.MemStats
	gort.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.cpu = processCPU()
	return c
}

// processCPU is user+system CPU time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// boundaryCounts turns two snapshots into the per-op boundary counts of
// the per-layer table. payload is the verified payload byte count of
// the phase. Counters of a layer the job does not have stay absent.
func boundaryCounts(j *job, a, b counters, ops, payload int64) map[string]float64 {
	n := float64(ops)
	d := func(x, y int64) float64 { return float64(y - x) }
	m := map[string]float64{
		"core.progress_calls_per_op": d(a.core.ProgressCalls, b.core.ProgressCalls) / n,
		"core.credit_writes_per_op":  d(a.core.CreditWrites, b.core.CreditWrites) / n,
		"core.batched_ops_per_post":  div(d(a.core.BatchedOps, b.core.BatchedOps), d(a.core.BatchPosts, b.core.BatchPosts)),
		"core.deferred_per_op":       d(a.core.DeferredWrites, b.core.DeferredWrites) / n,
		"core.packed_put_ratio": div(d(a.core.PutsPacked, b.core.PutsPacked),
			d(a.core.PutsPacked, b.core.PutsPacked)+d(a.core.PutsDirect, b.core.PutsDirect)),
		"core.rdzv_per_op":    d(a.core.RdzvSends, b.core.RdzvSends) / n,
		"core.ring_overflows": d(a.core.RingOverflows, b.core.RingOverflows),
		"core.entry_pool_miss_ratio": div(d(a.core.EntryPoolMisses, b.core.EntryPoolMisses),
			d(a.core.EntryPoolMisses, b.core.EntryPoolMisses)+d(a.core.EntryPoolHits, b.core.EntryPoolHits)),
	}
	if j.vs != nil {
		m["fabric.frames_per_op"] = d(a.fabric.Frames, b.fabric.Frames) / n
		m["fabric.wire_bytes_per_payload_byte"] = div(d(a.fabric.Bytes, b.fabric.Bytes), float64(payload))
		m["fabric.max_queued"] = float64(b.fabric.MaxQueued)
		m["nicsim.sends_posted_per_op"] = d(a.nic.SendsPosted, b.nic.SendsPosted) / n
		m["nicsim.completions_per_op"] = d(a.nic.Completions, b.nic.Completions) / n
	}
	if len(j.tcps) > 0 {
		m["backend.tcp.flushes_per_op"] = d(a.tcp.Flushes, b.tcp.Flushes) / n
		m["backend.tcp.frames_per_flush"] = div(d(a.tcp.FramesOut, b.tcp.FramesOut), d(a.tcp.Flushes, b.tcp.Flushes))
		m["backend.tcp.reads_per_op"] = d(a.tcp.ReadCalls, b.tcp.ReadCalls) / n
		piggy := d(a.tcp.AcksPiggybacked, b.tcp.AcksPiggybacked)
		m["backend.tcp.ack_piggyback_ratio"] = div(piggy, piggy+d(a.tcp.AcksStandalone, b.tcp.AcksStandalone))
	}
	if len(j.shms) > 0 {
		m["backend.shm.ring_full_spins_per_op"] = d(a.shm["shm_ring_full_spins"], b.shm["shm_ring_full_spins"]) / n
		m["backend.shm.agent_wakes_per_op"] = d(a.shm["shm_agent_wakes"], b.shm["shm_agent_wakes"]) / n
	}
	if len(j.locs) > 0 {
		m["runtime.parcels_per_op"] = float64(b.parcels-a.parcels) / n
	}
	return m
}

// recorder collects what one timed phase produced. Samples are appended
// by the single goroutine that times ops; failures may be counted from
// any rank (targets verify what they receive).
type recorder struct {
	samples []int64 // per-op latency, ns
	ops     int64   // ops attempted
	bytes   int64   // verified payload bytes delivered
	failed  atomic.Int64
	// busy, when set, replaces wall time as the denominator of the
	// rates: the application workloads time their own kernel and
	// exclude per-call set-up (buffer registration, graph generation).
	busy time.Duration
	// expect holds primitive counts per op the workload derives from its
	// own generated inputs, checked against the counters after the run.
	expect map[string]float64
}

func (r *recorder) sample(d time.Duration) { r.samples = append(r.samples, int64(d)) }

// fail counts one op that errored, timed out or failed verification.
func (r *recorder) fail() { r.failed.Add(1) }

// rep is everything one repetition measured.
type rep struct {
	SetupS  float64            `json:"setup_s"`
	LiveMiB float64            `json:"live_MiB"`
	Elapsed time.Duration      `json:"elapsed_ns"` // denominator of the rates (busy time where the workload reports it)
	Wall    time.Duration      `json:"wall_ns"`    // wall time of the timed phase
	Ops     int64              `json:"ops"`
	Failed  int64              `json:"failed"`
	Bytes   int64              `json:"bytes"`
	NSample int                `json:"samples"` // latency samples taken
	P50us   float64            `json:"p50_us"`  // median sample
	Tailus  float64            `json:"tail_us"` // sample at the run's tail percentile
	Mallocs uint64             `json:"mallocs"`
	CPU     time.Duration      `json:"cpu_ns"`
	Counts  map[string]float64 `json:"counts"`
	Expect  map[string]float64 `json:"expect,omitempty"`
}

// runRep boots a fresh job, warms it up, and times n units of w. in is
// the workload's pre-generated input; tr is nil for untraced
// repetitions; nreps is how many repetitions share the run's sample
// budget, which decides the tail percentile the samples support.
func runRep(w *workload, in any, n int, tr *tracerSet, nreps int) (*rep, error) {
	rec := &recorder{samples: make([]int64, 0, w.samplesFor(n))}
	warm := &recorder{samples: make([]int64, 0, w.samplesFor(w.warm))}

	gort.GC()
	t0 := time.Now()
	j, err := w.boot(in)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	defer j.close()
	if err := w.run(j, in, 0, w.warm, nil, warm); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	setup := time.Since(t0)
	if f := warm.failed.Load(); f != 0 {
		return nil, fmt.Errorf("%s: %d warm-up ops failed verification", w.name, f)
	}

	// One forced collection both measures what set-up left live and
	// gives every timed phase the same starting heap.
	gort.GC()
	var ms gort.MemStats
	gort.ReadMemStats(&ms)

	before := j.snapshot()
	start := time.Now()
	if err := w.run(j, in, w.warm, n, tr, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	wall := time.Since(start)
	after := j.snapshot()
	elapsed := wall
	if rec.busy > 0 {
		elapsed = rec.busy
	}

	// Only the percentiles outlive the repetition: keeping every sample
	// of every repetition would show up as set-up memory of the next.
	sort.Slice(rec.samples, func(a, b int) bool { return rec.samples[a] < rec.samples[b] })
	return &rep{
		SetupS:  setup.Seconds(),
		LiveMiB: float64(ms.HeapInuse) / (1 << 20),
		Elapsed: elapsed,
		Wall:    wall,
		Ops:     rec.ops,
		Failed:  rec.failed.Load(),
		Bytes:   rec.bytes,
		NSample: len(rec.samples),
		P50us:   float64(percentile(rec.samples, 50)) / 1e3,
		Tailus:  float64(percentile(rec.samples, tailPercent(nreps*len(rec.samples)))) / 1e3,
		Mallocs: after.mallocs - before.mallocs,
		CPU:     after.cpu - before.cpu,
		Counts:  boundaryCounts(j, before, after, rec.ops, rec.bytes),
		Expect:  rec.expect,
	}, nil
}

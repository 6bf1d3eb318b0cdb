package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"photon/internal/apps"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/runtime"
)

// workload is one named input set. rate is frozen: a run of --seconds S
// times rate*S units in total, split over the repetitions, so primitive
// counts repeat exactly from run to run and the run takes about S
// seconds on the reference host. unit is what rate counts (a put, a
// call, a traversal); the op the per-op metrics divide by is defined in
// the workload's run function and in benchmark/README.md.
type workload struct {
	name string
	why  string
	unit string
	rate int // units per budget-second
	warm int // warm-up units, part of set-up
	// samplesPerUnit sizes the sample buffer (1 sample per this many
	// units, rounded up) so recording never reallocates while timing.
	samplesPerUnit float64
	ranks          int

	// gen builds the inputs from the seed before any clock starts; small
	// selects the reduced application problem the smoke test uses.
	gen  func(seed int64, small bool) any
	boot func(in any) (*job, error)
	// run executes units [first, first+n). It is called once for the
	// warm-up (tr nil) and once for the timed phase.
	run func(j *job, in any, first, n int, tr *tracerSet, rec *recorder) error
}

func (w *workload) samplesFor(units int) int {
	return int(float64(units)*w.samplesPerUnit) + 1
}

// mix is splitmix64 over (seed, i): the payload pattern every workload
// derives from (seed, op index), so a misdelivered, stale or torn
// payload fails verification.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// patternPool is a set of equal buffers of one size filled from the seed
// before any clock starts. An op stamps the first 8 bytes of a buffer no
// other in-flight op is using with its own (seed, index) word and sends
// it; the receiver checks the stamp and compares the rest against the
// pool. Filling 64 KiB per op inside the timed phase would cost as much
// as the transfer it measures.
type patternPool struct {
	size int
	bufs [][]byte
}

func newPatternPool(seed int64, size, count int) *patternPool {
	p := &patternPool{size: size, bufs: make([][]byte, count)}
	for k := range p.bufs {
		b := make([]byte, size)
		for off := 8; off+8 <= size; off += 8 {
			binary.LittleEndian.PutUint64(b[off:], mix(seed^int64(size), uint64(off)))
		}
		p.bufs[k] = b
	}
	return p
}

// stamp prepares buffer k for op i and returns it.
func (p *patternPool) stamp(seed int64, i, k int) []byte {
	b := p.bufs[k]
	binary.LittleEndian.PutUint64(b, mix(seed, uint64(i)))
	return b
}

// check reports whether got is op i's payload.
func (p *patternPool) check(seed int64, i int, got []byte) bool {
	if len(got) != p.size || binary.LittleEndian.Uint64(got) != mix(seed, uint64(i)) {
		return false
	}
	return bytes.Equal(got[8:], p.bufs[0][8:])
}

var workloads = []*workload{
	put8Pingpong, put64kStream, send8RateTCP, rmaMixShm, stencilHalo, bfsParcels, allreduceStep,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// put8_pingpong
// ---------------------------------------------------------------------

var put8Pingpong = &workload{
	name: "put8_pingpong",
	why: "8 B put ping-pong at depth 1: the per-message software path (core post, ledger entry, vsim, nicsim QP, " +
		"fabric hop, progress, wait-by-RID) does all the work and bytes moved are negligible",
	unit:           "round trip",
	rate:           100_000,
	warm:           2_000,
	samplesPerUnit: 1,
	ranks:          2,
	gen:            func(seed int64, _ bool) any { return seed },
	boot: func(any) (*job, error) {
		return bootShared(bootVsim, 2, 64)
	},
	run: runPingpong,
}

// bootShared boots n ranks and registers one buffer of size bytes on each.
func bootShared(boot func(int, core.Config) (*job, error), n, size int) (*job, error) {
	j, err := boot(n, core.Config{})
	if err != nil {
		return nil, err
	}
	if j.sh, err = shareBuffers(j.phs, size); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// runPingpong: rank 0 puts 8 bytes into rank 1 and waits for rank 1's
// put back. One op is a one-way put, so a round trip is two ops and its
// sample is RTT/2. Each side checks the word the other wrote.
func runPingpong(j *job, in any, first, n int, tr *tracerSet, rec *recorder) error {
	seed := in.(int64)
	sh := j.sh
	readWord := func(r int) uint64 {
		sh.lks[r].Lock()
		defer sh.lks[r].Unlock()
		return binary.LittleEndian.Uint64(sh.bufs[r])
	}
	err := eachRank(2, func(r int) error {
		ph, t := j.phs[r], tr.rank(r)
		var out [8]byte
		for k := first; k < first+n; k++ {
			rid := uint64(k) + 1
			ping, pong := mix(seed, uint64(2*k)), mix(seed, uint64(2*k+1))
			if r == 0 {
				start := time.Now()
				o := t.op(int64(k))
				binary.LittleEndian.PutUint64(out[:], ping)
				s := t.begin(spanPut)
				err := ph.PutBlocking(1, out[:], sh.descs[0][1], 0, 0, rid)
				t.end(s)
				if err != nil {
					return err
				}
				s = t.begin(spanWaitRemote)
				_, err = ph.WaitRemote(rid, opWait)
				t.end(s)
				if err != nil {
					return fmt.Errorf("pong %d: %w", k, err)
				}
				t.end(o)
				rec.sample(time.Since(start) / 2)
				if readWord(0) != pong {
					rec.fail()
				}
				continue
			}
			o := t.op(int64(k))
			s := t.begin(spanWaitRemote)
			_, err := ph.WaitRemote(rid, opWait)
			t.end(s)
			if err != nil {
				return fmt.Errorf("ping %d: %w", k, err)
			}
			if readWord(1) != ping {
				rec.fail()
			}
			binary.LittleEndian.PutUint64(out[:], pong)
			s = t.begin(spanPut)
			err = ph.PutBlocking(0, out[:], sh.descs[1][0], 0, 0, rid)
			t.end(s)
			t.end(o)
			if err != nil {
				return err
			}
		}
		return nil
	})
	rec.ops = 2 * int64(n)
	rec.bytes = 8 * (rec.ops - rec.failed.Load())
	return err
}

// ---------------------------------------------------------------------
// put64k_stream
// ---------------------------------------------------------------------

const (
	streamSize   = 64 << 10
	streamWindow = 16
	streamSlots  = 32 // target slots; a slot is rewritten only after the target verified it
)

var put64kStream = &workload{
	name: "put64k_stream",
	why: "64 KiB puts at window 16: the bytes path (frame encode, nicsim and fabric copies, remote apply) does the work; " +
		"a wait-path or ledger gain should not move it, a removed copy should",
	unit:           "put",
	rate:           40_000,
	warm:           500,
	samplesPerUnit: 1,
	ranks:          2,
	gen: func(seed int64, _ bool) any {
		return &streamIn{seed: seed, pool: newPatternPool(seed, streamSize, streamSlots)}
	},
	boot: func(any) (*job, error) {
		return bootShared(bootVsim, 2, streamSlots*streamSize)
	},
	run: runStream,
}

type streamIn struct {
	seed int64
	pool *patternPool
}

// runStream: rank 0 keeps 16 puts in flight, each into its own slot of
// rank 1's buffer with a local and a remote completion; rank 1 drains
// the remote completions and verifies every slot. A sample is the time
// from issuing a put to reaping its local completion.
func runStream(j *job, in any, first, n int, tr *tracerSet, rec *recorder) error {
	si := in.(*streamIn)
	sh := j.sh
	err := eachRank(2, func(r int) error {
		ph, t := j.phs[r], tr.rank(r)
		var timer *time.Timer
		if r == 0 {
			var issued [4 * streamWindow]time.Time
			inflight := 0
			reap := func() error {
				s := t.begin(spanProgress)
				ph.Progress()
				t.end(s)
				popped := false
				for {
					s := t.begin(spanPopLocal)
					c, ok := ph.PopLocal()
					t.end(s)
					if !ok {
						break
					}
					if c.Err != nil {
						return c.Err
					}
					rec.sample(time.Since(issued[(c.RID-1)%uint64(len(issued))]))
					inflight--
					popped = true
				}
				if !popped {
					idle(ph, &timer)
				}
				return nil
			}
			for i := first; i < first+n; i++ {
				o := t.op(int64(i))
				// Slot i%streamSlots was last written by put
				// i-streamSlots: wait until rank 1 verified it.
				for j.verified.Load() < int64(i-streamSlots+1) {
					if err := reap(); err != nil {
						return err
					}
				}
				// Local completions of one QP arrive in order, so buffer
				// i%streamSlots is free: put i-streamSlots completed
				// before put i-streamWindow did.
				buf := si.pool.stamp(si.seed, i, i%streamSlots)
				issued[i%len(issued)] = time.Now()
				s := t.begin(spanPut)
				err := ph.PutBlocking(1, buf, sh.descs[0][1], uint64(i%streamSlots)*streamSize, uint64(i)+1, uint64(i)+1)
				t.end(s)
				if err != nil {
					return err
				}
				inflight++
				for inflight >= streamWindow {
					if err := reap(); err != nil {
						return err
					}
				}
				t.end(o)
			}
			for inflight > 0 {
				if err := reap(); err != nil {
					return err
				}
			}
			return nil
		}
		deadline := time.Now().Add(opWait)
		for got := 0; got < n; {
			ph.Progress()
			popped := false
			for {
				c, ok := ph.PopRemote()
				if !ok {
					break
				}
				i := int(c.RID - 1)
				off := (i % streamSlots) * streamSize
				sh.lks[1].Lock()
				ok = si.pool.check(si.seed, i, sh.bufs[1][off:off+streamSize])
				sh.lks[1].Unlock()
				if !ok || i != first+got {
					rec.fail()
				}
				got++
				j.verified.Store(int64(first + got))
				popped = true
			}
			if popped {
				deadline = time.Now().Add(opWait)
				continue
			}
			idle(ph, &timer)
			if time.Now().After(deadline) {
				return fmt.Errorf("stream target stalled at %d/%d: %w", got, n, core.ErrTimeout)
			}
		}
		return nil
	})
	rec.ops = int64(n)
	rec.bytes = streamSize * (rec.ops - rec.failed.Load())
	return err
}

// ---------------------------------------------------------------------
// send8_rate_tcp
// ---------------------------------------------------------------------

// rateBlock is how many sends share one timestamp at the receiver. A
// saturated pipeline has no per-op completion a caller waits for, so the
// latency sample is the receiver's inter-arrival time over a block,
// divided by the block. 256 sends are about 280 us: long enough that one
// scheduler or netpoll hiccup of tens of microseconds does not by itself
// make a block the p99 (at 64 the tail moved by 25 % between runs), short
// enough that a stall of a credit round still stands out.
const rateBlock = 256

var send8RateTCP = &workload{
	name: "send8_rate_tcp",
	why: "saturated 8 B eager sends over loopback TCP: the only real kernel network path, where ledger credits, " +
		"credit-return writes, doorbell batching and the coalescing writer limit the rate",
	unit:           "send",
	rate:           800_000,
	warm:           20_000,
	samplesPerUnit: 1.0 / rateBlock,
	ranks:          2,
	gen:            func(seed int64, _ bool) any { return seed },
	boot: func(any) (*job, error) {
		return bootTCP(2, core.Config{})
	},
	run: runSendRate,
}

func runSendRate(j *job, in any, first, n int, tr *tracerSet, rec *recorder) error {
	seed := in.(int64)
	err := eachRank(2, func(r int) error {
		ph, t := j.phs[r], tr.rank(r)
		if r == 0 {
			var out [8]byte
			for i := first; i < first+n; i++ {
				o := t.op(int64(i))
				binary.LittleEndian.PutUint64(out[:], mix(seed, uint64(i)))
				s := t.begin(spanSend)
				err := ph.SendBlocking(1, out[:], 0, uint64(i)+1)
				t.end(s)
				t.end(o)
				if err != nil {
					return err
				}
			}
			return nil
		}
		var timer *time.Timer
		deadline := time.Now().Add(opWait)
		last := time.Now()
		for got := 0; got < n; {
			o := t.op(int64(first + got))
			s := t.begin(spanProgress)
			ph.Progress()
			t.end(s)
			popped := false
			for {
				s := t.begin(spanPopRemote)
				c, ok := ph.PopRemote()
				t.end(s)
				if !ok {
					break
				}
				i := first + got
				if c.RID != uint64(i)+1 || len(c.Data) != 8 || binary.LittleEndian.Uint64(c.Data) != mix(seed, uint64(i)) {
					rec.fail()
				}
				got++
				popped = true
				if got%rateBlock == 0 {
					now := time.Now()
					rec.sample(now.Sub(last) / rateBlock)
					last = now
				}
			}
			t.end(o)
			if popped {
				deadline = time.Now().Add(opWait)
				continue
			}
			idle(ph, &timer)
			if time.Now().After(deadline) {
				return fmt.Errorf("send-rate receiver stalled at %d/%d: %w", got, n, core.ErrTimeout)
			}
		}
		return nil
	})
	rec.ops = int64(n)
	rec.bytes = 8 * (rec.ops - rec.failed.Load())
	return err
}

// ---------------------------------------------------------------------
// rma_mix_shm
// ---------------------------------------------------------------------

// Op kinds of the mix.
const (
	mixPut = iota
	mixGet
	mixSend
	mixFetchAdd
)

const (
	mixWindow  = 8
	mixSlots   = 32
	mixMaxSize = 64 << 10

	// Rank 1's registered buffer: the static region gets read, the
	// fetch-add cell, then the put slots.
	mixGetOff  = 0
	mixCellOff = mixMaxSize
	mixPutOff  = 2 * mixMaxSize
	mixBufSize = mixPutOff + mixSlots*mixMaxSize
)

var mixSizes = [...]int{8, 64, 512, 4 << 10, 16 << 10, 64 << 10}

type mixOp struct {
	Kind uint8
	Size int32  // payload bytes (8 for a fetch-add)
	Add  uint64 // fetch-add addend
	Slot int32  // put: target slot
	Sum  uint64 // fetch-add: sum of all earlier addends, the value the op must return
}

type mixIn struct {
	seed     int64
	ops      []mixOp // sequence, cycled when a run is longer
	cycleSum uint64  // sum of the addends of one pass over ops
	pools    map[int]*patternPool
	src      []byte // what rank 1 exposes to gets
}

// mixSeqLen is the generated sequence length; runs longer than this
// cycle it (index modulo), which keeps the op mix exact at any length.
const mixSeqLen = 1 << 16

func genMix(seed int64, _ bool) any {
	in := &mixIn{seed: seed, ops: make([]mixOp, mixSeqLen), pools: map[int]*patternPool{}}
	rng := rand.New(rand.NewSource(seed))
	puts := 0
	for i := range in.ops {
		op := &in.ops[i]
		op.Size = int32(mixSizes[rng.Intn(len(mixSizes))])
		switch p := rng.Float64(); {
		case p < 0.40:
			op.Kind = mixPut
			op.Slot = int32(puts % mixSlots)
			puts++
		case p < 0.65:
			op.Kind = mixGet
		case p < 0.90:
			op.Kind = mixSend
		default:
			op.Kind = mixFetchAdd
			op.Size = 8
			op.Add = rng.Uint64()>>40 + 1
			op.Sum = in.cycleSum
			in.cycleSum += op.Add
		}
	}
	for _, sz := range mixSizes {
		in.pools[sz] = newPatternPool(seed, sz, mixWindow)
	}
	in.src = make([]byte, mixMaxSize)
	for off := 0; off < len(in.src); off += 8 {
		binary.LittleEndian.PutUint64(in.src[off:], mix(seed, uint64(off)|1<<40))
	}
	return in
}

// encodeMixSeq serializes the op sequence (for the determinism test).
func (in *mixIn) encodeMixSeq() []byte {
	var b bytes.Buffer
	for _, op := range in.ops {
		binary.Write(&b, binary.LittleEndian, op) //nolint:errcheck // bytes.Buffer cannot fail
	}
	return b.Bytes()
}

var rmaMixShm = &workload{
	name: "rma_mix_shm",
	why: "seeded 40/25/25/10 put/get/send/fetch-add mix over shm, sizes 8 B to 64 KiB straddling the eager threshold: " +
		"a put gain that costs gets, or an eager gain that slows rendezvous, shows here",
	unit:           "op",
	rate:           200_000,
	warm:           1_000,
	samplesPerUnit: 1,
	ranks:          2,
	gen:            genMix,
	boot: func(in any) (*job, error) {
		j, err := bootShared(bootShm, 2, mixBufSize)
		if err != nil {
			return nil, err
		}
		copy(j.sh.bufs[1][mixGetOff:], in.(*mixIn).src)
		j.slotBusy = make([]atomic.Bool, mixSlots)
		return j, nil
	},
	run: runMix,
}

// runMix: rank 0 issues the seeded sequence with 8 ops in flight, every
// op carrying a local completion; a sample is issue to local completion.
// Rank 1 verifies every put and send it is notified of; rank 0 verifies
// what gets and fetch-adds return.
func runMix(j *job, in any, first, n int, tr *tracerSet, rec *recorder) error {
	mi := in.(*mixIn)
	sh := j.sh
	opAt := func(i int) *mixOp { return &mi.ops[i%len(mi.ops)] }
	notified := 0 // remote completions rank 1 must see
	rdzv := 0     // sends above the eager threshold: RTS, target read, FIN
	var payload int64
	for i := first; i < first+n; i++ {
		op := opAt(i)
		if op.Kind == mixPut || op.Kind == mixSend {
			notified++
		}
		if op.Kind == mixSend && int(op.Size) > j.phs[0].EagerThreshold() {
			rdzv++
		}
		payload += int64(op.Size)
	}
	rec.expect = map[string]float64{"core.rdzv_per_op": float64(rdzv) / float64(n)}

	err := eachRank(2, func(r int) error {
		ph, t := j.phs[r], tr.rank(r)
		var timer *time.Timer
		if r == 1 {
			deadline := time.Now().Add(opWait)
			for got := 0; got < notified; {
				ph.Progress()
				popped := false
				for {
					c, ok := ph.PopRemote()
					if !ok {
						break
					}
					i := int(c.RID - 1)
					op := opAt(i)
					pool := mi.pools[int(op.Size)]
					switch op.Kind {
					case mixPut:
						off := mixPutOff + int(op.Slot)*mixMaxSize
						sh.lks[1].Lock()
						ok = pool.check(mi.seed, i, sh.bufs[1][off:off+int(op.Size)])
						sh.lks[1].Unlock()
						j.slotBusy[op.Slot].Store(false)
					case mixSend:
						ok = pool.check(mi.seed, i, c.Data)
					default:
						ok = false
					}
					if !ok || c.Err != nil {
						rec.fail()
					}
					got++
					popped = true
				}
				if popped {
					deadline = time.Now().Add(opWait)
					continue
				}
				idle(ph, &timer)
				if time.Now().After(deadline) {
					return fmt.Errorf("mix target stalled at %d/%d: %w", got, notified, core.ErrTimeout)
				}
			}
			return nil
		}

		// An op may stay in flight while many later ops pass it (a
		// rendezvous send completes only after the target read it), so
		// per-op state lives in one of mixWindow slots held from issue to
		// local completion, never in a ring indexed by op number. Slot s
		// owns buffer s of every pattern pool and get buffer s.
		type flight struct {
			op     int
			issued time.Time
		}
		var slots [mixWindow]flight
		free := make([]int, mixWindow)
		getBufs := make([][]byte, mixWindow)
		for k := range getBufs {
			free[k] = k
			getBufs[k] = make([]byte, mixMaxSize)
		}
		dst := sh.descs[0][1]
		reap := func() error {
			s := t.begin(spanProgress)
			ph.Progress()
			t.end(s)
			popped := false
			for {
				s := t.begin(spanPopLocal)
				c, ok := ph.PopLocal()
				t.end(s)
				if !ok {
					break
				}
				i := int(c.RID - 1)
				k := 0
				for slots[k].op != i {
					k++
				}
				rec.sample(time.Since(slots[k].issued))
				op := opAt(i)
				ok = c.Err == nil
				switch op.Kind {
				case mixGet:
					ok = ok && bytes.Equal(getBufs[k][:op.Size], mi.src[:op.Size])
				case mixFetchAdd:
					// Atomics execute in posting order, so the prior value
					// is the sum of every earlier addend: whole passes
					// over the sequence plus this pass's prefix.
					ok = ok && c.Value == op.Sum+uint64(i/len(mi.ops))*mi.cycleSum
				}
				if !ok {
					rec.fail()
				}
				slots[k].op = -1
				free = append(free, k)
				popped = true
			}
			if !popped {
				idle(ph, &timer)
			}
			return nil
		}
		for k := range slots {
			slots[k].op = -1
		}
		for i := first; i < first+n; i++ {
			op := opAt(i)
			rid := uint64(i) + 1
			o := t.op(int64(i))
			for len(free) == 0 {
				if err := reap(); err != nil {
					return err
				}
			}
			k := free[len(free)-1]
			free = free[:len(free)-1]
			slots[k] = flight{op: i, issued: time.Now()}
			var err error
			switch op.Kind {
			case mixPut:
				for !j.slotBusy[op.Slot].CompareAndSwap(false, true) {
					if err := reap(); err != nil {
						return err
					}
				}
				buf := mi.pools[int(op.Size)].stamp(mi.seed, i, k)
				s := t.begin(spanPut)
				err = ph.PutBlocking(1, buf, dst, uint64(mixPutOff+int(op.Slot)*mixMaxSize), rid, rid)
				t.end(s)
			case mixSend:
				buf := mi.pools[int(op.Size)].stamp(mi.seed, i, k)
				s := t.begin(spanSend)
				err = ph.SendBlocking(1, buf, rid, rid)
				t.end(s)
			case mixGet:
				s := t.begin(spanGet)
				err = retry(ph, func() error {
					return ph.GetWithCompletion(1, getBufs[k][:op.Size], dst, mixGetOff, rid, 0)
				})
				t.end(s)
			case mixFetchAdd:
				s := t.begin(spanFetchAdd)
				err = retry(ph, func() error { return ph.FetchAdd(1, dst, mixCellOff, op.Add, rid) })
				t.end(s)
			}
			if err != nil {
				return fmt.Errorf("mix op %d: %w", i, err)
			}
			t.end(o)
		}
		for len(free) < mixWindow {
			if err := reap(); err != nil {
				return err
			}
		}
		return nil
	})
	rec.ops = int64(n)
	rec.bytes = payload
	if err != nil {
		return err
	}
	// The cell must hold the sum of every addend issued since boot.
	end := first + n
	want := uint64(end/len(mi.ops)) * mi.cycleSum
	for i := 0; i < end%len(mi.ops); i++ {
		want += mi.ops[i].Add
	}
	sh.lks[1].Lock()
	cell := binary.LittleEndian.Uint64(sh.bufs[1][mixCellOff:])
	sh.lks[1].Unlock()
	if cell != want {
		rec.fail()
	}
	return nil
}

// retry repeats a non-blocking post until it is accepted, driving
// progress in between when there is a Photon to drive: gets and atomics
// have no blocking wrapper in core, bare backends none at all.
func retry(ph *core.Photon, post func() error) error {
	for {
		err := post()
		if err == nil || !errors.Is(err, core.ErrWouldBlock) {
			return err
		}
		if ph != nil {
			ph.Progress()
		}
	}
}

// ---------------------------------------------------------------------
// stencil_halo
// ---------------------------------------------------------------------

const (
	stencilN     = 256
	stencilIters = 300
)

type stencilIn struct {
	cfg      apps.StencilConfig
	checksum float64 // RunStencilSerial's
}

var stencilHalo = &workload{
	name: "stencil_halo",
	why: "Jacobi N=256 on 2 ranks, halo puts plus compute per iteration: the application-level case where " +
		"comm/compute overlap or a leaner probe path pays off (2 ranks: they busy-poll on 2 vCPUs)",
	unit:           "call of 300 iterations",
	rate:           14,
	warm:           1,
	samplesPerUnit: 1,
	ranks:          2,
	gen: func(_ int64, small bool) any {
		cfg := apps.StencilConfig{N: stencilN, Iterations: stencilIters}
		if small {
			cfg = apps.StencilConfig{N: 64, Iterations: 20}
		}
		ref, err := apps.RunStencilSerial(cfg)
		if err != nil {
			panic(err) // constant, valid geometry
		}
		return &stencilIn{cfg: cfg, checksum: ref.Checksum}
	},
	boot: func(any) (*job, error) { return bootVsim(2, core.Config{}) },
	run: func(j *job, in any, first, n int, tr *tracerSet, rec *recorder) error {
		si := in.(*stencilIn)
		t := tr.rank(0)
		for c := first; c < first+n; c++ {
			o := t.op(int64(c))
			s := t.begin(spanStencil)
			res, err := apps.RunStencilPhoton(j.phs, si.cfg)
			t.end(s)
			t.end(o)
			if err != nil {
				return err
			}
			// One op is one iteration; the sample is the call's mean.
			rec.sample(res.PerIter)
			rec.busy += res.Elapsed
			rec.ops += int64(res.Iterations)
			if math.Abs(res.Checksum-si.checksum) > 1e-9*math.Abs(si.checksum) {
				rec.failed.Add(int64(res.Iterations))
			} else {
				// Two boundary rows cross the rank boundary per iteration.
				rec.bytes += int64(res.Iterations) * 2 * int64(si.cfg.N) * 8
			}
		}
		return nil
	},
}

// ---------------------------------------------------------------------
// bfs_parcels
// ---------------------------------------------------------------------

const (
	bfsVertices = 1 << 16
	bfsDegree   = 8
	bfsRoots    = 8 // distinct roots, cycled; each needs a serial reference
)

type bfsIn struct {
	seed  int64
	verts int
	roots []int
	refs  [][]int32 // BFSSerial distances per root
}

var bfsParcels = &workload{
	name: "bfs_parcels",
	why: "level-synchronous BFS over runtime parcels on 4 ranks (2^16 vertices, degree 8): the runtime path " +
		"(Call/Barrier over SendBlocking) under fan-out to 3 peers, with ranks that park rather than spin",
	unit:           "traversal",
	rate:           6,
	warm:           1,
	samplesPerUnit: 1,
	ranks:          4,
	gen: func(seed int64, small bool) any {
		in := &bfsIn{seed: seed, verts: bfsVertices}
		if small {
			in.verts = 1 << 10
		}
		adj := apps.GenGraph(in.verts, bfsDegree, seed)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < bfsRoots; k++ {
			root := rng.Intn(in.verts)
			in.roots = append(in.roots, root)
			in.refs = append(in.refs, apps.BFSSerial(adj, root))
		}
		return in
	},
	boot: func(any) (*job, error) {
		j, err := bootVsim(4, core.Config{})
		if err != nil {
			return nil, err
		}
		for _, ph := range j.phs {
			l := runtime.NewLocality(ph, runtime.Config{Timeout: opWait})
			if err := apps.RegisterBFSActions(l); err != nil {
				j.close()
				return nil, err
			}
			j.locs = append(j.locs, l)
		}
		for _, l := range j.locs {
			l.Start()
		}
		// Localities stop before the Photons under them close.
		j.onClose(func() {
			for _, l := range j.locs {
				l.Shutdown()
			}
		})
		return j, nil
	},
	run: func(j *job, in any, first, n int, tr *tracerSet, rec *recorder) error {
		bi := in.(*bfsIn)
		t := tr.rank(0)
		for c := first; c < first+n; c++ {
			k := c % bfsRoots
			cfg := apps.BFSConfig{Vertices: bi.verts, Degree: bfsDegree, Seed: bi.seed, Root: bi.roots[k]}
			o := t.op(int64(c))
			s := t.begin(spanBFS)
			res, dist, err := apps.RunBFSParcels(j.locs, cfg)
			t.end(s)
			t.end(o)
			if err != nil {
				return err
			}
			// One op is one traversed edge: every visited vertex has
			// exactly bfsDegree out-edges. The sample is the traversal.
			edges := res.Visited * bfsDegree
			rec.sample(res.Elapsed)
			rec.busy += res.Elapsed
			rec.ops += edges
			if !equalInt32(dist, bi.refs[k]) {
				rec.failed.Add(edges)
			} else {
				rec.bytes += 4 * edges // one vertex id shipped per relaxed edge
			}
		}
		return nil
	},
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// allreduce_step
// ---------------------------------------------------------------------

const (
	stepSmall = 16
	stepLarge = 8192 // doubles: 64 KiB
	stepRanks = 4
)

var allreduceStep = &workload{
	name: "allreduce_step",
	why: "solver step on 4 ranks (allreduce of 16 doubles, allreduce of 64 KiB, barrier): the collectives layer does " +
		"the work (schedules, arena, batched waits) and the slowest of 4 ranks sets each round",
	unit:           "step",
	rate:           1_800,
	warm:           50,
	samplesPerUnit: 1,
	ranks:          stepRanks,
	gen:            func(int64, bool) any { return nil },
	boot: func(any) (*job, error) {
		j, err := bootVsim(stepRanks, core.Config{})
		if err != nil {
			return nil, err
		}
		for _, ph := range j.phs {
			j.comms = append(j.comms, collectives.New(ph, opWait))
		}
		return j, nil
	},
	run: runAllreduceStep,
}

// stepVectors precomputes what rank r contributes and what every rank
// must end with. Element e of variant v is (e+v)%251 scaled by (r+1);
// all values are small integers, so the sum over ranks is exact in any
// reduction order: stepRanks*(stepRanks+1)/2 times the base. Steps
// alternate between two variants so a stale result from the previous
// step fails verification, and a step costs the harness one copy in and
// one compare out instead of 8192 conversions.
func stepVectors(r, n int) (contrib, want [2][]float64) {
	const sumFactor = stepRanks * (stepRanks + 1) / 2
	for v := range contrib {
		contrib[v] = make([]float64, n)
		want[v] = make([]float64, n)
		for e := 0; e < n; e++ {
			base := float64((e + v) % 251)
			contrib[v][e] = float64(r+1) * base
			want[v][e] = sumFactor * base
		}
	}
	return contrib, want
}

func equalFloats(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runAllreduceStep: every rank runs the same n steps; rank 0's wall time
// for a step is the sample. Every rank checks the small result each
// step; the 64 KiB result is checked by one rank per step in rotation,
// because four full compares per step on two vCPUs would be a visible
// share of the step they measure.
func runAllreduceStep(j *job, _ any, first, n int, tr *tracerSet, rec *recorder) error {
	bad := make([]atomic.Bool, n)
	err := eachRank(stepRanks, func(r int) error {
		c, t := j.comms[r], tr.rank(r)
		small := make([]float64, stepSmall)
		large := make([]float64, stepLarge)
		smallIn, smallWant := stepVectors(r, stepSmall)
		largeIn, largeWant := stepVectors(r, stepLarge)
		for step := first; step < first+n; step++ {
			v := step % 2
			copy(small, smallIn[v])
			copy(large, largeIn[v])
			start := time.Now()
			o := t.op(int64(step))
			s := t.begin(spanAllreduce16)
			err := c.AllreduceInPlace(small, collectives.OpSum)
			t.end(s)
			if err != nil {
				return fmt.Errorf("step %d small: %w", step, err)
			}
			s = t.begin(spanAllreduce64K)
			err = c.AllreduceInPlace(large, collectives.OpSum)
			t.end(s)
			if err != nil {
				return fmt.Errorf("step %d large: %w", step, err)
			}
			s = t.begin(spanBarrier)
			err = c.Barrier()
			t.end(s)
			t.end(o)
			if err != nil {
				return fmt.Errorf("step %d barrier: %w", step, err)
			}
			if r == 0 {
				rec.sample(time.Since(start))
			}
			if !equalFloats(small, smallWant[v]) || (step%stepRanks == r && !equalFloats(large, largeWant[v])) {
				bad[step-first].Store(true)
			}
		}
		return nil
	})
	rec.ops = int64(n)
	for i := range bad {
		if bad[i].Load() {
			rec.fail()
		}
	}
	rec.bytes = (stepSmall + stepLarge) * 8 * (rec.ops - rec.failed.Load())
	return err
}

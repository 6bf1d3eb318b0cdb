package bench

import (
	"fmt"
	"time"

	"photon/internal/core"
	"photon/internal/mem"
	"photon/internal/msg"
)

const benchWait = 30 * time.Second

// timeRanks runs every fn on its own goroutine and returns the wall
// time until the last one finishes: the one clock, goroutine set and
// error slots behind every measurement in this file.
func timeRanks(fns ...func() error) (time.Duration, error) {
	start := time.Now()
	err := firstErr(eachRank(len(fns), func(r int) error { return fns[r]() }))
	return time.Since(start), err
}

// loop adapts a per-iteration step (i = 1..iters) to a timeRanks body.
func loop(iters int, step func(i int) error) func() error {
	return func() error {
		for i := 1; i <= iters; i++ {
			if err := step(i); err != nil {
				return fmt.Errorf("iteration %d: %w", i, err)
			}
		}
		return nil
	}
}

// perOp divides a timed run into its per-operation share.
func perOp(elapsed time.Duration, ops int, err error) (time.Duration, error) {
	if err != nil {
		return 0, err
	}
	return elapsed / time.Duration(ops), nil
}

// perSecond converts a timed run of `units` (messages, bytes) to a rate.
func perSecond(elapsed time.Duration, units float64, err error) (float64, error) {
	if err != nil {
		return 0, err
	}
	return units / elapsed.Seconds(), nil
}

// windowed posts iters operations (i = 1..iters, each surfacing one
// local completion) with at most window in flight, reaping local
// completions between posts and parking on a core.Waiter when a
// progress round reaps nothing, then drains the tail.
func windowed(ph *core.Photon, window, iters int, post func(i int) error) error {
	w := core.NewWaiter(ph)
	defer w.Release()
	inflight := 0
	for i := 1; i <= iters || inflight > 0; {
		if i <= iters && inflight < window {
			if err := post(i); err != nil {
				return err
			}
			inflight++
			i++
			continue
		}
		ph.Progress()
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
		if !popped {
			w.Idle()
		}
	}
	return nil
}

// drainRemote progresses ph until it has popped total remote
// completions, parking on a core.Waiter after every dry round.
func drainRemote(ph *core.Photon, total int) error {
	w := core.NewWaiter(ph)
	defer w.Release()
	deadline := time.Now().Add(benchWait)
	for got := 0; got < total; {
		ph.Progress()
		popped := false
		for {
			if _, ok := ph.PopRemote(); !ok {
				break
			}
			got++
			popped = true
		}
		if popped {
			continue
		}
		w.Idle()
		if time.Now().After(deadline) {
			return fmt.Errorf("remote drain stalled at %d/%d", got, total)
		}
	}
	return nil
}

// warmupIters picks a short untimed warmup for a latency measurement.
func warmupIters(iters int) int {
	w := iters / 5
	if w > 50 {
		w = 50
	}
	if w < 4 {
		w = 4
	}
	return w
}

// PingPongPWC measures the average one-way latency of a direct
// put-with-completion of `size` bytes between ranks 0 and 1: rank 0
// puts into rank 1's registered buffer with a remote RID, rank 1
// harvests the completion and puts back. Half the round trip is
// reported.
func PingPongPWC(phs []*core.Photon, descs [][]mem.RemoteBuffer, size, iters int) (time.Duration, error) {
	if _, err := pingPongPWCRun(phs, descs, size, warmupIters(iters), 1<<40); err != nil {
		return 0, err
	}
	return pingPongPWCRun(phs, descs, size, iters, 0)
}

func pingPongPWCRun(phs []*core.Photon, descs [][]mem.RemoteBuffer, size, iters int, ridBase uint64) (time.Duration, error) {
	payload0 := make([]byte, size)
	payload1 := make([]byte, size)
	elapsed, err := timeRanks(
		loop(iters, func(i int) error { // rank 0: initiator
			rid := ridBase + uint64(i)
			if err := phs[0].PutBlocking(1, payload0, descs[0][1], 0, 0, rid); err != nil {
				return err
			}
			_, err := phs[0].WaitRemote(rid, benchWait)
			return err
		}),
		loop(iters, func(i int) error { // rank 1: responder
			rid := ridBase + uint64(i)
			if _, err := phs[1].WaitRemote(rid, benchWait); err != nil {
				return err
			}
			return phs[1].PutBlocking(0, payload1, descs[1][0], 0, 0, rid)
		}))
	return perOp(elapsed, 2*iters, err)
}

// PingPongSend measures the one-way latency of the message path
// (packed eager below the threshold, rendezvous above it).
func PingPongSend(phs []*core.Photon, size, iters int) (time.Duration, error) {
	if _, err := pingPongSendRun(phs, size, warmupIters(iters), 1<<41); err != nil {
		return 0, err
	}
	return pingPongSendRun(phs, size, iters, 0)
}

func pingPongSendRun(phs []*core.Photon, size, iters int, ridBase uint64) (time.Duration, error) {
	payload := make([]byte, size)
	elapsed, err := timeRanks(
		loop(iters, func(i int) error {
			rid := ridBase + uint64(i)
			if err := phs[0].SendBlocking(1, payload, 0, rid); err != nil {
				return err
			}
			_, err := phs[0].WaitRemote(rid, benchWait)
			return err
		}),
		loop(iters, func(i int) error {
			rid := ridBase + uint64(i)
			if _, err := phs[1].WaitRemote(rid, benchWait); err != nil {
				return err
			}
			return phs[1].SendBlocking(0, payload, 0, rid)
		}))
	return perOp(elapsed, 2*iters, err)
}

// requestReply times iters round trips of the two-sided pattern every
// baseline here reduces to: rank 0 sends req under reqTag and blocks
// for repTag, rank 1 blocks for reqTag and answers with rep.
func requestReply(job *msg.Job, iters int, reqTag, repTag func(i int) uint64, req, rep []byte) (time.Duration, error) {
	a, b := job.Endpoint(0), job.Endpoint(1)
	return timeRanks(
		loop(iters, func(i int) error {
			if _, err := a.Send(1, reqTag(i), req); err != nil {
				return err
			}
			_, err := a.RecvBlocking(1, repTag(i), nil, benchWait)
			return err
		}),
		loop(iters, func(i int) error {
			if _, err := b.RecvBlocking(0, reqTag(i), nil, benchWait); err != nil {
				return err
			}
			_, err := b.Send(0, repTag(i), rep)
			return err
		}))
}

func fixedTag(tag uint64) func(int) uint64 { return func(int) uint64 { return tag } }

// PingPongBaseline measures the two-sided baseline's one-way latency.
func PingPongBaseline(job *msg.Job, size, iters int) (time.Duration, error) {
	payload := make([]byte, size)
	run := func(iters int, tagBase uint64) (time.Duration, error) {
		tag := func(i int) uint64 { return tagBase + uint64(i) }
		elapsed, err := requestReply(job, iters, tag, tag, payload, payload)
		return perOp(elapsed, 2*iters, err)
	}
	if _, err := run(warmupIters(iters), 1<<42); err != nil {
		return 0, err
	}
	return run(iters, 0)
}

// PingPongBaselineCluttered is PingPongBaseline with `clutter`
// never-matching receives pre-posted at each endpoint: every arrival
// must scan past them in the matching engine, reproducing the
// deep-posted-queue behaviour of real two-sided stacks. Photon's
// ledger probe has no analogous cost — that asymmetry is the point of
// the notification-overhead comparison.
func PingPongBaselineCluttered(job *msg.Job, size, iters, clutter int) (time.Duration, error) {
	for _, ep := range []*msg.Endpoint{job.Endpoint(0), job.Endpoint(1)} {
		for i := 0; i < clutter; i++ {
			if _, err := ep.Recv(-1, uint64(1<<40)+uint64(i), nil); err != nil {
				return 0, err
			}
		}
	}
	return PingPongBaseline(job, size, iters)
}

// GetLatencyGWC measures the average latency of a one-sided get of
// `size` bytes (rank 0 reads rank 1's buffer; completion local).
func GetLatencyGWC(phs []*core.Photon, descs [][]mem.RemoteBuffer, size, iters int) (time.Duration, error) {
	dst := make([]byte, size)
	elapsed, err := timeRanks(loop(iters, func(i int) error {
		if err := phs[0].GetWithCompletion(1, dst, descs[0][1], 0, uint64(i), 0); err != nil {
			return err
		}
		_, err := phs[0].WaitLocal(uint64(i), benchWait)
		return err
	}))
	return perOp(elapsed, iters, err)
}

// GetLatencyBaseline measures the two-sided pull: rank 0 sends a
// request, rank 1 replies with the data — the software path a runtime
// without RMA must use to read remote memory.
func GetLatencyBaseline(job *msg.Job, size, iters int) (time.Duration, error) {
	const reqTag, repTag = 1 << 20, 1<<20 + 1
	elapsed, err := requestReply(job, iters, fixedTag(reqTag), fixedTag(repTag), nil, make([]byte, size))
	return perOp(elapsed, iters, err)
}

// StreamBandwidthPWC measures put bandwidth: rank 0 streams `iters`
// puts of `size` bytes with `window` outstanding, rank 1 consumes
// completions. Returns bytes per second.
func StreamBandwidthPWC(phs []*core.Photon, descs [][]mem.RemoteBuffer, size, window, iters int) (float64, error) {
	payload := make([]byte, size)
	elapsed, err := timeRanks(
		func() error { // initiator with window
			return windowed(phs[0], window, iters, func(i int) error {
				return phs[0].PutBlocking(1, payload, descs[0][1], 0, uint64(i), uint64(i))
			})
		},
		func() error { return drainRemote(phs[1], iters) })
	return perSecond(elapsed, float64(size)*float64(iters), err)
}

// StreamBandwidthBaseline is the two-sided counterpart.
func StreamBandwidthBaseline(job *msg.Job, size, window, iters int) (float64, error) {
	payload := make([]byte, size)
	a, b := job.Endpoint(0), job.Endpoint(1)
	elapsed, err := timeRanks(
		func() error {
			var pending []*msg.SendHandle
			for i := 0; i < iters; i++ {
				h, err := a.Send(1, 1, payload)
				if err != nil {
					return err
				}
				pending = append(pending, h)
				if len(pending) >= window {
					if err := pending[0].Wait(benchWait); err != nil {
						return err
					}
					pending = pending[1:]
				}
			}
			for _, h := range pending {
				if err := h.Wait(benchWait); err != nil {
					return err
				}
			}
			return nil
		},
		loop(iters, func(int) error {
			_, err := b.RecvBlocking(0, 1, nil, benchWait)
			return err
		}))
	return perSecond(elapsed, float64(size)*float64(iters), err)
}

// MessageRatePWC measures small-message injection rate: `threads`
// goroutines on rank 0 issue 8-byte packed sends to rank 1, which
// drains. Returns messages per second.
func MessageRatePWC(phs []*core.Photon, threads, perThread int) (float64, error) {
	total := threads * perThread
	fns := make([]func() error, 0, threads+1)
	for t := 0; t < threads; t++ {
		payload := make([]byte, 8)
		base := uint64(t * perThread)
		fns = append(fns, loop(perThread, func(i int) error {
			return phs[0].SendBlocking(1, payload, 0, base+uint64(i))
		}))
	}
	fns = append(fns, func() error { return drainRemote(phs[1], total) })
	elapsed, err := timeRanks(fns...)
	return perSecond(elapsed, float64(total), err)
}

// MessageRateBaseline is the two-sided counterpart of MessageRatePWC.
func MessageRateBaseline(job *msg.Job, threads, perThread int) (float64, error) {
	a, b := job.Endpoint(0), job.Endpoint(1)
	total := threads * perThread
	fns := make([]func() error, 0, threads+1)
	for t := 0; t < threads; t++ {
		payload := make([]byte, 8)
		fns = append(fns, loop(perThread, func(i int) error {
			if _, err := a.Send(1, 1, payload); err != nil {
				return err
			}
			if i%64 == 1 {
				a.Progress()
			}
			return nil
		}))
	}
	fns = append(fns, loop(total, func(int) error {
		_, err := b.RecvBlocking(-1, 1, nil, benchWait)
		return err
	}))
	elapsed, err := timeRanks(fns...)
	return perSecond(elapsed, float64(total), err)
}

// NotifyLatencyPWC measures pure completion-notification latency: a
// zero-byte put whose only effect is the remote RID, round-tripped.
func NotifyLatencyPWC(phs []*core.Photon, descs [][]mem.RemoteBuffer, iters int) (time.Duration, error) {
	return PingPongPWC(phs, descs, 0, iters)
}

// AtomicLatency measures remote fetch-add round-trip latency.
func AtomicLatency(phs []*core.Photon, descs [][]mem.RemoteBuffer, iters int) (time.Duration, error) {
	elapsed, err := timeRanks(loop(iters, func(i int) error {
		if err := phs[0].FetchAdd(1, descs[0][1], 0, 1, uint64(i)); err != nil {
			return err
		}
		_, err := phs[0].WaitLocal(uint64(i), benchWait)
		return err
	}))
	return perOp(elapsed, iters, err)
}

// AtomicRate measures pipelined fetch-add throughput with a window.
func AtomicRate(phs []*core.Photon, descs [][]mem.RemoteBuffer, window, iters int) (float64, error) {
	ph := phs[0]
	w := core.NewWaiter(ph)
	defer w.Release()
	elapsed, err := timeRanks(func() error {
		return windowed(ph, window, iters, func(i int) error {
			return ph.Retry(w, nil, func() error { return ph.FetchAdd(1, descs[0][1], 0, 1, uint64(i)) })
		})
	})
	return perSecond(elapsed, float64(iters), err)
}

// AtomicUpdateBaseline measures the two-sided emulation of a remote
// fetch-add: request message, owner applies, ack with the old value
// (the GUPS server loop distilled to a single pair).
func AtomicUpdateBaseline(job *msg.Job, iters int) (time.Duration, error) {
	const reqTag, ackTag = 1 << 21, 1<<21 + 1
	word := make([]byte, 8)
	elapsed, err := requestReply(job, iters, fixedTag(reqTag), fixedTag(ackTag), word, word)
	return perOp(elapsed, iters, err)
}

// SaturatedSendThroughput measures back-to-back packed send throughput
// between ranks 0 and 1 (the quantity the ledger-size sweep plots).
func SaturatedSendThroughput(phs []*core.Photon, size, iters int) (float64, error) {
	payload := make([]byte, size)
	elapsed, err := timeRanks(
		loop(iters, func(i int) error { return phs[0].SendBlocking(1, payload, 0, uint64(i)) }),
		func() error { return drainRemote(phs[1], iters) })
	return perSecond(elapsed, float64(iters), err)
}

package bench

import (
	"errors"
	"fmt"
	gort "runtime"
	"sync"
	"time"

	"photon/internal/core"
	"photon/internal/mem"
	"photon/internal/msg"
)

const benchWait = 30 * time.Second

// drainLocal runs one progress round and pops every available local
// completion, decrementing *inflight; it idles if nothing moved.
func drainLocal(ph *core.Photon, inflight *int) error {
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
		*inflight--
		popped = true
	}
	if !popped {
		idleYield(ph)
	}
	return nil
}

// idleYield parks a dry progress loop on the engine's activity latch.
// Spinning would starve the runtime's network poller on few-core hosts.
func idleYield(ph *core.Photon) {
	select {
	case <-ph.BackendNotify():
	case <-time.After(time.Millisecond):
	}
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
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	wg.Add(2)
	go func() { // rank 0: initiator
		defer wg.Done()
		ph := phs[0]
		for i := 1; i <= iters; i++ {
			rid := ridBase + uint64(i)
			if err := ph.PutBlocking(1, payload0, descs[0][1], 0, 0, rid); err != nil {
				errs[0] = err
				return
			}
			if _, err := ph.WaitRemote(rid, benchWait); err != nil {
				errs[0] = fmt.Errorf("pong %d: %w", i, err)
				return
			}
		}
	}()
	go func() { // rank 1: responder
		defer wg.Done()
		ph := phs[1]
		for i := 1; i <= iters; i++ {
			rid := ridBase + uint64(i)
			if _, err := ph.WaitRemote(rid, benchWait); err != nil {
				errs[1] = fmt.Errorf("ping %d: %w", i, err)
				return
			}
			if err := ph.PutBlocking(0, payload1, descs[1][0], 0, 0, rid); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed / time.Duration(2*iters), nil
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
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		ph := phs[0]
		for i := 1; i <= iters; i++ {
			if err := ph.SendBlocking(1, payload, 0, ridBase+uint64(i)); err != nil {
				errs[0] = err
				return
			}
			if _, err := ph.WaitRemote(ridBase+uint64(i), benchWait); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		ph := phs[1]
		for i := 1; i <= iters; i++ {
			if _, err := ph.WaitRemote(ridBase+uint64(i), benchWait); err != nil {
				errs[1] = err
				return
			}
			if err := ph.SendBlocking(0, payload, 0, ridBase+uint64(i)); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed / time.Duration(2*iters), nil
}

// PingPongBaseline measures the two-sided baseline's one-way latency.
func PingPongBaseline(job *msg.Job, size, iters int) (time.Duration, error) {
	if _, err := pingPongBaselineRun(job, size, warmupIters(iters), 1<<42); err != nil {
		return 0, err
	}
	return pingPongBaselineRun(job, size, iters, 0)
}

func pingPongBaselineRun(job *msg.Job, size, iters int, tagBase uint64) (time.Duration, error) {
	payload := make([]byte, size)
	a, b := job.Endpoint(0), job.Endpoint(1)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := a.Send(1, tagBase+uint64(i), payload); err != nil {
				errs[0] = err
				return
			}
			if _, err := a.RecvBlocking(1, tagBase+uint64(i), nil, benchWait); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := b.RecvBlocking(0, tagBase+uint64(i), nil, benchWait); err != nil {
				errs[1] = err
				return
			}
			if _, err := b.Send(0, tagBase+uint64(i), payload); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed / time.Duration(2*iters), nil
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
	ph := phs[0]
	start := time.Now()
	for i := 1; i <= iters; i++ {
		if err := ph.GetWithCompletion(1, dst, descs[0][1], 0, uint64(i), 0); err != nil {
			return 0, err
		}
		if _, err := ph.WaitLocal(uint64(i), benchWait); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

// GetLatencyBaseline measures the two-sided pull: rank 0 sends a
// request, rank 1 replies with the data — the software path a runtime
// without RMA must use to read remote memory.
func GetLatencyBaseline(job *msg.Job, size, iters int) (time.Duration, error) {
	data := make([]byte, size)
	a, b := job.Endpoint(0), job.Endpoint(1)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	const reqTag, repTag = 1 << 20, 1<<20 + 1
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := a.Send(1, reqTag, nil); err != nil {
				errs[0] = err
				return
			}
			if _, err := a.RecvBlocking(1, repTag, nil, benchWait); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := b.RecvBlocking(0, reqTag, nil, benchWait); err != nil {
				errs[1] = err
				return
			}
			if _, err := b.Send(0, repTag, data); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed / time.Duration(iters), nil
}

// StreamBandwidthPWC measures put bandwidth: rank 0 streams `iters`
// puts of `size` bytes with `window` outstanding, rank 1 consumes
// completions. Returns bytes per second.
func StreamBandwidthPWC(phs []*core.Photon, descs [][]mem.RemoteBuffer, size, window, iters int) (float64, error) {
	payload := make([]byte, size)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	wg.Add(2)
	go func() { // initiator with window
		defer wg.Done()
		ph := phs[0]
		inflight := 0
		for i := 1; i <= iters; i++ {
			if err := ph.PutBlocking(1, payload, descs[0][1], 0, uint64(i), uint64(i)); err != nil {
				errs[0] = err
				return
			}
			inflight++
			for inflight >= window {
				if err := drainLocal(ph, &inflight); err != nil {
					errs[0] = err
					return
				}
			}
		}
		for inflight > 0 {
			if err := drainLocal(ph, &inflight); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() { // target drains remote completions
		defer wg.Done()
		ph := phs[1]
		got := 0
		deadline := time.Now().Add(benchWait)
		for got < iters {
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
			idleYield(ph)
			if time.Now().After(deadline) {
				errs[1] = fmt.Errorf("bandwidth drain stalled at %d/%d", got, iters)
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(size) * float64(iters) / elapsed.Seconds(), nil
}

// StreamBandwidthBaseline is the two-sided counterpart.
func StreamBandwidthBaseline(job *msg.Job, size, window, iters int) (float64, error) {
	payload := make([]byte, size)
	a, b := job.Endpoint(0), job.Endpoint(1)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		var pending []*msg.SendHandle
		for i := 0; i < iters; i++ {
			h, err := a.Send(1, 1, payload)
			if err != nil {
				errs[0] = err
				return
			}
			pending = append(pending, h)
			if len(pending) >= window {
				if err := pending[0].Wait(benchWait); err != nil {
					errs[0] = err
					return
				}
				pending = pending[1:]
			}
		}
		for _, h := range pending {
			if err := h.Wait(benchWait); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := b.RecvBlocking(0, 1, nil, benchWait); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(size) * float64(iters) / elapsed.Seconds(), nil
}

// MessageRatePWC measures small-message injection rate: `threads`
// goroutines on rank 0 issue 8-byte packed sends to rank 1, which
// drains. Returns messages per second.
func MessageRatePWC(phs []*core.Photon, threads, perThread int) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, threads+1)
	total := threads * perThread
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ph := phs[0]
			payload := make([]byte, 8)
			for i := 0; i < perThread; i++ {
				if err := ph.SendBlocking(1, payload, 0, uint64(t*perThread+i+1)); err != nil {
					errs[t] = err
					return
				}
			}
		}(t)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph := phs[1]
		got := 0
		deadline := time.Now().Add(benchWait)
		for got < total {
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
			gort.Gosched()
			if time.Now().After(deadline) {
				errs[threads] = fmt.Errorf("rate drain stalled at %d/%d", got, total)
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / elapsed.Seconds(), nil
}

// MessageRateBaseline is the two-sided counterpart of MessageRatePWC.
func MessageRateBaseline(job *msg.Job, threads, perThread int) (float64, error) {
	a, b := job.Endpoint(0), job.Endpoint(1)
	var wg sync.WaitGroup
	errs := make([]error, threads+1)
	total := threads * perThread
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			payload := make([]byte, 8)
			for i := 0; i < perThread; i++ {
				if _, err := a.Send(1, 1, payload); err != nil {
					errs[t] = err
					return
				}
				if i%64 == 0 {
					a.Progress()
				}
			}
		}(t)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := b.RecvBlocking(-1, 1, nil, benchWait); err != nil {
				errs[threads] = err
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / elapsed.Seconds(), nil
}

// NotifyLatencyPWC measures pure completion-notification latency: a
// zero-byte put whose only effect is the remote RID, round-tripped.
func NotifyLatencyPWC(phs []*core.Photon, descs [][]mem.RemoteBuffer, iters int) (time.Duration, error) {
	return PingPongPWC(phs, descs, 0, iters)
}

// AtomicLatency measures remote fetch-add round-trip latency.
func AtomicLatency(phs []*core.Photon, descs [][]mem.RemoteBuffer, iters int) (time.Duration, error) {
	ph := phs[0]
	start := time.Now()
	for i := 1; i <= iters; i++ {
		if err := ph.FetchAdd(1, descs[0][1], 0, 1, uint64(i)); err != nil {
			return 0, err
		}
		if _, err := ph.WaitLocal(uint64(i), benchWait); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

// AtomicRate measures pipelined fetch-add throughput with a window.
func AtomicRate(phs []*core.Photon, descs [][]mem.RemoteBuffer, window, iters int) (float64, error) {
	ph := phs[0]
	inflight := 0
	start := time.Now()
	for i := 1; i <= iters; i++ {
		for {
			err := ph.FetchAdd(1, descs[0][1], 0, 1, uint64(i))
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrWouldBlock) {
				return 0, err
			}
			ph.Progress()
		}
		inflight++
		for inflight >= window {
			if err := drainLocal(ph, &inflight); err != nil {
				return 0, err
			}
		}
	}
	for inflight > 0 {
		if err := drainLocal(ph, &inflight); err != nil {
			return 0, err
		}
	}
	return float64(iters) / time.Since(start).Seconds(), nil
}

// AtomicUpdateBaseline measures the two-sided emulation of a remote
// fetch-add: request message, owner applies, ack with the old value
// (the GUPS server loop distilled to a single pair).
func AtomicUpdateBaseline(job *msg.Job, iters int) (time.Duration, error) {
	a, b := job.Endpoint(0), job.Endpoint(1)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	const reqTag, ackTag = 1 << 21, 1<<21 + 1
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := a.Send(1, reqTag, make([]byte, 8)); err != nil {
				errs[0] = err
				return
			}
			if _, err := a.RecvBlocking(1, ackTag, nil, benchWait); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var counter uint64
		for i := 0; i < iters; i++ {
			if _, err := b.RecvBlocking(0, reqTag, nil, benchWait); err != nil {
				errs[1] = err
				return
			}
			counter++
			if _, err := b.Send(0, ackTag, make([]byte, 8)); err != nil {
				errs[1] = err
				return
			}
		}
		_ = counter
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return elapsed / time.Duration(iters), nil
}

// SaturatedSendThroughput measures back-to-back packed send throughput
// between ranks 0 and 1 (the quantity the ledger-size sweep plots).
func SaturatedSendThroughput(phs []*core.Photon, size, iters int) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	payload := make([]byte, size)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		ph := phs[0]
		for i := 1; i <= iters; i++ {
			if err := ph.SendBlocking(1, payload, 0, uint64(i)); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		ph := phs[1]
		got := 0
		deadline := time.Now().Add(benchWait)
		for got < iters {
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
			gort.Gosched()
			if time.Now().After(deadline) {
				errs[1] = fmt.Errorf("throughput drain stalled at %d/%d", got, iters)
				return
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(iters) / elapsed.Seconds(), nil
}

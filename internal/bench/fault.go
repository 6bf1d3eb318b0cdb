package bench

import (
	"errors"
	"fmt"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/nicsim"
)

// Measurement routines behind E13 (fault injection & recovery). Two
// regimes are compared:
//
//   - Faults handled BY the transport: the TCP backend's reconnect +
//     retransmit-window machinery recovers severed connections, so a
//     signaled op posted before the sever still completes exactly once.
//     Recovery time and goodput under periodic severs quantify that.
//   - Faults ABOVE the transport: a frame lost at the post boundary
//     (chaos drop) never enters the retransmit window; the receiver's
//     in-order ledger head wedges behind the hole, and only the
//     OpTimeout sweep keeps the initiator from hanging. Goodput
//     collapses — by design, the recoverability contract lives in the
//     transport, not the ledger.

// SeverRecoveryTime severs a live 2-rank TCP link `trials` times and
// measures, per trial, how long a send posted immediately after the
// sever takes to complete: detection (read error) + redial backoff +
// re-handshake + window retransmit. The heartbeat interval arms the
// failure detector exactly as a production config would; for a closed
// socket detection is the read error, so the axis mostly shows that
// recovery is backoff-bound, not heartbeat-bound.
func SeverRecoveryTime(hb time.Duration, trials int) (mean, max time.Duration, err error) {
	phs, bes, cleanup, err := NewTCPPhotonsFT(2, core.Config{HeartbeatInterval: hb},
		func(c *tcp.Config) { c.ReconnectBackoff = time.Millisecond })
	if err != nil {
		return 0, 0, err
	}
	defer cleanup()
	// Warm the link so trial 1 is not also measuring first-use costs.
	if err := phs[0].SendBlocking(1, []byte{0}, 0, 1); err != nil {
		return 0, 0, err
	}
	if _, err := phs[1].WaitRemote(1, 30*time.Second); err != nil {
		return 0, 0, err
	}
	w := core.NewWaiter(phs[0])
	defer w.Release()
	var total time.Duration
	for i := 0; i < trials; i++ {
		rid := uint64(100 + i)
		bes[0].Sever(1)
		start := time.Now()
		// Recovery is over when a message posted after the sever is
		// DELIVERED: detection + redial backoff + re-handshake + window
		// retransmit + the send itself.
		spec := core.WaitSpec{Deadline: start.Add(benchWait)}
		if err := phs[0].Retry(w, &spec, func() error { return phs[0].Send(1, []byte{byte(i)}, 0, rid) }); err != nil {
			return 0, 0, fmt.Errorf("trial %d: %w", i, err)
		}
		if _, err := phs[1].WaitRemote(rid, 30*time.Second); err != nil {
			return 0, 0, fmt.Errorf("trial %d: recovery never completed: %w", i, err)
		}
		el := time.Since(start)
		total += el
		if el > max {
			max = el
		}
	}
	return total / time.Duration(trials), max, nil
}

// GoodputUnderSevers runs the saturated 8-byte send stream while a
// saboteur severs the live connection every `every` (0 = no faults)
// and returns the achieved message rate. Blocking sends ride through
// each reconnect via the retransmit window, so the stream completes —
// the question is only how much rate the faults cost.
func GoodputUnderSevers(iters int, every time.Duration) (float64, error) {
	phs, bes, cleanup, err := NewTCPPhotonsFT(2,
		core.Config{LedgerSlots: 128},
		func(c *tcp.Config) { c.ReconnectBackoff = time.Millisecond })
	if err != nil {
		return 0, err
	}
	defer cleanup()
	stop := make(chan struct{})
	saboteurDone := make(chan struct{})
	if every > 0 {
		go func() {
			defer close(saboteurDone)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					bes[0].Sever(1)
				}
			}
		}()
	} else {
		close(saboteurDone)
	}
	rate, err := SaturatedSendThroughput(phs, 8, iters)
	close(stop)
	<-saboteurDone
	return rate, err
}

// LossyGoodput fires n sends over vsim with dropProb of posted frames
// silently lost above the transport and returns how many completed OK
// and the achieved OK-rate. With any sustained loss the receiver's
// in-order head wedges behind the first hole, credits stop returning,
// and goodput collapses — the measurement that motivates putting
// recovery in the transport.
func LossyGoodput(n int, dropProb float64) (ok int, rate float64, err error) {
	cl, err := vsim.NewCluster(2, fabric.Model{}, nicsim.Config{})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	cfg := core.Config{LedgerSlots: 64, OpTimeout: 150 * time.Millisecond}
	cb := chaos.Wrap(cl.Backend(0), chaos.Plan{Seed: 1, DropProb: dropProb})
	phs := make([]*core.Photon, 2)
	errs := make([]error, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		phs[1], errs[1] = core.Init(cl.Backend(1), cfg)
	}()
	phs[0], errs[0] = core.Init(cb, cfg)
	<-done
	for _, e := range errs {
		if e != nil {
			return 0, 0, e
		}
	}
	defer phs[0].Close()
	defer phs[1].Close()
	start := time.Now()
	posted := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		// Its own loop, not core's Retry: one goroutine drives both ranks.
		deadline := time.Now().Add(400 * time.Millisecond)
		for {
			perr := phs[0].Send(1, []byte{byte(i)}, uint64(i), uint64(i))
			if perr == nil {
				posted[i] = true
				break
			}
			if !errors.Is(perr, core.ErrWouldBlock) || time.Now().After(deadline) {
				break
			}
			phs[0].Progress()
			phs[1].Progress()
		}
		if !posted[i] {
			// Credits stopped returning: the receiver's head is wedged
			// behind a hole and no later send can post. Stop here —
			// spending the deadline on every remaining send would
			// measure this loop's patience, not the system.
			break
		}
	}
	for i := 1; i <= n; i++ {
		if !posted[i] {
			continue
		}
		c, werr := phs[0].WaitLocal(uint64(i), 2*time.Second)
		if werr != nil {
			continue // swept later than our patience; counts as lost
		}
		if c.Err == nil {
			ok++
		}
	}
	elapsed := time.Since(start)
	return ok, float64(ok) / elapsed.Seconds(), nil
}

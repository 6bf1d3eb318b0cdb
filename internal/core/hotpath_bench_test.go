package core_test

import (
	"errors"
	"fmt"
	"testing"

	"photon/internal/bench"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/trace"
)

// loopEnv builds a single-rank Photon over the zero-cost loopback
// backend plus one exchanged 1 MiB target buffer: the configuration
// that exposes the middleware's own hot-path overhead.
func loopEnv(tb testing.TB, cfg core.Config) (*core.Photon, mem.RemoteBuffer) {
	tb.Helper()
	p, err := core.Init(newLoopBackend(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	buf := make([]byte, 1<<20)
	rb, _, err := p.RegisterBuffer(buf)
	if err != nil {
		tb.Fatal(err)
	}
	descs, err := p.ExchangeBuffers(rb)
	if err != nil {
		tb.Fatal(err)
	}
	return p, descs[0]
}

// drainPair harvests exactly one local and one remote completion.
func drainPair(tb testing.TB, p *core.Photon) {
	gotL, gotR := false, false
	for !gotL || !gotR {
		c, ok := p.Probe(core.ProbeAny)
		if !ok {
			continue
		}
		if c.Err != nil {
			tb.Fatal(c.Err)
		}
		if c.Local {
			gotL = true
		} else {
			gotR = true
		}
	}
}

// BenchmarkPutEager measures the eager (packed) put-with-completion
// fast path over the zero-cost loopback backend: pure middleware
// software overhead, the quantity the zero-allocation work targets.
func BenchmarkPutEager(b *testing.B) {
	p, dst := loopEnv(b, core.Config{})
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := p.PutWithCompletion(0, payload, dst, 0, 1, 2)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				b.Fatal(err)
			}
			p.Progress()
		}
		drainPair(b, p)
	}
}

// BenchmarkPutEagerObserved is BenchmarkPutEager with the full
// observability plane on — enabled trace ring, metrics registry, no
// sampling — so the delta against BenchmarkPutEager is the per-op
// instrumentation cost at its worst case.
func BenchmarkPutEagerObserved(b *testing.B) {
	ring := trace.NewRing(4096)
	ring.Enable(true)
	p, dst := loopEnv(b, core.Config{Trace: ring, Metrics: true})
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := p.PutWithCompletion(0, payload, dst, 0, 1, 2)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				b.Fatal(err)
			}
			p.Progress()
		}
		drainPair(b, p)
	}
}

// BenchmarkSendEager measures the packed send fast path (payload
// folded into one ledger entry) over the loopback backend.
func BenchmarkSendEager(b *testing.B) {
	p, _ := loopEnv(b, core.Config{})
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := p.Send(0, payload, 1, 2)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				b.Fatal(err)
			}
			p.Progress()
		}
		drainPair(b, p)
	}
}

// BenchmarkFetchAdd measures the remote fetch-add fast path over the
// loopback backend.
func BenchmarkFetchAdd(b *testing.B) {
	p, dst := loopEnv(b, core.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := p.FetchAdd(0, dst, 0, 1, 7)
			if err == nil {
				break
			}
			if err != core.ErrWouldBlock {
				b.Fatal(err)
			}
			p.Progress()
		}
		for {
			if c, ok := p.Probe(core.ProbeLocal); ok {
				if c.Err != nil {
					b.Fatal(c.Err)
				}
				break
			}
		}
	}
}

// BenchmarkPutEagerVsim measures the same eager put end to end over
// the simulated-verbs transport (2 ranks, zero-delay fabric): ns/op
// includes the simulated NIC, so only the delta between runs matters.
// Rank 0 parks in WaitLocal and the consumer in WaitRemote, so
// whatever delivery the poster's goroutine does not do inline gets the
// processors instead of two Probe spinners.
func BenchmarkPutEagerVsim(b *testing.B) {
	env, err := bench.NewPhotonOnly(2, fabric.Model{}, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	_, descs, _, err := env.SharedBuffers(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	dst := descs[0][1] // rank 1's buffer as seen by rank 0

	consumed := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := env.Phs[1].WaitRemote(2, waitT); err != nil {
				consumed <- err
				return
			}
		}
		consumed <- nil
	}()

	p0 := env.Phs[0]
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p0.PutBlocking(1, payload, dst, 0, 1, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := p0.WaitLocal(1, waitT); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-consumed; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWaitAllDeepQueue measures one WaitAll over 64 remote RIDs
// (64 eager puts to self, then the wait) with a backlog of unrelated
// remote completions queued ahead of them that nobody takes. The
// queued=0 case is the same round with an empty backlog, so the
// difference is what matching by RID pays per queued completion.
func BenchmarkWaitAllDeepQueue(b *testing.B) {
	for _, depth := range []int{0, 1024} {
		b.Run(fmt.Sprintf("queued=%d", depth), func(b *testing.B) {
			p, dst := loopEnv(b, core.Config{})
			payload := make([]byte, 8)
			put := func(remoteRID uint64) {
				for {
					err := p.PutWithCompletion(0, payload, dst, 0, 0, remoteRID)
					if err == nil {
						return
					}
					if !errors.Is(err, core.ErrWouldBlock) {
						b.Fatal(err)
					}
					p.Progress()
				}
			}
			for i := 0; i < depth; i++ {
				put(1<<40 + uint64(i))
			}
			for p.PendingRemote() < depth {
				p.Progress()
			}
			const width = 64
			rids := make([]uint64, width)
			for i := range rids {
				rids[i] = uint64(i + 1)
			}
			out := make([]core.Completion, width)
			spec := &core.WaitSpec{}
			w := core.NewWaiter(p)
			defer w.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, r := range rids {
					put(r)
				}
				if err := p.WaitAll(w, rids, out, spec, false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := p.PendingRemote(); got != depth {
				b.Fatalf("%d remote completions queued after the waits, want %d", got, depth)
			}
		})
	}
}

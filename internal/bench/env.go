// Package bench reconstructs the paper figures and fault timings that
// the repository benchmark (benchmark/, the performance record) does
// not report: size sweeps, rate against injector threads and window,
// notification cost against posted-receive depth, the eager/rendezvous
// crossover, ledger sizing, and recovery timings. cmd/photon-bench
// prints them; the job-booting helpers here also serve the other
// commands, the examples and core's external tests.
//
// Each routine isolates one comparison the paper's evaluation makes:
// one-sided ledger completion versus two-sided matching at equal
// transport cost (both run over the identical simulated NIC), eager
// versus rendezvous, ledger sizing, injector scaling, and NIC atomics.
package bench

import (
	"fmt"
	"net"
	"sync"

	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/msg"
	"photon/internal/nicsim"
)

// Env bundles a Photon job and a two-sided baseline job built over
// identical transports (separate fabrics with the same model so the
// two stacks don't contend).
type Env struct {
	Cluster *vsim.Cluster
	Phs     []*core.Photon
	MsgJob  *msg.Job
}

// NewEnv builds an n-rank environment. fm applies to both stacks.
func NewEnv(n int, fm fabric.Model, coreCfg core.Config, msgCfg msg.Config) (*Env, error) {
	e, err := NewPhotonOnly(n, fm, coreCfg)
	if err != nil {
		return nil, err
	}
	e.MsgJob, err = msg.NewJob(n, fm, nicsim.Config{}, msgCfg)
	if err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// NewPhotonOnly builds just the Photon side (for experiments without a
// baseline axis).
func NewPhotonOnly(n int, fm fabric.Model, coreCfg core.Config) (*Env, error) {
	cl, err := vsim.NewCluster(n, fm, nicsim.Config{})
	if err != nil {
		return nil, err
	}
	phs := make([]*core.Photon, n)
	err = firstErr(eachRank(n, func(r int) (err error) {
		phs[r], err = core.Init(cl.Backend(r), coreCfg)
		return err
	}))
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &Env{Cluster: cl, Phs: phs}, nil
}

// eachRank runs fn for every rank on its own goroutine — job boot,
// buffer exchange and collectives all block on their peers — and
// returns the per-rank errors.
func eachRank(n int, fn func(r int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	return errs
}

func firstErr(errs []error) error {
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Close releases both stacks.
func (e *Env) Close() {
	if e.Phs != nil {
		for _, p := range e.Phs {
			p.Close()
		}
	}
	if e.Cluster != nil {
		e.Cluster.Close()
	}
	if e.MsgJob != nil {
		e.MsgJob.Close()
	}
}

// SharedBuffers registers one buffer of size bytes at every rank and
// exchanges descriptors, returning per-rank views: bufs[r] is rank r's
// local buffer, descs[r][p] is rank p's buffer as seen by rank r.
func (e *Env) SharedBuffers(size int) (bufs [][]byte, descs [][]mem.RemoteBuffer, lks []sync.Locker, err error) {
	return ShareBuffers(e.Phs, size)
}

// ShareBuffers is SharedBuffers for a bare Photon set (any backend —
// the TCP experiments have no Env).
func ShareBuffers(phs []*core.Photon, size int) (bufs [][]byte, descs [][]mem.RemoteBuffer, lks []sync.Locker, err error) {
	n := len(phs)
	bufs = make([][]byte, n)
	descs = make([][]mem.RemoteBuffer, n)
	lks = make([]sync.Locker, n)
	err = firstErr(eachRank(n, func(r int) error {
		bufs[r] = make([]byte, size)
		rb, lk, err := phs[r].RegisterBuffer(bufs[r])
		if err != nil {
			return err
		}
		lks[r] = lk
		descs[r], err = phs[r].ExchangeBuffers(rb)
		return err
	}))
	if err != nil {
		return nil, nil, nil, err
	}
	return bufs, descs, lks, nil
}

// NewTCPPhotons boots an n-rank Photon job over the loopback TCP
// backend.
func NewTCPPhotons(n int, cfg core.Config) ([]*core.Photon, func(), error) {
	phs, _, cleanup, err := NewTCPPhotonsFT(n, cfg, nil)
	return phs, cleanup, err
}

// NewTCPPhotonsFT is NewTCPPhotons with the transport's recovery knobs
// exposed: tune edits each rank's tcp.Config before dialing, and the
// returned backends let fault experiments sever live connections.
func NewTCPPhotonsFT(n int, cfg core.Config, tune func(*tcp.Config)) ([]*core.Photon, []*tcp.Backend, func(), error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	bes := make([]*tcp.Backend, n)
	phs := make([]*core.Photon, n)
	err := firstErr(eachRank(n, func(r int) (err error) {
		tc := tcp.Config{Rank: r, Addrs: addrs, Listener: lns[r]}
		if tune != nil {
			tune(&tc)
		}
		if bes[r], err = tcp.New(tc); err != nil {
			return err
		}
		phs[r], err = core.Init(bes[r], cfg)
		return err
	}))
	cleanup := func() {
		for _, p := range phs {
			if p != nil {
				p.Close()
			}
		}
	}
	if err != nil {
		cleanup()
		return nil, nil, nil, fmt.Errorf("tcp: %w", err)
	}
	return phs, bes, cleanup, nil
}

// photon-info prints the library's build configuration: effective
// defaults, ledger geometry, backends, and experiment inventory — the
// photon_info of this repository.
package main

import (
	"errors"
	"flag"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"photon/internal/backend/chaos"
	"photon/internal/backend/tcp"
	"photon/internal/backend/vsim"
	"photon/internal/bench"
	"photon/internal/collectives"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/metrics"
	"photon/internal/nicsim"
	"photon/internal/stats"
	"photon/internal/trace"
)

func main() {
	slots := flag.Int("slots", 0, "ledger slots (0 = default)")
	eager := flag.Int("eager", 0, "eager entry size (0 = default)")
	metricsFlag := flag.Bool("metrics", false, "record op latencies during the warm-up and print the snapshot")
	clusterFlag := flag.Bool("cluster", false, "boot a 4-rank job, scrape every rank's registry (in-process + HTTP), print the cluster aggregation")
	flightFlag := flag.Bool("flight", false, "boot a 2-rank TCP job, kill one peer, print the fault flight recorder's JSON dump")
	flag.Parse()

	if *clusterFlag {
		fmt.Print(clusterInfo())
		return
	}
	if *flightFlag {
		fmt.Print(flightInfo())
		return
	}

	cfg := core.Config{LedgerSlots: *slots, EagerEntrySize: *eager, Metrics: *metricsFlag}
	env, err := bench.NewPhotonOnly(2, fabric.Model{}, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer env.Close()
	eff := env.Phs[0].Config()

	fmt.Println("photon-go: Remote Memory Access middleware (reconstruction)")
	fmt.Printf("  go:                 %s on %s/%s (%d CPUs)\n",
		goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, goruntime.NumCPU())
	fmt.Println("  backends:           vsim (simulated IB verbs), tcp (loopback sockets), shm (intra-host SPSC rings)")
	fmt.Printf("  engine shards:      %d (peers partitioned rank %% shards)\n", eff.EngineShards)
	fmt.Printf("  ledger slots:       %d per ledger (pwc, eager, sys)\n", eff.LedgerSlots)
	fmt.Printf("  eager entry:        %d B\n", eff.EagerEntrySize)
	fmt.Printf("  eager threshold:    %d B (packed payload cap; larger sends rendezvous)\n", env.Phs[0].EagerThreshold())
	fmt.Printf("  rendezvous slab:    %d B\n", eff.RdzvSlabSize)
	fmt.Printf("  credit batch:       %d entries\n", eff.CreditBatch)
	fmt.Println("  operations:         put/get with completion, packed send, rendezvous send,")
	fmt.Println("                      fetch-add, compare-swap, probe/test/wait, collectives")
	fmt.Println("  experiments:        ", bench.Experiments())

	fmt.Println()
	fmt.Println("hot-path counters (after a short warm-up exchange):")
	fmt.Print(indent(hotPathCounters(env), "  "))

	if *metricsFlag {
		fmt.Println()
		fmt.Println("metrics snapshot (rank 0):")
		fmt.Print(indent(env.Phs[0].Metrics().Render(), "  "))
		fmt.Println()
		fmt.Println("tcp data path (2-rank loopback job, pipelined puts):")
		fmt.Print(indent(tcpDataPath(), "  "))
		fmt.Println()
		fmt.Println("sharded engine + shm transport (2-rank shm job, 2 shards):")
		fmt.Print(indent(shmDataPath(), "  "))
		fmt.Println()
		fmt.Println("collectives engine (4-rank vsim job: barriers, allreduces, alltoall):")
		fmt.Print(indent(collEngine(), "  "))
		fmt.Println()
		fmt.Println("failure-aware collectives (4-rank chaos job: rank 3 killed mid-barrier, survivors shrink):")
		fmt.Print(indent(collAbortDemo(), "  "))
	}
}

// collEngine boots a 4-rank vsim job, drives each collective a few
// times, and reports what the schedule engine exports through
// Photon.Metrics: per-kind coll_* call counters and algorithm-selection
// gauges plus the whole-collective photon_coll_latency_ns histograms.
func collEngine() string {
	env, err := bench.NewPhotonOnly(4, fabric.Model{}, core.Config{Metrics: true})
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	defer env.Close()
	comms := make([]*collectives.Comm, 4)
	var cwg sync.WaitGroup
	for r := range comms {
		cwg.Add(1)
		go func(r int) {
			defer cwg.Done()
			comms[r] = collectives.New(env.Phs[r], 5*time.Second)
		}(r)
	}
	cwg.Wait()
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := comms[r]
			vec := []float64{float64(r), 1, 2, 3}
			for i := 0; i < 8; i++ {
				if err := c.Barrier(); err != nil {
					errs[r] = err
					return
				}
				if err := c.AllreduceInPlace(vec, collectives.OpSum); err != nil {
					errs[r] = err
					return
				}
			}
			blobs := make([][]byte, 4)
			for i := range blobs {
				blobs[i] = []byte{byte(r), byte(i)}
			}
			_, errs[r] = c.Alltoall(blobs)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Sprintln("error:", err)
		}
	}
	snap := env.Phs[0].Metrics()
	var b strings.Builder
	for _, h := range snap.Hists {
		if strings.HasPrefix(h.Name, "coll/") {
			fmt.Fprintf(&b, "%-14s n=%-4d p50=%.1fus p99=%.1fus\n",
				h.Name, h.Hist.N(),
				float64(h.Hist.Quantile(0.5))/1e3, float64(h.Hist.Quantile(0.99))/1e3)
		}
	}
	cs := stats.NewCounterSet()
	for _, n := range snap.Gauges.Names() {
		if strings.HasPrefix(n, "coll_") {
			v, _ := snap.Gauges.Get(n)
			cs.Set(n, v)
		}
	}
	b.WriteString(cs.Render())
	return b.String()
}

// collAbortDemo boots a 4-rank chaos-wrapped vsim job with the failure
// detector and flight recorder armed, kills rank 3 mid-barrier, and
// reports what the failure plane exports: the coll_aborts /
// coll_revokes_sent / coll_shrinks gauges, the coll/abort
// detection->abort latency histogram, and the reason-tagged flight
// capture — then shrinks the survivors and runs one allreduce on the
// 3-rank successor.
func collAbortDemo() string {
	const n, victim = 4, 3
	cl, err := vsim.NewCluster(n, fabric.Model{}, nicsim.Config{})
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	defer cl.Close()
	group := chaos.NewGroup(time.Millisecond)
	bes := make([]*chaos.Backend, n)
	phs := make([]*core.Photon, n)
	comms := make([]*collectives.Comm, n)
	cfg := core.Config{
		Metrics:           true,
		FlightRecords:     16,
		HeartbeatInterval: 2 * time.Millisecond,
		SuspectAfter:      8 * time.Millisecond,
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		bes[r] = chaos.WrapGroup(cl.Backend(r), chaos.Plan{Seed: int64(r)}, group)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if phs[r], errs[r] = core.Init(bes[r], cfg); errs[r] == nil {
				comms[r] = collectives.NewWithConfig(phs[r], collectives.Config{Timeout: 10 * time.Second})
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Sprintln("error:", err)
		}
	}
	defer func() {
		for _, ph := range phs {
			ph.Close()
		}
	}()

	run := func(fn func(r int) error) []error {
		out := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) { defer wg.Done(); out[r] = fn(r) }(r)
		}
		wg.Wait()
		return out
	}
	if es := run(func(r int) error { return comms[r].Barrier() }); es[0] != nil {
		return fmt.Sprintln("error:", es[0])
	}
	bes[victim].CrashAfterOps(1)
	aborts := run(func(r int) error { return comms[r].Barrier() })

	var b strings.Builder
	fmt.Fprintf(&b, "rank 0 abort: %v\n", aborts[0])
	ncs := make([]*collectives.Comm, victim)
	serrs := run(func(r int) error {
		if r == victim {
			return nil
		}
		nc, err := comms[r].Shrink()
		ncs[r] = nc
		return err
	})
	for r := 0; r < victim; r++ {
		if serrs[r] != nil {
			return fmt.Sprintln("shrink error:", serrs[r])
		}
	}
	vres := run(func(r int) error {
		if r == victim {
			return nil
		}
		vec := []float64{float64(r + 1)}
		return ncs[r].AllreduceInPlace(vec, collectives.OpSum)
	})
	for r := 0; r < victim; r++ {
		if vres[r] != nil {
			return fmt.Sprintln("shrunken allreduce error:", vres[r])
		}
	}
	fmt.Fprintf(&b, "shrunken comm: size=%d epoch=%d, allreduce ok\n", ncs[0].Size(), ncs[0].Epoch())

	snap := phs[0].Metrics()
	for _, h := range snap.Hists {
		if h.Name == "coll/abort" {
			fmt.Fprintf(&b, "%-14s n=%-4d p50=%.1fus p99=%.1fus\n",
				h.Name, h.Hist.N(),
				float64(h.Hist.Quantile(0.5))/1e3, float64(h.Hist.Quantile(0.99))/1e3)
		}
	}
	cs := stats.NewCounterSet()
	for _, nm := range snap.Gauges.Names() {
		if strings.HasPrefix(nm, "coll_aborts") || strings.HasPrefix(nm, "coll_revokes") || strings.HasPrefix(nm, "coll_shrinks") {
			v, _ := snap.Gauges.Get(nm)
			cs.Set(nm, v)
		}
	}
	b.WriteString(cs.Render())
	if fr := phs[0].FlightRecorder(); fr != nil {
		for _, rec := range fr.Records() {
			if rec.Reason != "" {
				fmt.Fprintf(&b, "flight capture: peer=%d reason=%q\n", rec.Peer, rec.Reason)
				break
			}
		}
	}
	return b.String()
}

// clusterInfo boots a 4-rank simulated job, drives a put ring so every
// rank's registry has observations, then scrapes all four registries
// through a Collector — ranks 0 and 1 through the in-process path,
// ranks 2 and 3 over their debug HTTP /snapshot endpoints — and prints
// the cluster-wide aggregation (exact merged histograms, summed
// gauges, slowest-peer ranking).
func clusterInfo() string {
	env, err := bench.NewPhotonOnly(4, fabric.Model{}, core.Config{Metrics: true})
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	defer env.Close()
	phs := env.Phs
	_, descs, _, err := env.SharedBuffers(1 << 12)
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	// Put ring: every rank both initiates and receives, so all four
	// registries carry initiator- and remote-stage distributions.
	payload := []byte("cluster-info")
	for i := 0; i < 64; i++ {
		for src := range phs {
			dst := (src + 1) % len(phs)
			rid := uint64(1 + i)
			if err := phs[src].PutBlocking(dst, payload, descs[src][dst], 0, rid, rid); err != nil {
				return fmt.Sprintln("error:", err)
			}
			if _, err := phs[src].WaitLocal(rid, 5*time.Second); err != nil {
				return fmt.Sprintln("error:", err)
			}
			if _, err := phs[dst].WaitRemote(rid, 5*time.Second); err != nil {
				return fmt.Sprintln("error:", err)
			}
		}
	}

	sources := make([]metrics.PeerSource, len(phs))
	for r := range phs {
		r := r
		if r < 2 {
			sources[r] = metrics.PeerSource{Rank: r, Snap: func() *metrics.Snapshot { return phs[r].Metrics() }}
			continue
		}
		srv, err := metrics.Serve("127.0.0.1:0", func() *metrics.Snapshot { return phs[r].Metrics() }, nil)
		if err != nil {
			return fmt.Sprintln("error:", err)
		}
		defer srv.Close()
		sources[r] = metrics.PeerSource{Rank: r, URL: "http://" + srv.Addr()}
	}
	cs := metrics.NewCollector(sources).Collect()

	var b strings.Builder
	b.WriteString("cluster metrics plane (4-rank vsim job; ranks 0-1 scraped in-process, 2-3 over HTTP /snapshot):\n")
	b.WriteString(indent(cs.Render(), "  "))
	return b.String()
}

// flightInfo boots a 2-rank TCP job with the flight recorder armed,
// streams a little traffic, kills rank 1 outright, waits for rank 0's
// fault plane to latch the peer down, and prints the black box.
func flightInfo() string {
	ring := trace.NewRing(1024)
	ring.Enable(true)
	phs, _, cleanup, err := bench.NewTCPPhotonsFT(2, core.Config{
		OpTimeout:         300 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		Metrics:           true,
		Trace:             ring,
		FlightRecords:     8,
	}, func(c *tcp.Config) {
		c.ReconnectWindow = 300 * time.Millisecond
		c.ReconnectBackoff = 10 * time.Millisecond
	})
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	defer cleanup()
	_, descs, _, err := bench.ShareBuffers(phs, 1<<12)
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	for i := uint64(1); i <= 16; i++ {
		if err := phs[0].PutBlocking(1, []byte{byte(i)}, descs[0][1], 0, i, i); err != nil {
			return fmt.Sprintln("error:", err)
		}
		if _, err := phs[0].WaitLocal(i, 5*time.Second); err != nil {
			return fmt.Sprintln("error:", err)
		}
	}
	phs[1].Close() // peer dies for good
	deadline := time.Now().Add(10 * time.Second)
	for phs[0].PeerHealthState(1) != core.PeerDown {
		if time.Now().After(deadline) {
			return fmt.Sprintln("error: peer never latched down")
		}
		phs[0].Progress()
		time.Sleep(time.Millisecond)
	}
	var b strings.Builder
	b.WriteString("fault flight recorder (2-rank TCP job, rank 1 killed; rank 0's black box):\n")
	if err := phs[0].FlightDump(&b); err != nil {
		return fmt.Sprintln("error:", err)
	}
	return b.String()
}

// shmDataPath boots a shared-memory job with a sharded engine, streams
// pipelined puts, and reports the per-shard engine gauges plus the
// shm_* ring counters.
func shmDataPath() string {
	phs, cleanup, err := bench.NewShmPhotons(2, core.Config{Metrics: true, EngineShards: 2})
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	defer cleanup()
	_, descs, _, err := bench.ShareBuffers(phs, 1<<20)
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	if _, err := bench.StreamBandwidthPWC(phs, descs, 4096, 16, 512); err != nil {
		return fmt.Sprintln("error:", err)
	}
	cs := stats.NewCounterSet()
	// Engine-shard gauges from the initiator rank; shm ring counters
	// summed across both ranks (frames out at one side arrive at the
	// other).
	snap0 := phs[0].Metrics()
	for _, n := range snap0.Gauges.Names() {
		if len(n) >= 12 && n[:12] == "engine_shard" {
			v, _ := snap0.Gauges.Get(n)
			cs.Set(n, v)
		}
	}
	for _, ph := range phs {
		snap := ph.Metrics()
		for _, n := range snap.Gauges.Names() {
			if len(n) >= 4 && n[:4] == "shm_" {
				v, _ := snap.Gauges.Get(n)
				prev, _ := cs.Get(n)
				cs.Set(n, prev+v)
			}
		}
	}
	return cs.Render()
}

// tcpDataPath boots a loopback TCP job, streams pipelined puts, and
// reports the transport's coalescing counters: the tcp_* gauges the
// backend exports through Photon.Metrics plus the derived ratios
// (frames per Write syscall, bytes per syscall, ack piggyback share).
func tcpDataPath() string {
	phs, bes, cleanup, err := bench.NewTCPPhotonsFT(2, core.Config{
		Metrics:           true,
		HeartbeatInterval: 20 * time.Millisecond,
	}, nil)
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	defer cleanup()
	_, descs, _, err := bench.ShareBuffers(phs, 1<<20)
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	if _, err := bench.StreamBandwidthPWC(phs, descs, 4096, 16, 512); err != nil {
		return fmt.Sprintln("error:", err)
	}
	// Sum both ranks: the ack-emission counters live at whichever side
	// sends the acks (the put target), the flush counters at the
	// initiator.
	cs := stats.NewCounterSet()
	get := func(name string) int64 {
		var total int64
		for _, ph := range phs {
			v, _ := ph.Metrics().Gauges.Get(name)
			total += v
		}
		return total
	}
	for _, n := range phs[0].Metrics().Gauges.Names() {
		if len(n) >= 4 && n[:4] == "tcp_" {
			cs.Set(n, get(n))
		}
	}
	out := cs.Render()
	flushes := get("tcp_flushes")
	frames := get("tcp_frames_out")
	bytesOut := get("tcp_bytes_out")
	piggy := get("tcp_acks_piggybacked")
	solo := get("tcp_acks_standalone")
	if flushes > 0 {
		out += fmt.Sprintf("frames/flush        %.2f\n", float64(frames)/float64(flushes))
		out += fmt.Sprintf("bytes/write-syscall %.0f\n", float64(bytesOut)/float64(flushes))
	}
	if piggy+solo > 0 {
		out += fmt.Sprintf("ack piggyback ratio %.2f\n", float64(piggy)/float64(piggy+solo))
	}
	out += healthTable(phs[0], bes[0])
	return out
}

// healthTable renders rank 0's per-peer liveness view: the engine's
// health state, when it last changed, and the transport's recovery
// counters for that connection.
func healthTable(p *core.Photon, be *tcp.Backend) string {
	t := stats.NewTable("peer health (rank 0 view)",
		"peer", "state", "last transition", "reconnects", "retx frames")
	for peer := 0; peer < p.Size(); peer++ {
		if peer == p.Rank() {
			continue
		}
		last := "-"
		if ns := p.PeerLastTransitionNS(peer); ns != 0 {
			last = time.Unix(0, ns).Format("15:04:05.000")
		}
		ps := be.PeerStats(peer)
		t.Row(peer, p.PeerHealthState(peer).String(), last, ps.Reconnects, ps.RetransmitFrames)
	}
	return t.Render()
}

// hotPathCounters drives a few eager puts through rank 0 and reports
// the engine's pool/ring/batch counters.
func hotPathCounters(env *bench.Env) string {
	_, descs, _, err := env.SharedBuffers(1 << 12)
	if err != nil {
		return fmt.Sprintln("error:", err)
	}
	p0, p1 := env.Phs[0], env.Phs[1]
	payload := []byte("photon-info-warmup")
	for i := 0; i < 32; i++ {
		for {
			err := p0.PutWithCompletion(1, payload, descs[0][1], 0, 1, 2)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrWouldBlock) {
				return fmt.Sprintln("error:", err)
			}
			p0.Progress()
		}
		for {
			if _, ok := p0.Probe(core.ProbeLocal); ok {
				break
			}
		}
		for {
			if _, ok := p1.Probe(core.ProbeRemote); ok {
				break
			}
		}
	}
	// Large puts take the direct-write path, whose write+notify pair
	// goes out as one doorbell batch on batch-capable backends.
	big := make([]byte, 2048)
	for i := 0; i < 8; i++ {
		for {
			err := p0.PutWithCompletion(1, big, descs[0][1], 0, 1, 2)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrWouldBlock) {
				return fmt.Sprintln("error:", err)
			}
			p0.Progress()
		}
		for {
			if _, ok := p0.Probe(core.ProbeLocal); ok {
				break
			}
		}
		for {
			if _, ok := p1.Probe(core.ProbeRemote); ok {
				break
			}
		}
	}
	st := p0.Stats()
	cs := stats.NewCounterSet()
	cs.Set("entry_pool_hits", st.EntryPoolHits)
	cs.Set("entry_pool_misses", st.EntryPoolMisses)
	cs.Set("ring_overflows", st.RingOverflows)
	cs.Set("batch_posts", st.BatchPosts)
	cs.Set("batched_ops", st.BatchedOps)
	cs.Set("deferred_writes", st.DeferredWrites)
	return cs.Render()
}

func indent(s, pad string) string {
	var out string
	for _, line := range splitLines(s) {
		out += pad + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}

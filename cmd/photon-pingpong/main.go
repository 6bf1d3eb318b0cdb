// photon-pingpong is a standalone latency tool, the osu_latency of this
// repository: it boots a 2-rank Photon job over the chosen backend and
// prints a size/latency table for the selected operation.
//
// Usage:
//
//	photon-pingpong                         # PWC over simulated verbs
//	photon-pingpong -op send -backend tcp   # message path over loopback TCP
//	photon-pingpong -min 8 -max 65536 -iters 1000
//	photon-pingpong -latency 2us            # model a 2us wire
//	photon-pingpong -trace out.json -metrics  # op-lifecycle trace + latency snapshot
//	photon-pingpong -debug 127.0.0.1:9090   # live /metrics, /vars, /trace endpoint
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"photon/internal/bench"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/metrics"
	"photon/internal/trace"
)

func main() {
	var (
		op          = flag.String("op", "pwc", "operation: pwc | send | get")
		backend     = flag.String("backend", "vsim", "backend: vsim | tcp")
		minSize     = flag.Int("min", 8, "smallest message size (power of two)")
		maxSize     = flag.Int("max", 64*1024, "largest message size (power of two)")
		iters       = flag.Int("iters", 500, "iterations per size")
		latency     = flag.Duration("latency", 0, "modeled one-way wire latency (vsim only)")
		traceOut    = flag.String("trace", "", "write op-lifecycle events to this file as Chrome trace-event JSON")
		sampleShift = flag.Int("trace-sample", 0, "observe 1 op in 2^shift (0 = every op)")
		metricsFlag = flag.Bool("metrics", false, "print both ranks' merged latency/gauge snapshot after the run (histograms merged, gauges summed across ranks)")
		debugAddr   = flag.String("debug", "", "serve /metrics, /vars and /trace on this address during the run (metrics merged as for -metrics)")
	)
	flag.Parse()

	// Both ranks run in-process, so they can share one trace ring
	// (events carry the rank); each keeps its own metrics registry, and
	// -metrics/-debug report the two merged: histograms bucket-exact,
	// gauges summed, so a high-water gauge reads as the two ranks' sum.
	cfg := core.Config{
		TraceSampleShift: *sampleShift,
		Metrics:          *metricsFlag || *debugAddr != "",
	}
	var ring *trace.Ring
	if *traceOut != "" || *debugAddr != "" {
		ring = trace.NewRing(1 << 16)
		ring.Enable(true)
		cfg.Trace = ring
	}

	var phs []*core.Photon
	switch *backend {
	case "vsim":
		env, err := bench.NewPhotonOnly(2, fabric.Model{Latency: *latency}, cfg)
		if err != nil {
			fatal(err)
		}
		defer env.Close()
		phs = env.Phs
	case "tcp":
		tphs, cleanup, err := bench.NewTCPPhotons(2, cfg)
		if err != nil {
			fatal(err)
		}
		defer cleanup()
		phs = tphs
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
	}

	sources := make([]metrics.PeerSource, len(phs))
	for r, ph := range phs {
		sources[r] = metrics.PeerSource{Rank: r, Snap: ph.Metrics}
	}
	col := metrics.NewCollector(sources)
	merged := func() *metrics.Snapshot { return col.Collect().Merged }

	if *debugAddr != "" {
		srv, err := metrics.Serve(*debugAddr, merged,
			map[string]*trace.Ring{"pingpong": ring})
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "photon-pingpong: debug endpoint on http://%s\n", srv.Addr())
	}

	_, descs, _, err := bench.ShareBuffers(phs, *maxSize)
	if err != nil {
		fatal(err)
	}

	table := bench.NewTable(fmt.Sprintf("photon-pingpong op=%s backend=%s", *op, *backend),
		"size", "latency-us")
	for size := *minSize; size <= *maxSize; size *= 2 {
		var lat time.Duration
		var err error
		switch *op {
		case "pwc":
			lat, err = bench.PingPongPWC(phs, descs, size, *iters)
		case "send":
			lat, err = bench.PingPongSend(phs, size, *iters)
		case "get":
			lat, err = bench.GetLatencyGWC(phs, descs, size, *iters)
		default:
			err = fmt.Errorf("unknown op %q", *op)
		}
		if err != nil {
			fatal(err)
		}
		table.Row(size, float64(lat.Nanoseconds())/1e3)
	}
	fmt.Print(table.Render())

	if *metricsFlag {
		fmt.Println()
		fmt.Print(merged().Render())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		// One dump per rank; both ranks share this process's clock.
		dumps := make([]trace.PeerDump, len(phs))
		for r := range dumps {
			dumps[r].Rank = r
		}
		for _, e := range ring.Snapshot() {
			dumps[e.Rank].Events = append(dumps[e.Rank].Events, e)
		}
		if err := trace.WriteChromeJSONMerged(f, dumps); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "photon-pingpong: wrote %d trace events to %s\n", ring.Len(), *traceOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "photon-pingpong:", err)
	os.Exit(1)
}

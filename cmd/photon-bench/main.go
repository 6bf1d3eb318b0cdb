// photon-bench regenerates the reconstructed evaluation: every table
// and figure in EXPERIMENTS.md corresponds to one experiment ID here.
//
// Usage:
//
//	photon-bench                 # run everything at full scale
//	photon-bench -exp E1,E5      # selected experiments
//	photon-bench -scale 0.1      # quick pass (10% of the iterations)
//	photon-bench -list           # print the experiment index
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"photon/internal/bench"
	"photon/internal/core"
	"photon/internal/metrics"
	"photon/internal/trace"
)

var descriptions = map[string]string{
	"E1":  "Fig 1: put latency vs message size (PWC / send / two-sided)",
	"E2":  "Fig 2: get latency vs message size (GWC / two-sided pull)",
	"E3":  "Fig 3: streaming bandwidth vs message size",
	"E4":  "Fig 4: 8-byte message rate vs injector threads",
	"E5":  "Fig 5: completion-notification overhead (ledger vs matching)",
	"E6":  "Table 1: eager/rendezvous crossover sweep",
	"E7":  "Table 2: ledger-size sensitivity + credit-policy ablation",
	"E8":  "Fig 6: GUPS scaling (atomics vs request/ack)",
	"E9":  "Fig 7: stencil halo-exchange time per iteration",
	"E10": "Fig 8: BFS TEPS on the parcel runtime",
	"E11": "Table 3 + TCP data-path profile: backend latency, put sweep, pipelined rate/bandwidth",
	"E12": "Fig 9: remote atomics latency and pipelined rate",
	"E13": "fault injection & recovery: link severs, frame loss, heartbeat sweep",
	"E14": "engine-shard scaling at a hot sink + shm backend latency/rate",
	"E15": "cluster observability: tracing overhead, merged cross-peer traces, collector scrape cost",
	"E16": "scalable N-peer collectives: latency vs ranks, goodput per algorithm",
	"E17": "failure-aware collectives: kill->abort latency, shrink vs restart goodput",
}

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scaleFlag   = flag.Float64("scale", 1.0, "iteration scale factor (0 < s <= 1; smaller = faster)")
		listFlag    = flag.Bool("list", false, "list experiments and exit")
		metricsFlag = flag.Bool("metrics", false, "record op latencies across experiments and print a snapshot at the end")
		debugAddr   = flag.String("debug", "", "serve live /metrics, /vars and /trace on this address while experiments run")
		shardsFlag  = flag.Int("shards", 0, "force this engine shard count on every Photon (0 = per-experiment default); E14 sweeps only this count")
		backendFlag = flag.String("backend", "", "restrict backend-sweep experiments to one transport: vsim, tcp, or shm")
	)
	flag.Parse()
	bench.ShardsOverride = *shardsFlag
	bench.BackendOverride = *backendFlag

	// Every Photon the harness boots records into one shared registry
	// and ring (bench.Obs overlay), so the endpoint and the final
	// snapshot show whichever experiments ran. Sampled 1/64 to keep the
	// instrumentation out of the measured numbers.
	var reg *metrics.Registry
	if *metricsFlag || *debugAddr != "" {
		reg = metrics.NewRegistry()
		ring := trace.NewRing(1 << 16)
		ring.Enable(true)
		bench.Obs = core.Config{MetricsTo: reg, Trace: ring, TraceSampleShift: 6}
		if *debugAddr != "" {
			srv, err := metrics.Serve(*debugAddr,
				func() *metrics.Snapshot { return reg.Snapshot() },
				map[string]*trace.Ring{"bench": ring})
			if err != nil {
				fmt.Fprintln(os.Stderr, "photon-bench:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "photon-bench: debug endpoint on http://%s\n", srv.Addr())
		}
	}

	if *listFlag {
		for _, id := range bench.Experiments() {
			fmt.Printf("%-4s %s\n", id, descriptions[id])
		}
		return
	}

	var ids []string
	if *expFlag == "all" {
		ids = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	failed := 0
	for _, id := range ids {
		start := time.Now()
		rep, err := bench.Run(id, *scaleFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %v\n", id, err)
			failed++
			continue
		}
		fmt.Print(rep.Render())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *metricsFlag {
		fmt.Println("# sampled op latencies across all experiments (1/64 ops)")
		fmt.Print(reg.Snapshot().Render())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

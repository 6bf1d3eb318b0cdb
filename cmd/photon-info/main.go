// photon-info prints what this build of the library is: effective
// defaults, ledger geometry, backends, and experiment inventory — the
// photon_info of this repository. With -metrics, -cluster or -flight it
// boots a small job, drives a put ring through it, and prints that
// job's metrics snapshot, cluster aggregation, or fault flight record.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"photon/internal/backend/tcp"
	"photon/internal/bench"
	"photon/internal/core"
	"photon/internal/fabric"
	"photon/internal/mem"
	"photon/internal/metrics"
	"photon/internal/trace"
)

func main() {
	slots := flag.Int("slots", 0, "ledger slots (0 = default)")
	eager := flag.Int("eager", 0, "eager entry size (0 = default)")
	metricsFlag := flag.Bool("metrics", false, "also drive a 2-rank put ring and print rank 0's metrics snapshot")
	clusterFlag := flag.Bool("cluster", false, "boot a 4-rank job, scrape every rank's registry (in-process + HTTP), print the cluster aggregation")
	flightFlag := flag.Bool("flight", false, "boot a 2-rank TCP job, kill one peer, print the fault flight recorder's JSON dump")
	flag.Parse()

	var err error
	switch {
	case *clusterFlag:
		err = clusterInfo(os.Stdout)
	case *flightFlag:
		err = flightInfo(os.Stdout)
	default:
		err = info(os.Stdout, core.Config{LedgerSlots: *slots, EagerEntrySize: *eager, Metrics: *metricsFlag})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "photon-info:", err)
		os.Exit(1)
	}
}

// info boots a 2-rank simulated job to learn the effective
// configuration and prints it; with cfg.Metrics it also drives a put
// ring and prints rank 0's snapshot.
func info(w io.Writer, cfg core.Config) error {
	env, err := bench.NewPhotonOnly(2, fabric.Model{}, cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	eff := env.Phs[0].Config()

	fmt.Fprintln(w, "photon-go: Remote Memory Access middleware (reconstruction)")
	fmt.Fprintf(w, "  go:                 %s on %s/%s (%d CPUs)\n",
		goruntime.Version(), goruntime.GOOS, goruntime.GOARCH, goruntime.NumCPU())
	fmt.Fprintln(w, "  backends:           vsim (simulated IB verbs), tcp (loopback sockets), shm (intra-host SPSC rings)")
	fmt.Fprintf(w, "  ledger slots:       %d per ledger (pwc, eager, sys)\n", eff.LedgerSlots)
	fmt.Fprintf(w, "  eager entry:        %d B\n", eff.EagerEntrySize)
	fmt.Fprintf(w, "  eager threshold:    %d B (packed payload cap; larger sends rendezvous)\n", env.Phs[0].EagerThreshold())
	fmt.Fprintf(w, "  rendezvous slab:    %d B\n", eff.RdzvSlabSize)
	fmt.Fprintf(w, "  credit batch:       %d entries\n", eff.CreditBatch)
	fmt.Fprintln(w, "  operations:         put/get with completion, packed send, rendezvous send,")
	fmt.Fprintln(w, "                      fetch-add, compare-swap, probe/test/wait, collectives")
	fmt.Fprintln(w, "  experiments:        ", bench.Experiments())
	if !cfg.Metrics {
		return nil
	}

	_, descs, _, err := env.SharedBuffers(1 << 12)
	if err != nil {
		return err
	}
	if err := putRing(env.Phs, descs, 32); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "metrics snapshot (rank 0, after a 32-round put ring):")
	fmt.Fprint(w, indent(env.Phs[0].Metrics().Render()))
	return nil
}

// putRing runs rounds of puts, each rank to its right-hand neighbour,
// waiting out both completions: every rank both initiates and
// receives, so every registry carries initiator- and remote-stage
// distributions.
func putRing(phs []*core.Photon, descs [][]mem.RemoteBuffer, rounds int) error {
	const wait = 5 * time.Second
	payload := []byte("photon-info")
	for rid := uint64(1); rid <= uint64(rounds); rid++ {
		for src := range phs {
			dst := (src + 1) % len(phs)
			if err := phs[src].PutBlocking(dst, payload, descs[src][dst], 0, rid, rid); err != nil {
				return err
			}
			if _, err := phs[src].WaitLocal(rid, wait); err != nil {
				return err
			}
			if _, err := phs[dst].WaitRemote(rid, wait); err != nil {
				return err
			}
		}
	}
	return nil
}

// clusterInfo boots a 4-rank simulated job, drives a put ring, then
// scrapes all four registries through a Collector — ranks 0 and 1
// through the in-process path, ranks 2 and 3 over their debug HTTP
// /snapshot endpoints — and prints the cluster-wide aggregation (exact
// merged histograms, summed gauges, slowest-peer ranking).
func clusterInfo(w io.Writer) error {
	env, err := bench.NewPhotonOnly(4, fabric.Model{}, core.Config{Metrics: true})
	if err != nil {
		return err
	}
	defer env.Close()
	phs := env.Phs
	_, descs, _, err := env.SharedBuffers(1 << 12)
	if err != nil {
		return err
	}
	if err := putRing(phs, descs, 64); err != nil {
		return err
	}

	sources := make([]metrics.PeerSource, len(phs))
	for r := range phs {
		snap := phs[r].Metrics
		if r < 2 {
			sources[r] = metrics.PeerSource{Rank: r, Snap: snap}
			continue
		}
		srv, err := metrics.Serve("127.0.0.1:0", snap, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		sources[r] = metrics.PeerSource{Rank: r, URL: "http://" + srv.Addr()}
	}
	fmt.Fprintln(w, "cluster metrics plane (4-rank vsim job; ranks 0-1 scraped in-process, 2-3 over HTTP /snapshot):")
	fmt.Fprint(w, indent(metrics.NewCollector(sources).Collect().Render()))
	return nil
}

// flightInfo boots a 2-rank TCP job with the flight recorder armed,
// streams a little traffic, kills rank 1 outright, waits for rank 0's
// fault plane to latch the peer down, and prints the black box.
func flightInfo(w io.Writer) error {
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
		return err
	}
	defer cleanup()
	_, descs, _, err := bench.ShareBuffers(phs, 1<<12)
	if err != nil {
		return err
	}
	if err := putRing(phs, descs, 8); err != nil {
		return err
	}
	phs[1].Close() // peer dies for good
	deadline := time.Now().Add(10 * time.Second)
	for phs[0].PeerHealthState(1) != core.PeerDown {
		if time.Now().After(deadline) {
			return errors.New("peer never latched down")
		}
		phs[0].Progress()
		time.Sleep(time.Millisecond)
	}
	fmt.Fprintln(w, "fault flight recorder (2-rank TCP job, rank 1 killed; rank 0's black box):")
	return phs[0].FlightDump(w)
}

// indent prefixes every line of s with two spaces.
func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}

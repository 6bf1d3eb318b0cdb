// photon-bench regenerates the reconstructed paper figures and fault
// timings that the repository benchmark (`go run ./benchmark`, the
// performance record) does not report: every section of EXPERIMENTS.md
// that carries an experiment ID corresponds to one ID here.
//
// Usage:
//
//	photon-bench                 # run everything at full scale
//	photon-bench -exp E1,E5      # selected experiments
//	photon-bench -scale 0.1      # quick pass (10% of the iterations)
//	photon-bench -list           # print the experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"photon/internal/bench"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scaleFlag = flag.Float64("scale", 1.0, "iteration scale factor (0 < s <= 1; smaller = faster)")
		listFlag  = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	if *listFlag {
		list(os.Stdout)
		return
	}

	ids := bench.Experiments()
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}

	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
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
	if failed > 0 {
		os.Exit(1)
	}
}

// list prints the registry's experiment IDs, one per line: the same
// list photon-info prints. Each experiment's title heads its report.
func list(w io.Writer) {
	for _, id := range bench.Experiments() {
		fmt.Fprintln(w, id)
	}
}

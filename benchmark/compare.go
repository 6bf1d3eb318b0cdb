package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges b against base a for one metric by their reported
// values. Beyond the bound it is "worse" or "better", within it "same".
// When either side's Spread is wider than the bound its value is not
// established well enough to support a claim in either direction, and
// the pair reads "unresolved" — unless every repetition of one side
// beats every repetition of the other.
func verdict(m *e2eMetric, a, b Summary) string {
	if a.Value == 0 {
		if b.Value == 0 {
			return verdictSame
		}
		return verdictUnresolved
	}
	// worse(x, y): x is worse than y.
	worse := func(x, y float64) bool {
		if m.better == lower {
			return x > y
		}
		return x < y
	}
	// rel > 0: b is worse by that share of a's value.
	rel := (b.Value - a.Value) / a.Value
	if m.better == higher {
		rel = -rel
	}
	if a.Spread > m.bound || b.Spread > m.bound {
		if allBeat(a.Reps, b.Reps, worse) {
			return verdictBetter
		}
		if allBeat(b.Reps, a.Reps, worse) {
			return verdictWorse
		}
		return verdictUnresolved
	}
	switch {
	case rel > m.bound:
		return verdictWorse
	case rel < -m.bound:
		return verdictBetter
	}
	return verdictSame
}

// allBeat reports whether every value of xs is worse than every value of
// ys, i.e. ys wins every pairing.
func allBeat(xs, ys []float64, worse func(x, y float64) bool) bool {
	if len(xs) == 0 || len(ys) == 0 {
		return false
	}
	for _, x := range xs {
		for _, y := range ys {
			if !worse(x, y) {
				return false
			}
		}
	}
	return true
}

func loadResults(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// compareFiles prints one block per workload with a row per end-to-end
// metric — both values with the median and spread of their repetitions,
// the ratio with its base, the verdict — and reports whether anything
// got worse or fail_ratio rose.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b, pathA, pathB), nil
}

func compareSets(w io.Writer, a, b *ResultSet, nameA, nameB string) bool {
	fmt.Fprintf(w, "base A = %s (commit %s, seed %d)\nnew  B = %s (commit %s, seed %d)\n", nameA, a.Host.Commit, a.Seed, nameB, b.Host.Commit, b.Seed)
	if a.Host.CPU != b.Host.CPU || a.Host.NProc != b.Host.NProc || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: hosts or budgets differ (%s/%d procs/%d s vs %s/%d procs/%d s); timings are not comparable\n",
			a.Host.CPU, a.Host.NProc, a.Seconds, b.Host.CPU, b.Host.NProc, b.Seconds)
	}
	bad := false
	tally := map[string]int{}
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s\n  %-20s %12s (%12s %6s) %12s (%12s %6s) %9s  %s\n", wl.name,
			"metric", "A value", "median", "spread", "B value", "median", "spread", "B/A", "verdict")
		for i := range endToEnd {
			m := &endToEnd[i]
			sa, sb := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			v := verdict(m, sa, sb)
			tally[v]++
			bad = bad || v == verdictWorse
			fmt.Fprintf(w, "  %-20s %12.4f (%12.4f %5.1f%%) %12.4f (%12.4f %5.1f%%) %8.4fx  %s (bound %.0f%% of A, %s is better)\n",
				m.name, sa.Value, sa.Median, 100*sa.Spread, sb.Value, sb.Median, 100*sb.Spread, div(sb.Value, sa.Value), v, m.bound*100, m.better)
		}
		fa, fb := ra.EndToEnd[failRatio].Value, rb.EndToEnd[failRatio].Value
		v := verdictSame
		if fb > fa {
			v, bad = verdictWorse, true
		} else if fb < fa {
			v = verdictBetter
		}
		tally[v]++
		fmt.Fprintf(w, "  %-20s %12.6f %22s %12.6f %22s %9s  %s (any rise is worse)\n", failRatio, fa, "", fb, "", "", v)
	}
	fmt.Fprintf(w, "\n%d same, %d better, %d worse, %d unresolved\n", tally[verdictSame], tally[verdictBetter], tally[verdictWorse], tally[verdictUnresolved])
	return bad
}

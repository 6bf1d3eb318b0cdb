// Command benchmark is the repository's benchmark: seven named
// workloads, nine end-to-end metrics, a per-layer ladder, boundary
// counts and a traced run, all measured from outside the product by
// timing calls into its exported functions and reading its exported
// counters. See README.md in this directory.
//
//	go run ./benchmark -workload put8_pingpong          one workload
//	go run ./benchmark -workload all -out run.json      every workload, the ladder and a traced repetition each
//	go run ./benchmark -ladder                          the ladder alone
//	go run ./benchmark -workload rma_mix_shm -trace 1   per-layer metrics of one workload
//	go run ./benchmark -compare a.json b.json           verdict per (workload, metric)
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with -trace 0, every per-layer metric with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	gort "runtime"
	"sort"
	"strings"
	"time"
)

// reps is the repetitions of one workload invocation. Each boots a
// fresh job in a fresh process. Ten short ones rather than five long
// ones: see Summary for why the best repetitions are reported, which
// need chances to occur.
const reps = 10

// refSeconds is the --seconds the frozen rates were sized with: at this
// budget a run times rate*refSeconds units and takes about that long on
// the reference host.
const refSeconds = 10

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ladder   bool
	smoke    bool
	out      string
	traceDir string
}

// Host is the fingerprint recorded with every result set.
type Host struct {
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// WorkloadResult is one workload's invocation.
type WorkloadResult struct {
	Name        string             `json:"name"`
	Unit        string             `json:"unit"`
	Ranks       int                `json:"ranks"`
	UnitsPerRep []int              `json:"units_per_rep"`
	Attempted   int64              `json:"attempted"`
	Failed      int64              `json:"failed"`
	TailPercent float64            `json:"tail_percent"`
	EndToEnd    map[string]Summary `json:"end_to_end"`
	Counts      map[string]Summary `json:"counts"`
	Mismatch    []string           `json:"count_mismatch,omitempty"`
	// Traced repetition (absent unless -trace 1 or -workload all).
	Spans         map[string]float64 `json:"spans,omitempty"`
	TraceOverhead float64            `json:"trace_overhead_ratio,omitempty"`
	TraceFile     string             `json:"trace_file,omitempty"`
}

// ResultSet is everything one invocation measured (-out writes it).
type ResultSet struct {
	Host           Host                       `json:"host"`
	Seed           int64                      `json:"seed"`
	Seconds        int                        `json:"seconds"`
	Reps           int                        `json:"reps"`
	Workloads      map[string]*WorkloadResult `json:"workloads"`
	Ladder         map[string]Summary         `json:"ladder,omitempty"`
	LadderMismatch []string                   `json:"ladder_mismatch,omitempty"`
}

func main() {
	var o options
	var trace int
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "drives every random choice (op mix, sizes, BFS graph and roots)")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "measurement budget per workload; op counts are rate x seconds, frozen in workloads.go")
	flag.IntVar(&trace, "trace", 0, "1: also run the ladder and one traced repetition, and print the per-layer metrics")
	flag.BoolVar(&o.ladder, "ladder", false, "run the ladder alone")
	flag.BoolVar(&o.smoke, "smoke", false, "every workload and rung at 1/200 of its op count with small application inputs")
	flag.StringVar(&o.out, "out", "", "write the full result set as JSON to this file")
	flag.StringVar(&o.traceDir, "tracedir", "benchmark/out", "directory for trace-<workload>.json")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare a.json b.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the spec in this package defines it")
	describe := flag.Bool("describe", false, "print the workload and metric tables (definitions, bounds, which metric each layer metric should move)")
	// The parent runs every repetition as "benchmark -rep ..." (see
	// repetition); these three flags are that hand-off.
	isRep := flag.Bool("rep", false, "internal: run one repetition and print it as JSON")
	units := flag.Int("units", 0, "internal: units of the repetition")
	nreps := flag.Int("nreps", 1, "internal: repetitions sharing the run's sample budget")
	flag.Parse()
	if *spec {
		printSpec(os.Stdout)
		return
	}
	if *describe {
		printDescription(os.Stdout)
		return
	}
	o.trace = trace != 0

	// Two procs is nproc on the reference host; pinning it keeps the
	// numbers comparable on a larger one.
	gort.GOMAXPROCS(2)

	if *isRep {
		w := workloadByName(o.workload)
		if w == nil || *units < 1 {
			fatal(fmt.Errorf("-rep needs a workload and -units"))
		}
		res, err := runOne(o, w, *units, *nreps, o.trace)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if o.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	rs, err := run(o)
	if err != nil {
		fatal(err)
	}
	if o.out != "" {
		data, err := json.MarshalIndent(rs, "", " ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	printReport(os.Stdout, rs)
	single := len(rs.Workloads) == 1 && !o.ladder && !o.smoke
	if single {
		for _, res := range rs.Workloads {
			printContractLine(os.Stdout, rs, res, o.trace)
		}
		return
	}
	// The multi-workload commands are the ones people and CI read: there a
	// failed verification or a ladder that contradicts itself is an error.
	bad := len(rs.LadderMismatch) > 0
	for _, res := range rs.Workloads {
		bad = bad || res.Failed > 0
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// run executes what the options select and returns the result set.
func run(o options) (*ResultSet, error) {
	rs := &ResultSet{Host: hostFingerprint(), Seed: o.seed, Seconds: o.seconds, Reps: reps, Workloads: map[string]*WorkloadResult{}}
	scale := float64(o.seconds) / refSeconds
	if o.smoke {
		scale = 1.0 / 200
		rs.Reps = 1
	}

	var selected []*workload
	switch {
	case o.ladder:
	case o.workload == "all":
		selected = workloads
	default:
		w := workloadByName(o.workload)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{w}
	}
	traced := o.trace || len(selected) > 1
	for _, w := range selected {
		st := &wlState{w: w, units: w.unitsPerRep(scale, o.smoke), nreps: rs.Reps}
		for r := 0; r < rs.Reps; r++ {
			if err := st.repeat(o, scale); err != nil {
				return nil, err
			}
		}
		if traced {
			var err error
			if st.traced, err = repetition(o, w, max(1, st.units/4), 1, true); err != nil {
				return nil, err
			}
		}
		rs.Workloads[w.name] = st.result()
	}

	if o.ladder || traced {
		// A per-layer run of one workload runs the ladder at half length:
		// the driver's traced runs share one time budget with the rest.
		if o.trace && len(selected) == 1 && !o.smoke {
			scale /= 2
		}
		lad, err := runLadder(scale, o.smoke)
		if err != nil {
			return nil, err
		}
		rs.Ladder = lad
		rs.LadderMismatch = ladderChecks(lad, rs.Workloads)
	}
	return rs, nil
}

// repResult is what one repetition hands back: the measurement and, for
// a traced repetition, the span metrics and the trace file.
type repResult struct {
	Rep       *rep               `json:"rep"`
	Spans     map[string]float64 `json:"spans,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// repetition runs one repetition of w in a process of its own. A fresh
// process per repetition is what makes repetitions comparable: the
// product leaves process-wide state behind (bfs_parcels parks a 30 s
// timer per future wait, which cost the tenth in-process repetition
// twice the CPU per edge of the first and 15 MiB of set-up memory each),
// and heap size and fragmentation carry over too. The smoke pass stays
// in-process: it checks that everything runs, not how fast.
func repetition(o options, w *workload, units, nreps int, traced bool) (*repResult, error) {
	if o.smoke {
		return runOne(o, w.smokeSized(), units, nreps, traced)
	}
	args := []string{"-rep", "-workload", w.name, "-seed", fmt.Sprint(o.seed), "-units", fmt.Sprint(units),
		"-nreps", fmt.Sprint(nreps), "-tracedir", o.traceDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: repetition: %w", w.name, err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s: repetition result: %w", w.name, err)
	}
	if res.Rep == nil {
		return nil, fmt.Errorf("%s: repetition wrote no result", w.name)
	}
	return &res, nil
}

// runOne is the body of a repetition: generate the inputs, then boot,
// warm up, time and verify.
func runOne(o options, w *workload, units, nreps int, traced bool) (*repResult, error) {
	in := w.gen(o.seed, o.smoke) // inputs exist before the set-up clock starts
	var ts *tracerSet
	if traced {
		ts = newTracerSet(w.ranks)
	}
	r, err := runRep(w, in, units, ts, nreps)
	if err != nil {
		return nil, err
	}
	res := &repResult{Rep: r}
	if traced {
		res.Spans = ts.spanMetrics()
		if res.TraceFile, err = ts.write(o.traceDir, w.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// unitsPerRep is the frozen op count of one repetition.
func (w *workload) unitsPerRep(scale float64, smoke bool) int {
	n := float64(w.rate) * refSeconds * scale
	if !smoke {
		n /= reps
	}
	if n < 1 {
		return 1
	}
	return int(n)
}

// wlState accumulates one workload's repetitions.
type wlState struct {
	w      *workload
	units  int
	nreps  int
	done   []*rep
	nunits []int
	traced *repResult
}

func (st *wlState) repeat(o options, scale float64) error {
	r, err := repetition(o, st.w, st.units, st.nreps, false)
	if err != nil {
		return err
	}
	st.done = append(st.done, r.Rep)
	st.nunits = append(st.nunits, st.units)
	// The rates were frozen on the reference host. On a much slower one
	// the remaining repetitions shrink, so that a run still ends near
	// its --seconds budget instead of overrunning the driver's limit.
	share := time.Duration(float64(refSeconds) * scale / reps * float64(time.Second))
	if !o.smoke && r.Rep.Wall > 2*share {
		st.units = max(1, int(float64(st.units)*float64(share)/float64(r.Rep.Wall)))
	}
	return nil
}

// smokeSized returns the workload with a warm-up short enough for tests.
func (w *workload) smokeSized() *workload {
	c := *w
	c.warm = max(1, w.warm/50)
	return &c
}

// result reduces the repetitions to medians with quartiles.
func (st *wlState) result() *WorkloadResult {
	w := st.w
	res := &WorkloadResult{Name: w.name, Unit: w.unit, Ranks: w.ranks, UnitsPerRep: st.nunits,
		EndToEnd: map[string]Summary{}, Counts: map[string]Summary{}}
	total := 0
	for _, r := range st.done {
		total += r.NSample
		res.Attempted += r.Ops
		res.Failed += r.Failed
	}
	res.TailPercent = tailPercent(total)
	col := map[string][]float64{}
	counts := map[string][]float64{}
	for _, r := range st.done {
		ops, secs := float64(r.Ops), r.Elapsed.Seconds()
		col["setup_s"] = append(col["setup_s"], r.SetupS)
		col["setup_live_MiB"] = append(col["setup_live_MiB"], r.LiveMiB)
		col["lat_p50_us"] = append(col["lat_p50_us"], r.P50us)
		col["lat_tail_us"] = append(col["lat_tail_us"], r.Tailus)
		col["ops_per_s"] = append(col["ops_per_s"], div(float64(r.Ops-r.Failed), secs))
		col["goodput_MiB_s"] = append(col["goodput_MiB_s"], div(float64(r.Bytes)/(1<<20), secs))
		col["cpu_us_per_op"] = append(col["cpu_us_per_op"], div(float64(r.CPU.Microseconds()), ops))
		col["allocs_per_op_plus1"] = append(col["allocs_per_op_plus1"], 1+div(float64(r.Mallocs), ops))
		col[failRatio] = append(col[failRatio], div(float64(r.Failed), ops))
		for k, v := range r.Counts {
			counts[k] = append(counts[k], v)
		}
	}
	perRep := 0
	if len(st.done) > 0 {
		perRep = st.done[0].NSample
	}
	for _, m := range endToEnd {
		n := 0
		if strings.HasPrefix(m.name, "lat_") {
			n = perRep
		}
		if m.median {
			res.EndToEnd[m.name] = summarizeMedian(col[m.name], m.unit, n)
		} else {
			res.EndToEnd[m.name] = summarizeBest(col[m.name], m.unit, m.better, n)
		}
	}
	res.EndToEnd[failRatio] = summarizeMedian(col[failRatio], "ratio", 0)
	for k, v := range counts {
		res.Counts[k] = summarizeMedian(v, layerByName(k).unit, 0)
	}
	res.Mismatch = checkCounts(w.name, res.Counts, st.done)
	if st.traced != nil {
		res.Spans = st.traced.Spans
		res.TraceOverhead = div(st.traced.Rep.P50us, res.EndToEnd["lat_p50_us"].Value)
		res.TraceFile = st.traced.TraceFile
	}
	return res
}

// checkCounts compares the protocol-fixed primitive counts against what
// the run counted. A mismatch is reported, never fatal: it explains a
// number, it does not gate one.
func checkCounts(name string, counts map[string]Summary, done []*rep) []string {
	med := map[string]float64{}
	for k, s := range counts {
		med[k] = s.Median
	}
	var bad []string
	check := func(metric, why string, want float64) {
		got, ok := med[metric]
		if !ok {
			return
		}
		if diff := got - want; diff > 1e-3 || diff < -1e-3 {
			bad = append(bad, fmt.Sprintf("count_mismatch %s %s = %.4f, expected %.4f (%s)", name, metric, got, want, why))
		}
	}
	for _, e := range expectedCounts {
		if e.workload == name {
			check(e.metric, e.why, e.want(med))
		}
	}
	// Counts a workload derives from its own generated inputs.
	if len(done) > 0 {
		keys := make([]string, 0, len(done[0].Expect))
		for k := range done[0].Expect {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			check(k, "from the generated op sequence", done[0].Expect[k])
		}
	}
	return bad
}

func hostFingerprint() Host {
	h := Host{GoVersion: gort.Version(), NProc: gort.NumCPU(), GOMAXPROCS: gort.GOMAXPROCS(0), Kernel: "unknown", CPU: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; the commit is then
	// whatever the caller recorded beside the result file.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// printSpec writes the driver's BENCHMARK.json from the tables in
// spec.go and workloads.go, so the two cannot drift apart.
func printSpec(f *os.File) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: refSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, m.better})
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, string(data))
}

// printDescription prints the tables BENCHMARK.json has no room for, as
// markdown: what each workload times, how each end-to-end metric is
// defined and bounded, and for every per-layer metric where it comes
// from and which end-to-end metric it should move.
func printDescription(f *os.File) {
	fmt.Fprintln(f, "| workload | ranks | unit | units per second of budget | warm-up units | why |\n|---|---|---|---|---|---|")
	for _, w := range workloads {
		fmt.Fprintf(f, "| `%s` | %d | %s | %d | %d | %s |\n", w.name, w.ranks, w.unit, w.rate, w.warm, w.why)
	}
	fmt.Fprintln(f, "\n| end-to-end metric | unit | better | bound | reported | definition |\n|---|---|---|---|---|---|")
	for _, m := range endToEnd {
		how := "mean of the 3 best repetitions"
		if m.median {
			how = "median of the repetitions"
		}
		fmt.Fprintf(f, "| `%s` | %s | %s | %.0f %% | %s | %s |\n", m.name, m.unit, m.better, 100*m.bound, how, m.def)
	}
	fmt.Fprintln(f, "\n| per-layer metric | unit | better | source | should move |\n|---|---|---|---|---|")
	for _, m := range perLayer {
		src := m.source
		if m.exact {
			src += " (exact)"
		}
		fmt.Fprintf(f, "| `%s` | %s | %s | %s | %s |\n", m.name, m.unit, m.better, src, m.moves)
	}
	fmt.Fprintln(f, "\n| workload | count | expected | because |\n|---|---|---|---|")
	for _, e := range expectedCounts {
		fmt.Fprintf(f, "| `%s` | `%s` | %s | %s |\n", e.workload, e.metric, e.formula, e.why)
	}
}

// printContractLine prints the driver's result object as the last line.
func printContractLine(f *os.File, rs *ResultSet, res *WorkloadResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if !traced {
		for _, m := range endToEnd {
			metrics[m.name] = value{res.EndToEnd[m.name].Value, m.unit}
		}
	} else {
		// Every per-layer metric, by name; a layer this workload does not
		// touch (tcp flushes on a vsim workload) reads 0.
		for _, m := range perLayer {
			v := 0.0
			switch m.source {
			case srcLadder:
				v = rs.Ladder[m.name].Value
			case srcCount:
				v = res.Counts[m.name].Value
			case srcSpan:
				v = res.Spans[m.name]
			}
			if m.name == "trace_overhead_ratio" {
				v = res.TraceOverhead
			}
			metrics[m.name] = value{v, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, string(line))
}

// printReport prints every metric by name with its unit and sample count.
func printReport(f *os.File, rs *ResultSet) {
	h := rs.Host
	fmt.Fprintf(f, "host: %s | %s | kernel %s | nproc %d | GOMAXPROCS %d | commit %s\n", h.CPU, h.GoVersion, h.Kernel, h.NProc, h.GOMAXPROCS, h.Commit)
	fmt.Fprintf(f, "seed %d | budget %d s per workload | %d repetitions; value = mean of the 3 best repetitions (set-up metrics, counts: median)\n", rs.Seed, rs.Seconds, rs.Reps)
	for _, w := range workloads {
		res, ok := rs.Workloads[w.name]
		if !ok {
			continue
		}
		fmt.Fprintf(f, "\n== %s (%d ranks; unit: %s; %v units per repetition; %d ops attempted, %d failed)\n",
			res.Name, res.Ranks, res.Unit, res.UnitsPerRep, res.Attempted, res.Failed)
		fmt.Fprintf(f, "  %-20s %14s %14s %14s %14s  %-6s %7s\n", "end-to-end", "value", "median", "q1", "q3", "unit", "spread")
		names := make([]string, 0, len(endToEnd)+1)
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
		for _, name := range append(names, failRatio) {
			s := res.EndToEnd[name]
			note := ""
			if s.Samples > 0 {
				note = fmt.Sprintf("  (%d samples per repetition", s.Samples)
				if name == "lat_tail_us" {
					note += fmt.Sprintf(", p%.4g", res.TailPercent)
				}
				note += ")"
			}
			fmt.Fprintf(f, "  %-20s %14.4f %14.4f %14.4f %14.4f  %-6s %6.1f%%%s\n", name, s.Value, s.Median, s.Q1, s.Q3, s.Unit, 100*s.Spread, note)
		}
		printSorted(f, "  boundary counts (per op over the timed phase)", res.Counts)
		for _, m := range res.Mismatch {
			fmt.Fprintln(f, "  "+m)
		}
		if res.Spans != nil {
			fmt.Fprintf(f, "  traced repetition (spans in %s)\n", res.TraceFile)
			keys := make([]string, 0, len(res.Spans))
			for k := range res.Spans {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(f, "    %-38s %12.4f us\n", k, res.Spans[k])
			}
			fmt.Fprintf(f, "    %-38s %12.4f ratio (traced p50 / untraced p50)\n", "trace_overhead_ratio", res.TraceOverhead)
		}
	}
	if rs.Ladder != nil {
		fmt.Fprintln(f)
		printSorted(f, "== ladder (mean of the 3 best of 8 interleaved passes; self = rung minus rung below, pass by pass)", rs.Ladder)
		for _, m := range rs.LadderMismatch {
			fmt.Fprintln(f, m)
		}
	}
}

func printSorted(f *os.File, title string, m map[string]Summary) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintln(f, title)
	// Spec order keeps layers together, bottom to top.
	for _, lm := range perLayer {
		s, ok := m[lm.name]
		if !ok {
			continue
		}
		note := ""
		if s.Samples > 0 {
			note = fmt.Sprintf("  (%d samples)", s.Samples)
		}
		fmt.Fprintf(f, "    %-38s %12.4f %s%s\n", lm.name, s.Value, s.Unit, note)
	}
}

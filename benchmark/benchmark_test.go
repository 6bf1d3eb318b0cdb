package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{50, 50},   // ceil(0.5*10) = 5th
		{90, 90},   // 9th
		{99, 100},  // ceil(9.9) = 10th
		{100, 100}, // last
		{1, 10},    // ceil(0.1) = 1st
		{25, 30},   // ceil(2.5) = 3rd
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(v, n=4): the driver computes spreads with it.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 4.5}, // order does not matter
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25}, // extrapolates past the extremes, as Python does
		{[]float64{3.1, 3.2, 3.1, 3.4, 3.3, 3.2, 3.0, 3.5, 3.3, 3.2}, 3.1, 3.325},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one value = %v, %v; want 7, 7", q1, q3)
	}
}

func TestTailPercent(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1_000_000, 99}, {1000, 99}, {999, 100 * 989.0 / 999}, {100, 90}, {30, 100 * 20.0 / 30}, {19, 50}, {0, 50},
	} {
		if got := tailPercent(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummaries(t *testing.T) {
	// Median 2.5, quartiles 1.25 and 3.75: (3.75-1.25)/2.5/sqrt(4) = 0.5.
	s := summarizeMedian([]float64{4, 1, 3, 2}, "s", 0)
	if s.Value != 2.5 || s.Median != 2.5 || s.Q1 != 1.25 || s.Q3 != 3.75 || s.Spread != 0.5 {
		t.Errorf("median summary = %+v", s)
	}
	// The three best of a lower-is-better metric are the three smallest:
	// (2 + 2.5 + 3) / 3; the spread is third best over best, (3-2)/2.
	s = summarizeBest([]float64{5, 2, 4, 2.5, 3}, "us", lower, 0)
	if s.Value != 2.5 || s.Median != 3 || s.Q1 != 2.25 || s.Spread != 0.5 {
		t.Errorf("best-of lower summary = %+v", s)
	}
	// Higher is better: (5 + 4 + 3) / 3 and (5-3)/5.
	s = summarizeBest([]float64{5, 2, 4, 2.5, 3}, "1/s", higher, 0)
	if s.Value != 4 || s.Spread != 0.4 {
		t.Errorf("best-of higher summary = %+v", s)
	}
	if s = summarizeBest([]float64{7}, "us", lower, 0); s.Value != 7 || s.Spread != 0 {
		t.Errorf("single repetition summary = %+v", s)
	}
}

// Same seed, same op sequence, byte for byte; another seed, another one.
func TestMixSequenceDeterministic(t *testing.T) {
	a := genMix(7, false).(*mixIn)
	b := genMix(7, false).(*mixIn)
	if !bytes.Equal(a.encodeMixSeq(), b.encodeMixSeq()) {
		t.Fatal("same seed produced different op sequences")
	}
	c := genMix(8, false).(*mixIn)
	if bytes.Equal(a.encodeMixSeq(), c.encodeMixSeq()) {
		t.Fatal("different seeds produced the same op sequence")
	}
	// The mix is the stated 40/25/25/10 within a percent.
	var kinds [4]int
	for _, op := range a.ops {
		kinds[op.Kind]++
	}
	for k, want := range []float64{0.40, 0.25, 0.25, 0.10} {
		if got := float64(kinds[k]) / float64(len(a.ops)); math.Abs(got-want) > 0.01 {
			t.Errorf("kind %d share = %.3f, want %.2f", k, got, want)
		}
	}
}

// Two runs of the same seed and op count must count exactly the same
// protocol primitives: these are the numbers a later claim may rest on.
func TestExactCountsRepeat(t *testing.T) {
	w := rmaMixShm.smokeSized()
	in := w.gen(3, true)
	var runs [2]*rep
	for i := range runs {
		r, err := runRep(w, in, 3000, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 {
			t.Fatalf("run %d: %d ops failed verification", i, r.Failed)
		}
		runs[i] = r
	}
	checked := 0
	for _, m := range perLayer {
		if !m.exact {
			continue
		}
		a, okA := runs[0].Counts[m.name]
		b, okB := runs[1].Counts[m.name]
		if !okA && !okB {
			continue // a layer this workload does not have
		}
		checked++
		if a != b {
			t.Errorf("%s differs between identical runs: %v vs %v", m.name, a, b)
		}
	}
	if checked == 0 {
		t.Fatal("no exact count was compared")
	}
	if runs[0].Ops != runs[1].Ops || runs[0].Bytes != runs[1].Bytes || runs[0].Mallocs == 0 {
		t.Errorf("ops/bytes differ: %d/%d vs %d/%d", runs[0].Ops, runs[0].Bytes, runs[1].Ops, runs[1].Bytes)
	}
	if want := runs[0].Expect["core.rdzv_per_op"]; runs[0].Counts["core.rdzv_per_op"] != want {
		t.Errorf("core.rdzv_per_op = %v, the op sequence has %v", runs[0].Counts["core.rdzv_per_op"], want)
	}
}

// The smoke pass runs every workload and every ladder rung at 1/200 of
// its op count with verification on, so a product change that breaks the
// benchmark fails the suite.
func TestSmoke(t *testing.T) {
	start := time.Now()
	rs, err := run(options{workload: "all", seed: 1, seconds: refSeconds, smoke: true, traceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res := rs.Workloads[w.name]
		if res == nil {
			t.Errorf("%s: no result", w.name)
			continue
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if s, ok := res.EndToEnd[m.name]; !ok || s.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, s.Value)
			}
		}
		for _, msg := range res.Mismatch {
			t.Errorf("%s: %s", w.name, msg)
		}
		if res.TraceFile == "" || res.TraceOverhead <= 0 {
			t.Errorf("%s: traced repetition missing (file %q, overhead %v)", w.name, res.TraceFile, res.TraceOverhead)
		}
	}
	// Every per-layer metric must come out of some part of the run.
	for _, m := range perLayer {
		found := false
		switch m.source {
		case srcLadder:
			_, found = rs.Ladder[m.name]
		case srcCount:
			for _, res := range rs.Workloads {
				if _, ok := res.Counts[m.name]; ok {
					found = true
				}
			}
		case srcSpan:
			for _, res := range rs.Workloads {
				if _, ok := res.Spans[m.name]; ok || m.name == "trace_overhead_ratio" {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("per-layer metric %s was not measured", m.name)
		}
	}
	t.Logf("smoke pass took %v", time.Since(start))
}

// BENCHMARK.json is the driver's copy of the spec: same workloads, same
// end-to-end metrics with units, directions and bounds, same per-layer
// metrics.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, the rates are sized for %d", f.RunSeconds, refSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.go has %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		g := f.EndToEnd[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go has %s %s %s %v", i, g, m.name, m.unit, m.better, m.bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		g := f.PerLayer[i]
		if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go has %s %s %s", i, g, m.name, m.unit, m.better)
		}
	}
}

func TestVerdict(t *testing.T) {
	lat := e2eByName("lat_p50_us") // lower is better, bound 25 %
	ops := e2eByName("ops_per_s")  // higher is better, bound 25 %
	// tight: the three best repetitions within 1 %; wide: 30 % apart.
	tight := func(m *e2eMetric, v float64) Summary {
		return summarizeBest([]float64{v * 0.99, v * 0.995, v, v * 1.005, v * 1.01}, m.unit, m.better, 0)
	}
	wide := func(m *e2eMetric, v float64) Summary {
		return summarizeBest([]float64{v * 0.7, v * 0.85, v, v * 1.15, v * 1.3}, m.unit, m.better, 0)
	}
	for _, c := range []struct {
		name string
		m    *e2eMetric
		a, b Summary
		want string
	}{
		{"within the bound", lat, tight(lat, 100), tight(lat, 110), verdictSame},
		{"slower beyond the bound", lat, tight(lat, 100), tight(lat, 130), verdictWorse},
		{"faster beyond the bound", lat, tight(lat, 100), tight(lat, 70), verdictBetter},
		{"rate fell beyond the bound", ops, tight(ops, 100), tight(ops, 70), verdictWorse},
		{"rate rose beyond the bound", ops, tight(ops, 100), tight(ops, 130), verdictBetter},
		{"floor not established", lat, wide(lat, 100), wide(lat, 108), verdictUnresolved},
		{"wide but every repetition slower", lat, wide(lat, 100), wide(lat, 300), verdictWorse},
		{"wide but every repetition faster", lat, wide(lat, 300), wide(lat, 100), verdictBetter},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsFailures(t *testing.T) {
	mk := func(fail float64) *ResultSet {
		res := &WorkloadResult{Name: "put8_pingpong", EndToEnd: map[string]Summary{}}
		for _, m := range endToEnd {
			res.EndToEnd[m.name] = summarizeMedian([]float64{1, 1, 1, 1, 1}, m.unit, 0)
		}
		res.EndToEnd[failRatio] = summarizeMedian([]float64{fail}, "ratio", 0)
		return &ResultSet{Workloads: map[string]*WorkloadResult{res.Name: res}}
	}
	var out bytes.Buffer
	if compareSets(&out, mk(0), mk(0), "a", "b") {
		t.Errorf("identical sets compared as worse:\n%s", out.String())
	}
	out.Reset()
	if !compareSets(&out, mk(0), mk(0.001), "a", "b") {
		t.Errorf("a rise in fail_ratio was not flagged:\n%s", out.String())
	}
}

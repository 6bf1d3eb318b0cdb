// Package stats provides measurement primitives shared by the Photon
// benchmark harness: online moment accumulators, fixed-bucket latency
// histograms, and simple table/series printers.
//
// Everything here is allocation-light so that instrumenting a hot path
// (for example a per-message latency sample) does not perturb what is
// being measured.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sample accumulates online summary statistics (count, mean, variance,
// min, max) using Welford's algorithm. The zero value is ready to use.
// Sample is not safe for concurrent use; wrap it or use SharedSample.
type Sample struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddDuration records a duration observation in nanoseconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(float64(d.Nanoseconds())) }

// N returns the number of observations.
func (s *Sample) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Sample) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if empty.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Sample) Max() float64 { return s.max }

// Var returns the unbiased sample variance, or 0 for fewer than two
// observations.
func (s *Sample) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// Merge folds other into s, as if every observation of other had been
// added to s directly.
func (s *Sample) Merge(other *Sample) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		return
	}
	n := s.n + other.n
	d := other.mean - s.mean
	mean := s.mean + d*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// Reset clears the accumulator.
func (s *Sample) Reset() { *s = Sample{} }

// String renders a compact one-line summary.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f max=%.2f",
		s.n, s.Mean(), s.Stddev(), s.min, s.max)
}

// SharedSample is a mutex-guarded Sample for concurrent producers.
type SharedSample struct {
	//photon:lock sample 10
	mu sync.Mutex
	s  Sample
}

// Add records one observation.
func (ss *SharedSample) Add(x float64) {
	ss.mu.Lock()
	ss.s.Add(x)
	ss.mu.Unlock()
}

// Snapshot returns a copy of the current accumulator state.
func (ss *SharedSample) Snapshot() Sample {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.s
}

// Log-linear bucket layout (HDR-histogram style). Observations below
// linearCutoff nanoseconds get one bucket per nanosecond; above it,
// each power-of-two octave is split into subPerOctave linear
// sub-buckets, so relative bucket width never exceeds 1/subPerOctave
// (12.5%). At the 4 µs range typical of shm puts a bucket is 512 ns
// wide — sub-µs resolution — where the old pure-log2 scheme had 4 µs
// buckets.
const (
	linearCutoff = 32 // identity buckets for ns in [0, 32)
	subBits      = 3
	subPerOctave = 1 << subBits

	// NumBuckets covers int64 nanoseconds: 32 linear buckets plus 8
	// sub-buckets for each octave 2^5..2^62.
	NumBuckets = linearCutoff + (62-5+1)*subPerOctave
)

// Histogram is a log-linear-bucketed latency histogram covering
// 1ns..~292y with <=12.5% bucket width. The zero value is ready to
// use. Concurrent Add calls must be externally synchronized.
type Histogram struct {
	buckets [NumBuckets]int64
	sums    [NumBuckets]float64
	sample  Sample
}

// Bucket returns the bucket index an observation of ns nanoseconds
// falls into (non-positive observations land in bucket 0). Exported so
// external accumulators (the lock-free metrics registry) bucket exactly
// the way Histogram does.
func Bucket(ns int64) int {
	if ns <= 0 {
		return 0
	}
	if ns < linearCutoff {
		return int(ns)
	}
	o := bits.Len64(uint64(ns)) - 1 // octave, >= 5
	sub := int((uint64(ns) >> uint(o-subBits)) & (subPerOctave - 1))
	return linearCutoff + (o-5)*subPerOctave + sub
}

// BucketBounds returns the [lo, hi) nanosecond range of bucket b.
func BucketBounds(b int) (lo, hi int64) {
	if b <= 0 {
		return 0, 1
	}
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	if b < linearCutoff {
		return int64(b), int64(b) + 1
	}
	o := 5 + (b-linearCutoff)/subPerOctave
	sub := (b - linearCutoff) % subPerOctave
	shift := uint(o - subBits)
	lo = int64(subPerOctave+sub) << shift
	width := int64(1) << shift
	if lo > math.MaxInt64-width {
		return lo, math.MaxInt64
	}
	return lo, lo + width
}

// Add records a nanosecond observation.
func (h *Histogram) Add(ns int64) {
	b := Bucket(ns)
	h.buckets[b]++
	h.sums[b] += float64(ns)
	h.sample.Add(float64(ns))
}

// AddDuration records a duration observation.
func (h *Histogram) AddDuration(d time.Duration) { h.Add(d.Nanoseconds()) }

// N returns the total number of observations.
func (h *Histogram) N() int64 { return h.sample.N() }

// BucketCount returns the observation count of bucket b
// (0 for out-of-range b), for exporters that re-render the
// distribution in another format.
func (h *Histogram) BucketCount(b int) int64 {
	if b < 0 || b >= len(h.buckets) {
		return 0
	}
	return h.buckets[b]
}

// BucketSum returns the total nanoseconds observed in bucket b, kept
// so cross-peer aggregation (metrics.Collector) can merge histograms
// with an exact mean rather than approximating from bucket bounds.
func (h *Histogram) BucketSum(b int) float64 {
	if b < 0 || b >= len(h.sums) {
		return 0
	}
	return h.sums[b]
}

// Mean returns the mean in nanoseconds.
func (h *Histogram) Mean() float64 { return h.sample.Mean() }

// Quantile returns an approximate q-quantile (0<=q<=1) in nanoseconds.
// Within the bucket containing the q-th observation the estimate
// interpolates linearly by the observation's rank between the bucket
// bounds — with log-linear buckets the bounds are at most 12.5% apart,
// so the interpolation error is bounded by the bucket width rather
// than a full octave (frac = 1 recovers the upper bound, so
// Quantile(1) still dominates the max sample).
func (h *Histogram) Quantile(q float64) int64 {
	total := h.sample.N()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var cum int64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		cum += c
		if cum > target {
			lo, hi := BucketBounds(i)
			if hi == math.MaxInt64 {
				return math.MaxInt64
			}
			frac := float64(target-(cum-c)+1) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
	}
	return math.MaxInt64
}

// AccumulateBucket folds count pre-bucketed observations, totaling
// sumNS nanoseconds, into bucket b. It exists so externally-aggregated
// shards (the atomic metrics registry) can be merged into a Histogram
// for reporting: counts and the mean stay exact; variance and min/max
// are approximated from the bucket bounds.
func (h *Histogram) AccumulateBucket(b int, count int64, sumNS float64) {
	if count <= 0 {
		return
	}
	if b < 0 {
		b = 0
	}
	if b > NumBuckets-1 {
		b = NumBuckets - 1
	}
	h.buckets[b] += count
	h.sums[b] += sumNS
	lo, hi := BucketBounds(b)
	s := Sample{n: count, mean: sumNS / float64(count), min: float64(lo), max: float64(hi)}
	if s.mean < s.min || s.mean > s.max {
		// Caller-supplied sum disagrees with the bucket; trust the sum
		// for the mean but keep min/max consistent with it.
		s.min, s.max = s.mean, s.mean
	}
	h.sample.Merge(&s)
}

// String renders mean plus p50/p99 in microseconds.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.2fus p50<=%.2fus p99<=%.2fus",
		h.N(), h.Mean()/1e3, float64(h.Quantile(0.50))/1e3, float64(h.Quantile(0.99))/1e3)
}

// Series is a labelled sequence of (x, y...) rows used to print
// figure-style data: one x column and one y column per named line.
type Series struct {
	Title  string
	XLabel string
	Lines  []string // column names for each y value
	rows   []seriesRow
}

type seriesRow struct {
	x  float64
	ys []float64
}

// NewSeries creates a Series with the given title, x-axis label, and
// one named line per y column.
func NewSeries(title, xlabel string, lines ...string) *Series {
	return &Series{Title: title, XLabel: xlabel, Lines: lines}
}

// Row appends one data row; len(ys) must equal len(s.Lines).
func (s *Series) Row(x float64, ys ...float64) {
	if len(ys) != len(s.Lines) {
		panic(fmt.Sprintf("stats: Series %q expects %d y values, got %d", s.Title, len(s.Lines), len(ys)))
	}
	cp := make([]float64, len(ys))
	copy(cp, ys)
	s.rows = append(s.rows, seriesRow{x: x, ys: cp})
}

// NumRows reports how many rows have been added.
func (s *Series) NumRows() int { return len(s.rows) }

// Y returns the y value of the named line at row i.
func (s *Series) Y(i int, line string) (float64, bool) {
	for j, l := range s.Lines {
		if l == line {
			return s.rows[i].ys[j], true
		}
	}
	return 0, false
}

// X returns the x value at row i.
func (s *Series) X(i int) float64 { return s.rows[i].x }

// Render prints the series as an aligned text table, the form the
// harness uses to regenerate each paper figure.
func (s *Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Title)
	cols := append([]string{s.XLabel}, s.Lines...)
	widths := make([]int, len(cols))
	cells := make([][]string, len(s.rows))
	for i, r := range s.rows {
		row := make([]string, len(cols))
		row[0] = formatNum(r.x)
		for j, y := range r.ys {
			row[j+1] = formatNum(y)
		}
		cells[i] = row
	}
	for j, c := range cols {
		widths[j] = len(c)
		for i := range cells {
			if l := len(cells[i][j]); l > widths[j] {
				widths[j] = l
			}
		}
	}
	for j, c := range cols {
		if j > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[j], c)
	}
	b.WriteByte('\n')
	for i := range cells {
		for j := range cols {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], cells[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatNum(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.3f", x)
}

// Table is a labelled grid of string cells used to print table-style
// experiment output.
type Table struct {
	Title string
	Cols  []string
	rows  [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, cols ...string) *Table {
	return &Table{Title: title, Cols: cols}
}

// Row appends one row of cells, formatting each value with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatNum(v)
		case float32:
			row[i] = formatNum(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports how many rows have been added.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the cell at row i, column named col.
func (t *Table) Cell(i int, col string) (string, bool) {
	for j, c := range t.Cols {
		if c == col {
			if j < len(t.rows[i]) {
				return t.rows[i][j], true
			}
			return "", false
		}
	}
	return "", false
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	widths := make([]int, len(t.Cols))
	for j, c := range t.Cols {
		widths[j] = len(c)
	}
	for _, r := range t.rows {
		for j, c := range r {
			if j < len(widths) && len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	for j, c := range t.Cols {
		if j > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[j], c)
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for j, c := range r {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CounterSet is an ordered collection of named int64 counters, used to
// report engine internals (pool hits, ring overflows, batched posts)
// in a stable, diffable layout: names render in first-use order, not
// sorted, so related counters stay grouped.
type CounterSet struct {
	names []string
	idx   map[string]int
	vals  []int64
}

// NewCounterSet creates an empty counter set.
func NewCounterSet() *CounterSet {
	return &CounterSet{idx: make(map[string]int)}
}

func (c *CounterSet) slot(name string) int {
	if i, ok := c.idx[name]; ok {
		return i
	}
	i := len(c.names)
	c.idx[name] = i
	c.names = append(c.names, name)
	c.vals = append(c.vals, 0)
	return i
}

// Set assigns a counter, creating it on first use.
func (c *CounterSet) Set(name string, v int64) { c.vals[c.slot(name)] = v }

// Add increments a counter, creating it on first use.
func (c *CounterSet) Add(name string, d int64) { c.vals[c.slot(name)] += d }

// Get returns a counter's value and whether it exists.
func (c *CounterSet) Get(name string) (int64, bool) {
	if i, ok := c.idx[name]; ok {
		return c.vals[i], true
	}
	return 0, false
}

// Names returns the counter names in first-use order.
func (c *CounterSet) Names() []string { return append([]string(nil), c.names...) }

// Render prints one aligned "name value" line per counter, in
// first-use order.
func (c *CounterSet) Render() string {
	w := 0
	for _, n := range c.names {
		if len(n) > w {
			w = len(n)
		}
	}
	var b strings.Builder
	for i, n := range c.names {
		fmt.Fprintf(&b, "%-*s  %d\n", w, n, c.vals[i])
	}
	return b.String()
}

// Rate converts an operation count over a duration into ops/sec.
func Rate(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// BandwidthMBps converts bytes moved over a duration into MiB/s.
func BandwidthMBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds() / (1 << 20)
}

// Sizes returns the power-of-two sweep [lo, hi] commonly used for
// message-size axes (lo and hi must be powers of two, lo <= hi).
func Sizes(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Percentile computes the p-th percentile (0..100) of xs by sorting a
// copy. Intended for offline reporting, not hot paths.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	idx := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return cp[lo]
	}
	frac := idx - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. An actual sample is returned, never an interpolated
// value, so a p99 is a latency some op really had.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercent picks the tail percentile a sample set supports: p99 when
// at least 1000 samples exist, otherwise the highest percentile that
// still has ten samples beyond it (choosing-metrics, section 1). Below
// 20 samples nothing but the median is supported and 50 is returned.
func tailPercent(n int) float64 {
	if n >= 1000 {
		return 99
	}
	if n < 20 {
		return 50
	}
	return 100 * float64(n-10) / float64(n)
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// median of an unsorted float slice (mean of the two middle values for
// even lengths). Empty input gives 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method: position
// i*(len+1)/4, linearly interpolated, clamped to the extremes). The
// driver computes spreads with that function, so the benchmark's own
// q1/q3 are directly comparable. Fewer than two values give (v, v).
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// Summary is one metric over the repetitions of a run. Value is the
// reported number; the median, quartiles and per-repetition values show
// how the repetitions were distributed. Samples is the per-repetition
// sample count behind a latency percentile (0 for other metrics).
//
// Timed-phase metrics report the mean of the three best of the ten
// repetitions, not the median of all. The reference host is a 2-vCPU
// guest whose speed moves by 30 % and more in phases of several seconds
// (the same ping-pong read p50 2.5 us in one second and 4.3 us ten
// seconds later, CPU per op moving with it), so the median of a run's
// repetitions moves with whichever phase the run fell into: over ten
// runs it spread by 7 to 21 % of itself, the best repetitions by 1 to
// 5 %. Interference only ever slows a repetition down, so the best ones
// are the least disturbed measurements of the same program; three of
// them, so that one fluke counts for a third. Spread says how well that
// floor is established: the distance from the best to the third best
// repetition as a share of the best. Set-up metrics and counts report
// the median; their Spread is the interquartile distance over the median
// divided by the square root of the repetition count, which is about the
// uncertainty of a median of that many values (a set-up takes 20 ms and
// single ones differ by 30 %, their median by far less).
type Summary struct {
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Spread  float64   `json:"spread"`
	Unit    string    `json:"unit"`
	Reps    []float64 `json:"reps"`
	Samples int       `json:"samples,omitempty"`
}

// summarizeMedian reports the median of the repetitions.
func summarizeMedian(reps []float64, unit string, samples int) Summary {
	q1, q3 := quartiles(reps)
	s := Summary{Median: median(reps), Q1: q1, Q3: q3, Unit: unit, Reps: reps, Samples: samples}
	s.Value = s.Median
	if s.Median != 0 {
		s.Spread = math.Abs(q3-q1) / math.Abs(s.Median) / math.Sqrt(float64(len(reps)))
	}
	return s
}

// bestOf is how many of the best repetitions are averaged.
const bestOf = 3

// summarizeBest reports the mean of the bestOf best repetitions in the
// metric's direction (of all of them when there are fewer).
func summarizeBest(reps []float64, unit, better string, samples int) Summary {
	s := summarizeMedian(reps, unit, samples)
	if len(reps) == 0 {
		return s
	}
	sorted := append([]float64(nil), reps...)
	sort.Float64s(sorted)
	if better == higher {
		for i, j := 0, len(sorted)-1; i < j; i, j = i+1, j-1 {
			sorted[i], sorted[j] = sorted[j], sorted[i]
		}
	}
	top := sorted[:min(bestOf, len(sorted))]
	s.Value, s.Spread = 0, 0
	for _, v := range top {
		s.Value += v / float64(len(top))
	}
	if len(top) == bestOf && top[0] != 0 {
		s.Spread = math.Abs(top[bestOf-1]-top[0]) / math.Abs(top[0])
	}
	return s
}

package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample by the nearest-rank rule: the smallest value with at least q of
// the sample at or below it. An empty sample yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of vs and returns its middle value (the mean of the
// two middle values for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sample is one timed request: when it was issued (or due, for the open
// loop), how long it took, and which latency class it belongs to. Times
// are nanoseconds on the run's monotonic clock.
type sample struct {
	start int64
	dur   int64
	class int8
}

// classStats summarises one latency class over the measured window.
type classStats struct {
	n                  int
	p50, p95, p99, max float64 // milliseconds
}

// summarize reduces the samples of one class issued in [t0, t1) to latency
// statistics over the whole window: a stall that delays one request in
// twenty anywhere in the window moves p95. p50 and p95 are gated; p99 and
// max have too few samples beyond them in a 10 s window to repeat, and are
// reported ungated.
func summarize(samples []sample, class int8, t0, t1 int64) classStats {
	var ms []float64
	for _, s := range samples {
		if s.class == class && s.start >= t0 && s.start < t1 {
			ms = append(ms, float64(s.dur)/1e6)
		}
	}
	st := classStats{n: len(ms)}
	if st.n == 0 {
		return st
	}
	sort.Float64s(ms)
	st.p50, st.p95 = percentile(ms, 0.50), percentile(ms, 0.95)
	st.p99, st.max = percentile(ms, 0.99), ms[len(ms)-1]
	return st
}

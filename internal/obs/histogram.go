package obs

import (
	"math"
	"sync/atomic"
)

// Histogram bucket geometry: bucket 0 catches observations ≤ histMinBound
// (including zero and negatives); bucket i > 0 covers
// (histMinBound·r^(i-1), histMinBound·r^i] with growth ratio r = 2^(1/16).
// 1024 buckets span 1e-9 .. ~1.8e10, wide enough for latencies in seconds
// and payload sizes in bytes. The bucket width bounds relative quantile
// error by r−1 ≈ 4.4% — under the 5% budget its quantiles promise —
// and interpolation inside the bucket does better on smooth samples.
const (
	histBuckets  = 1024
	histMinBound = 1e-9
	// histBucketsPerOctave is the number of buckets per factor-of-two of
	// value range: growth ratio r = 2^(1/histBucketsPerOctave).
	histBucketsPerOctave = 16
)

// bucketUpper returns the upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i <= 0 {
		return histMinBound
	}
	return histMinBound * math.Pow(2, float64(i)/histBucketsPerOctave)
}

// pow2Of16th[k] = 2^(k/16): the within-octave bucket thresholds bucketIndex
// compares the mantissa against instead of evaluating a logarithm.
var pow2Of16th = func() [histBucketsPerOctave + 1]float64 {
	var t [histBucketsPerOctave + 1]float64
	for k := range t {
		t[k] = math.Pow(2, float64(k)/histBucketsPerOctave)
	}
	return t
}()

// octaveLUT maps the top 8 mantissa bits of a float64 to the smallest k
// with 1+b/256 ≤ 2^(k/16). Threshold spacing (2^(1/16)−1 ≈ 0.044) exceeds
// the table's 1/256 resolution, so the true k for any mantissa in a cell is
// the table value or one more — a single comparison against pow2Of16th
// resolves it exactly.
var octaveLUT = func() [256]uint8 {
	var t [256]uint8
	for b := range t {
		m0 := 1 + float64(b)/256
		k := uint8(0)
		for m0 > pow2Of16th[k] {
			k++
		}
		t[b] = k
	}
	return t
}()

// IEEE-754 float64 field accessors for bucketIndex: the low 52 bits hold
// the mantissa, and OR-ing in the biased exponent of 1.0 rescales it into
// [1, 2) without arithmetic.
const (
	histMantBits = 52
	histMantMask = 1<<histMantBits - 1
	histOneBits  = uint64(1023) << histMantBits
)

// bucketIndex maps an observation to its bucket: idx = ceil(log2(v/min)·16).
// The log never runs on the hot path — Observe sits inside every gcast leg
// and store apply — so the index is read off the float's own base-2
// representation: the exponent bits give the octave (16 buckets each), and
// the top mantissa bits index octaveLUT for the position within it, with
// one threshold comparison fixing the cell boundary. Equivalence with the
// closed form is pinned by TestBucketIndexEquivalence.
func bucketIndex(v float64) int {
	if v <= histMinBound || math.IsNaN(v) {
		return 0
	}
	u := v / histMinBound // > 1: exponent ≥ bias, mantissa normal
	if math.IsInf(u, 1) {
		return histBuckets - 1
	}
	bits := math.Float64bits(u)
	e := int(bits>>histMantBits) - 1023
	m := math.Float64frombits(bits&histMantMask | histOneBits)
	k := int(octaveLUT[(bits>>(histMantBits-8))&0xff])
	if m > pow2Of16th[k] {
		k++
	}
	idx := e*histBucketsPerOctave + k
	if idx < 1 {
		idx = 1
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Histogram is a fixed-size bucketed distribution with wait-free Observe:
// every field is updated with atomic operations, so concurrent writers
// never contend on a lock. Snapshots are approximate under concurrent
// writes (buckets are read one by one), which is fine for monitoring.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomicFloat
	min    atomicFloat
	max    atomicFloat
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// NewHistogram returns a standalone histogram, not registered in any
// registry — for callers that aggregate measurements outside the metrics
// plane (the open-loop load generator records coordinated-omission-safe
// latencies into one of these per run).
func NewHistogram() *Histogram { return newHistogram() }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.storeMin(v)
	h.max.storeMax(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Merge folds every observation recorded in src into h. Both histograms
// share the same fixed geometry, so the merge is a per-bucket add; it is
// safe under concurrent Observe on either side, and associative and
// commutative up to the usual floating-point reassociation of Sum.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || src == h {
		return
	}
	for i := range src.counts {
		if c := src.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	if c := src.count.Load(); c > 0 {
		h.count.Add(c)
		h.sum.add(src.sum.load())
		h.min.storeMin(src.min.load())
		h.max.storeMax(src.max.load())
	}
}

// BucketCount reports the population of one non-empty histogram bucket.
// Upper is the bucket's inclusive upper bound; the lower bound is the
// Upper of the previous bucket index (histMinBound for bucket 1, and
// bucket 0 collects everything at or below histMinBound).
type BucketCount struct {
	Index int     `json:"index"`
	Upper float64 `json:"upper"`
	Count uint64  `json:"count"`
}

// HistSnapshot summarizes a histogram at one instant. Buckets carries the
// non-empty buckets so snapshots can be diffed (see Delta) and exported
// in Prometheus histogram exposition without loss.
type HistSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Mean    float64       `json:"mean"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	P999    float64       `json:"p999"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot computes the summary, including interpolated quantiles.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{Count: total, Sum: h.sum.load()}
	if total == 0 {
		return s
	}
	s.Mean = s.Sum / float64(total)
	s.Min = h.min.load()
	s.Max = h.max.load()
	s.P50 = quantileFromBuckets(counts[:], total, 0.50, s.Min, s.Max)
	s.P90 = quantileFromBuckets(counts[:], total, 0.90, s.Min, s.Max)
	s.P99 = quantileFromBuckets(counts[:], total, 0.99, s.Min, s.Max)
	s.P999 = quantileFromBuckets(counts[:], total, 0.999, s.Min, s.Max)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Index: i, Upper: bucketUpper(i), Count: c})
		}
	}
	return s
}

// Delta computes the distribution of observations recorded between prev
// and cur, two snapshots of the SAME histogram with prev taken earlier.
// Quantiles are re-derived from the bucket-count differences; Min and Max
// are bucket bounds (the exact extremes of the interval are not tracked),
// so they carry the same ≤ r−1 relative error as the quantiles.
func Delta(cur, prev HistSnapshot) HistSnapshot {
	var counts [histBuckets]uint64
	for _, b := range cur.Buckets {
		if b.Index >= 0 && b.Index < histBuckets {
			counts[b.Index] = b.Count
		}
	}
	for _, b := range prev.Buckets {
		if b.Index >= 0 && b.Index < histBuckets && counts[b.Index] >= b.Count {
			counts[b.Index] -= b.Count
		}
	}
	var total uint64
	lo, hi := -1, -1
	for i, c := range counts {
		if c == 0 {
			continue
		}
		total += c
		if lo < 0 {
			lo = i
		}
		hi = i
	}
	s := HistSnapshot{Count: total, Sum: cur.Sum - prev.Sum}
	if total == 0 {
		s.Sum = 0
		return s
	}
	s.Mean = s.Sum / float64(total)
	if lo == 0 {
		s.Min = 0
	} else {
		s.Min = bucketUpper(lo - 1)
	}
	s.Max = bucketUpper(hi)
	s.P50 = quantileFromBuckets(counts[:], total, 0.50, s.Min, s.Max)
	s.P90 = quantileFromBuckets(counts[:], total, 0.90, s.Min, s.Max)
	s.P99 = quantileFromBuckets(counts[:], total, 0.99, s.Min, s.Max)
	s.P999 = quantileFromBuckets(counts[:], total, 0.999, s.Min, s.Max)
	for i, c := range counts {
		if c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Index: i, Upper: bucketUpper(i), Count: c})
		}
	}
	return s
}

// Quantile estimates one quantile (q in [0,1]) from the live buckets.
func (h *Histogram) Quantile(q float64) float64 {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	return quantileFromBuckets(counts[:], total, q, h.min.load(), h.max.load())
}

// quantileFromBuckets locates the bucket holding the q-th observation and
// interpolates linearly inside it, clamped to the observed [min, max].
func quantileFromBuckets(counts []uint64, total uint64, q, min, max float64) float64 {
	target := q * float64(total)
	if target < 1 {
		target = 1
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lower := 0.0
			if i > 0 {
				lower = bucketUpper(i - 1)
			}
			upper := bucketUpper(i)
			frac := (target - cum) / float64(c)
			v := lower + (upper-lower)*frac
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
		cum = next
	}
	return max
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) storeMin(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

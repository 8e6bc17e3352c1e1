package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"paso/internal/stats"
)

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
	if len(s.Buckets) != 0 {
		t.Errorf("empty snapshot has buckets: %+v", s.Buckets)
	}
	if h.Quantile(0.5) != 0 {
		t.Error("quantile of empty histogram should be 0")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := newHistogram()
	h.Observe(0.25)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 0.25 || s.Max != 0.25 {
		t.Errorf("snapshot = %+v", s)
	}
	if len(s.Buckets) != 1 || s.Buckets[0].Count != 1 {
		t.Errorf("buckets = %+v, want one bucket with count 1", s.Buckets)
	}
	// With one observation every quantile is clamped to [min, max] = 0.25.
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 0.25 {
			t.Errorf("Quantile(%v) = %v, want 0.25", q, got)
		}
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []float64{0, 1e-10, 1e-9, 1e-6, 1e-3, 0.5, 1, 10, 1e6, 1e9} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Errorf("bucketIndex(%v) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		if idx > 0 && !(v > bucketUpper(idx-1) && v <= bucketUpper(idx)) && idx != histBuckets-1 {
			t.Errorf("v=%v not in bucket %d bounds (%v, %v]",
				v, idx, bucketUpper(idx-1), bucketUpper(idx))
		}
	}
	if bucketIndex(math.NaN()) != 0 {
		t.Error("NaN should land in bucket 0")
	}
	if bucketIndex(-5) != 0 {
		t.Error("negatives should land in bucket 0")
	}
	if bucketIndex(1e30) != histBuckets-1 {
		t.Error("overflow values should clamp to the last bucket")
	}
}

// TestHistogramQuantileAccuracy checks the bucketed estimates against exact
// order statistics from internal/stats.Summarize. With growth 2^(1/16) the
// bucket width bounds relative error by ~4.4%; allow 6% slack for the
// interpolation inside the first/last bucket.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dists := map[string]func() float64{
		"uniform":   func() float64 { return rng.Float64() * 10 },
		"exp":       func() float64 { return rng.ExpFloat64() * 0.01 },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()) },
	}
	for name, draw := range dists {
		h := newHistogram()
		xs := make([]float64, 0, 5000)
		for i := 0; i < 5000; i++ {
			v := draw()
			h.Observe(v)
			xs = append(xs, v)
		}
		exact := stats.Summarize(xs)
		for _, tc := range []struct {
			q    float64
			want float64
		}{{0.50, exact.P50}, {0.90, exact.P90}, {0.99, exact.P99}} {
			got := h.Quantile(tc.q)
			if rel := math.Abs(got-tc.want) / tc.want; rel > 0.06 {
				t.Errorf("%s: Quantile(%v) = %v, exact %v (rel err %.3f)",
					name, tc.q, got, tc.want, rel)
			}
		}
		snap := h.Snapshot()
		if math.Abs(snap.Mean-exact.Mean)/exact.Mean > 1e-9 {
			t.Errorf("%s: mean = %v, exact %v", name, snap.Mean, exact.Mean)
		}
		if snap.Min != exact.Min || snap.Max != exact.Max {
			t.Errorf("%s: min/max = %v/%v, exact %v/%v",
				name, snap.Min, snap.Max, exact.Min, exact.Max)
		}
	}
}

// TestHistogramBoundedRelativeError is the contract test for the geometry:
// on log-uniform samples spanning six decades, every estimated quantile
// must land within 5% of the exact order statistic — the bound the
// latency quantiles read off these histograms rely on.
func TestHistogramBoundedRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := newHistogram()
	const n = 20000
	xs := make([]float64, 0, n)
	lo, hi := math.Log(1e-6), math.Log(10.0)
	for i := 0; i < n; i++ {
		v := math.Exp(lo + rng.Float64()*(hi-lo))
		h.Observe(v)
		xs = append(xs, v)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999} {
		rank := int(q * float64(n))
		if rank >= n {
			rank = n - 1
		}
		exact := xs[rank]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.05 {
			t.Errorf("Quantile(%v) = %v, exact %v (rel err %.3f > 0.05)",
				q, got, exact, rel)
		}
	}
}

// TestHistogramMergeAssociativity checks that Merge is associative: folding
// (a⊕b)⊕c and a⊕(b⊕c) must yield identical bucket counts and counts, and
// sums equal up to float reassociation.
func TestHistogramMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func(n int, scale float64) *Histogram {
		h := newHistogram()
		for i := 0; i < n; i++ {
			h.Observe(rng.ExpFloat64() * scale)
		}
		return h
	}
	a1, b1, c1 := mk(1000, 0.001), mk(2000, 0.1), mk(500, 5)
	// Rebuild identical copies from the same draws by merging singletons.
	copyOf := func(h *Histogram) *Histogram {
		out := newHistogram()
		out.Merge(h)
		return out
	}
	left := copyOf(a1)
	left.Merge(b1)
	left.Merge(c1) // (a⊕b)⊕c
	bc := copyOf(b1)
	bc.Merge(c1)
	right := copyOf(a1)
	right.Merge(bc) // a⊕(b⊕c)

	ls, rs := left.Snapshot(), right.Snapshot()
	if ls.Count != rs.Count {
		t.Fatalf("count mismatch: %d vs %d", ls.Count, rs.Count)
	}
	if ls.Min != rs.Min || ls.Max != rs.Max {
		t.Errorf("min/max mismatch: %v/%v vs %v/%v", ls.Min, ls.Max, rs.Min, rs.Max)
	}
	if math.Abs(ls.Sum-rs.Sum) > 1e-9*math.Abs(ls.Sum) {
		t.Errorf("sum mismatch: %v vs %v", ls.Sum, rs.Sum)
	}
	if len(ls.Buckets) != len(rs.Buckets) {
		t.Fatalf("bucket set mismatch: %d vs %d buckets", len(ls.Buckets), len(rs.Buckets))
	}
	for i := range ls.Buckets {
		if ls.Buckets[i] != rs.Buckets[i] {
			t.Errorf("bucket %d mismatch: %+v vs %+v", i, ls.Buckets[i], rs.Buckets[i])
		}
	}
	// Merging into one side must not disturb the source.
	if got := b1.Count(); got != 2000 {
		t.Errorf("source histogram mutated by Merge: count %d", got)
	}
}

// TestHistogramDelta checks interval attribution: the difference of two
// snapshots of one histogram reflects exactly the observations between them.
func TestHistogramDelta(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	prev := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(0.5)
	}
	cur := h.Snapshot()
	d := Delta(cur, prev)
	if d.Count != 50 {
		t.Fatalf("delta count = %d, want 50", d.Count)
	}
	if math.Abs(d.Sum-25.0) > 1e-6 {
		t.Errorf("delta sum = %v, want 25", d.Sum)
	}
	// All interval observations were 0.5: quantiles must land within one
	// bucket (≤ ~4.4% relative error) of 0.5.
	for _, q := range []float64{d.P50, d.P99, d.P999} {
		if rel := math.Abs(q-0.5) / 0.5; rel > 0.05 {
			t.Errorf("delta quantile = %v, want ≈0.5", q)
		}
	}
	// Delta of identical snapshots is empty.
	z := Delta(cur, cur)
	if z.Count != 0 || z.Sum != 0 || len(z.Buckets) != 0 {
		t.Errorf("self-delta = %+v, want zero", z)
	}
}

// TestHistogramConcurrent checks the wait-free Observe path under -race and
// that no observations are lost; a concurrent Merge reader must also be
// race-free.
func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	const (
		workers = 8
		iters   = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				h.Observe(rng.Float64() + 0.5)
			}
		}(int64(w))
	}
	// Snapshot and Merge while writers run: must be race-free (values
	// approximate).
	done := make(chan struct{})
	go func() {
		defer close(done)
		agg := newHistogram()
		for i := 0; i < 100; i++ {
			h.Snapshot()
			agg.Merge(h)
		}
	}()
	wg.Wait()
	<-done

	s := h.Snapshot()
	if s.Count != workers*iters {
		t.Errorf("count = %d, want %d", s.Count, workers*iters)
	}
	if s.Min < 0.5 || s.Max > 1.5 {
		t.Errorf("min/max = %v/%v outside [0.5, 1.5]", s.Min, s.Max)
	}
	mean := s.Sum / float64(s.Count)
	if mean < 0.9 || mean > 1.1 {
		t.Errorf("mean = %v, want ≈1.0", mean)
	}
}

// bucketIndexRef is the closed-form bucketing the lookup-table fast path
// replaced: idx = ceil(log2(v/min)·16) evaluated with math.Log2 per sample.
// It stays here as the equivalence oracle.
func bucketIndexRef(v float64) int {
	if v <= histMinBound || math.IsNaN(v) {
		return 0
	}
	u := v / histMinBound
	if math.IsInf(u, 1) {
		// The original int(Ceil(Log2(+Inf))) conversion was
		// implementation-defined; the intended semantic is the top bucket.
		return histBuckets - 1
	}
	idx := int(math.Ceil(math.Log2(u) * histBucketsPerOctave))
	if idx < 1 {
		idx = 1
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// TestBucketIndexEquivalence pins the log-free bucketIndex to the original
// math.Log2 formula across bucket boundaries, powers of two, denormal-ish
// extremes, and a seeded random sweep of the full dynamic range.
func TestBucketIndexEquivalence(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		if got, want := bucketIndex(v), bucketIndexRef(v); got != want {
			t.Errorf("bucketIndex(%g) = %d, ref = %d", v, got, want)
		}
	}
	// Edge values and special cases.
	for _, v := range []float64{
		0, -1, math.NaN(), math.Inf(-1), math.Inf(1),
		histMinBound, histMinBound * 1.0000001, math.MaxFloat64, 1e300,
	} {
		check(v)
	}
	// Every power of two across the histogram's span: exact boundaries.
	for e := -30; e <= 35; e++ {
		check(histMinBound * math.Ldexp(1, e))
	}
	// Bucket upper bounds and their neighborhoods for the first octaves.
	for i := 1; i < 64; i++ {
		u := bucketUpper(i)
		check(u * 0.999)
		check(u * 1.001)
	}
	// Seeded sweep over the full dynamic range (1e-10 .. 1e10 seconds).
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200000; i++ {
		v := math.Pow(10, rng.Float64()*20-10)
		check(v)
	}
}

// BenchmarkBucketIndex measures the lookup-table fast path against the
// math.Log2 closed form it replaced; Observe runs inside every gcast leg
// and store apply, so this is the metrics plane's hottest instruction path.
func BenchmarkBucketIndex(b *testing.B) {
	vals := benchObservations()
	b.Run("table", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += bucketIndex(vals[i&1023])
		}
		benchSink = sink
	})
	b.Run("log2", func(b *testing.B) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += bucketIndexRef(vals[i&1023])
		}
		benchSink = sink
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	vals := benchObservations()
	h := newHistogram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(vals[i&1023])
	}
}

// benchObservations builds a latency-shaped sample set (microseconds to
// hundreds of milliseconds) so the benchmarks walk realistic buckets.
func benchObservations() []float64 {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = math.Pow(10, rng.Float64()*5-6) // 1e-6 .. 1e-1 s
	}
	return vals
}

var benchSink int

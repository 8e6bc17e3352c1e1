package flight

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paso/internal/obs"
)

// stepClock is a deterministic clock for manual sampling: every Now call
// advances it by one step, so frame timestamps are a pure function of the
// call sequence.
type stepClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newStepClock(step time.Duration) *stepClock {
	return &stepClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC), step: step}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

// advance moves the clock forward by d without a reading.
func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestSampler(reg *obs.Registry, interval time.Duration) (*Sampler, *stepClock) {
	clk := newStepClock(interval)
	s := NewSampler(reg, SamplerOptions{Interval: interval, Now: clk.Now})
	return s, clk
}

// seriesByName pulls one series out of a Window result.
func seriesByName(t *testing.T, out []Series, name string) Series {
	t.Helper()
	for _, s := range out {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("series %q not in window (have %d series)", name, len(out))
	return Series{}
}

func TestSamplerWindowReplaysDeltas(t *testing.T) {
	o := obs.Nop()
	s, _ := newTestSampler(o.Reg(), time.Second)

	c := o.Counter("test.counter")
	g := o.Gauge("test.gauge")

	c.Inc()
	g.Set(7)
	s.SampleNow() // frame 1: counter=1 gauge=7
	c.Add(2)
	s.SampleNow() // frame 2: counter=3
	g.Set(5)
	s.SampleNow() // frame 3: gauge=5

	out := s.Window(time.Time{}, time.Time{}, "")
	ctr := seriesByName(t, out, "test.counter")
	// Moved at frames 1 and 2, anchored (unchanged) nowhere else before
	// frame 3's anchor pass — the anchor only adds a point if the series
	// has none yet, so we expect exactly the two movement points.
	if len(ctr.Points) != 2 || ctr.Points[0].Value != 1 || ctr.Points[1].Value != 3 {
		t.Fatalf("counter points = %+v, want values [1 3]", ctr.Points)
	}
	gau := seriesByName(t, out, "test.gauge")
	if len(gau.Points) != 2 || gau.Points[0].Value != 7 || gau.Points[1].Value != 5 {
		t.Fatalf("gauge points = %+v, want values [7 5]", gau.Points)
	}
	if gau.Points[1].Time.Sub(gau.Points[0].Time) != 2*time.Second {
		t.Fatalf("gauge points %v apart, want 2s", gau.Points[1].Time.Sub(gau.Points[0].Time))
	}
}

func TestSamplerHistogramFanout(t *testing.T) {
	o := obs.Nop()
	s, _ := newTestSampler(o.Reg(), time.Second)

	h := o.Histogram("test.lat.seconds")
	h.Observe(0.001)
	h.Observe(0.003)
	s.SampleNow()

	out := s.Window(time.Time{}, time.Time{}, "test.lat.seconds")
	cnt := seriesByName(t, out, "test.lat.seconds.count")
	if cnt.Points[len(cnt.Points)-1].Value != 2 {
		t.Fatalf("count = %d, want 2", cnt.Points[len(cnt.Points)-1].Value)
	}
	sum := seriesByName(t, out, "test.lat.seconds.sum_us")
	if v := sum.Points[len(sum.Points)-1].Value; v != 4000 {
		t.Fatalf("sum_us = %d, want 4000", v)
	}
	max := seriesByName(t, out, "test.lat.seconds.max_us")
	if v := max.Points[len(max.Points)-1].Value; v < 2500 || v > 3500 {
		t.Fatalf("max_us = %d, want ~3000 (bucket error allowed)", v)
	}
}

func TestSamplerEvictionFoldsIntoBase(t *testing.T) {
	o := obs.Nop()
	// The 5-minute retention holds 3 frames 100 s apart.
	s, _ := newTestSampler(o.Reg(), 100*time.Second)

	c := o.Counter("test.counter")
	for i := 0; i < 8; i++ {
		c.Inc()
		s.SampleNow()
	}
	if got := s.Frames(); got != 3 {
		t.Fatalf("Frames() = %d, want 3 after eviction", got)
	}
	oldest, newest := s.Bounds()
	if !newest.After(oldest) {
		t.Fatalf("bounds not ordered: %v .. %v", oldest, newest)
	}
	// Replay through the evicted base must still land on the true value.
	out := s.Window(time.Time{}, time.Time{}, "test.counter")
	ctr := seriesByName(t, out, "test.counter")
	if last := ctr.Points[len(ctr.Points)-1].Value; last != 8 {
		t.Fatalf("replayed final value = %d, want 8", last)
	}
	// All surviving points must lie inside the retained frame range.
	for _, p := range ctr.Points {
		if p.Time.Before(oldest) || p.Time.After(newest) {
			t.Fatalf("point %v outside retained bounds %v..%v", p.Time, oldest, newest)
		}
	}
}

func TestSamplerWindowBoundsAndAnchor(t *testing.T) {
	o := obs.Nop()
	s, clk := newTestSampler(o.Reg(), time.Second)

	c := o.Counter("test.counter")
	c.Inc()
	s.SampleNow() // t+1s: counter=1
	s.SampleNow() // t+2s: idle frame
	mid := clk.t  // after second sample
	s.SampleNow() // t+3s: idle frame

	// A window starting after the movement still reports the series via
	// the anchor point, carrying the flat value.
	out := s.Window(mid, time.Time{}, "test.counter")
	ctr := seriesByName(t, out, "test.counter")
	if len(ctr.Points) != 1 || ctr.Points[0].Value != 1 {
		t.Fatalf("anchored points = %+v, want single value-1 point", ctr.Points)
	}
}

func TestSamplerNamesAndPrefixFilter(t *testing.T) {
	o := obs.Nop()
	s, _ := newTestSampler(o.Reg(), time.Second)
	o.Counter("aaa.one").Inc()
	o.Counter("bbb.two").Inc()
	s.SampleNow()

	names := s.Names()
	if len(names) != 2 || names[0] != "aaa.one" || names[1] != "bbb.two" {
		t.Fatalf("Names() = %v", names)
	}
	out := s.Window(time.Time{}, time.Time{}, "bbb.")
	if len(out) != 1 || out[0].Name != "bbb.two" {
		t.Fatalf("prefix window = %+v, want only bbb.two", out)
	}
}

func TestSamplerOnSampleSeesDeltas(t *testing.T) {
	o := obs.Nop()
	s, _ := newTestSampler(o.Reg(), time.Second)
	c := o.Counter("test.counter")

	type obsFrame struct{ prev, cur int64 }
	var got []obsFrame
	s.OnSample(func(prev, cur map[string]int64, at time.Time) {
		got = append(got, obsFrame{prev["test.counter"], cur["test.counter"]})
	})

	c.Inc()
	s.SampleNow()
	c.Add(4)
	s.SampleNow()

	if len(got) != 2 {
		t.Fatalf("callback ran %d times, want 2", len(got))
	}
	if got[0] != (obsFrame{0, 1}) || got[1] != (obsFrame{1, 5}) {
		t.Fatalf("frames = %+v, want [{0 1} {1 5}]", got)
	}
}

// TestSamplerConcurrent exercises the sampler under the race detector:
// metric writers, two samplers, and window readers all run at once, and
// the ring keeps wrapping so eviction into the base races the readers.
// The registry side stays lock-free atomics; the sampler serializes its
// own state — this test is the proof.
func TestSamplerConcurrent(t *testing.T) {
	o := obs.Nop()
	// 100 s frames leave 3 slots in the 5-minute retention, so a few
	// samples wrap the ring.
	s := NewSampler(o.Reg(), SamplerOptions{Interval: 100 * time.Second})
	s.OnSample(func(prev, cur map[string]int64, at time.Time) {
		_ = cur["hot.counter"] // rules-style read of the shared snapshot
	})

	var stop atomic.Bool
	var wg sync.WaitGroup
	var samples atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.SampleNow() // contends with the reader goroutine's SampleNow
			samples.Add(1)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := o.Counter("hot.counter")
			g := o.Gauge("hot.gauge")
			h := o.Histogram("hot.lat.seconds")
			for i := 0; !stop.Load(); i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i%100) * 1e-6)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.SampleNow()
			samples.Add(1)
			_ = s.Window(time.Time{}, time.Time{}, "")
			_ = s.Names()
			_, _ = s.Bounds()
		}
	}()

	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := samples.Load(); n <= 3 {
		t.Fatalf("%d samples in 50ms; the 3-slot ring never wrapped", n)
	}
	if got := s.Frames(); got != 3 {
		t.Fatalf("Frames() = %d, want the 3-slot cap", got)
	}
}

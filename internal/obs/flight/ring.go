// Package flight is the cluster flight recorder: the retention layer that
// turns the point-in-time observability surfaces of internal/obs into
// reconstructable history. It holds three cooperating pieces:
//
//   - a time-series ring (Sampler): a fixed-interval sampler that
//     snapshots the whole metrics registry into delta-compressed frames —
//     bounded memory, a configurable interval over five minutes of
//     retention, queryable by window — served at /timeseries on pasod;
//   - a flight recorder (Recorder): trigger rules armed on signals the
//     system already emits (send-stall episodes, coordinator backlog
//     breaching its high watermark, a takeover recovery running long, the
//     λ−k+1 margin hitting zero) that atomically capture a diagnostic
//     bundle — event ring, span ring, the metric window around the
//     trigger, goroutine and heap profiles, the placement state — into a
//     manifest-indexed directory, fetchable with `pasoctl flight`;
//   - the ownership fold (Ownership): the per-group ownership timeline
//     (live epoch, coordinator, claim kind, takeover duration) read back
//     from the ownership events vsync's sequencers emit into the obs event
//     ring, included in bundles and served at /placement.
//
// Everything here is an observer: nothing in this package appears on the
// wire or influences protocol decisions (PROTOCOL.md, "Observability").
package flight

import (
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"time"

	"paso/internal/obs"
)

// Sample flattening: every metric in the registry becomes one or more
// int64 series. Counters and gauges map 1:1; a histogram fans out into
// derived series so distributions survive the ring without storing 1024
// buckets per frame.
const (
	seriesCount = ".count"  // histogram observation count
	seriesSum   = ".sum_us" // histogram sum, microseconds (int64)
	seriesMax   = ".max_us" // histogram all-time max, microseconds
	seriesP50   = ".p50_us" // interpolated p50, microseconds
	seriesP99   = ".p99_us" // interpolated p99, microseconds
)

// flatten converts one registry snapshot into the sampler's series map.
// Histogram quantiles and sums are scaled to whole microseconds: the delta
// encoder works on integers, and sub-microsecond latency resolution is
// below the histogram's own 4.4% bucket error anyway.
func flatten(snap obs.RegistrySnapshot, dst map[string]int64) {
	for name, v := range snap.Counters {
		dst[name] = v
	}
	for name, v := range snap.Gauges {
		dst[name] = v
	}
	for name, h := range snap.Histograms {
		dst[name+seriesCount] = int64(h.Count)
		dst[name+seriesSum] = int64(h.Sum * 1e6)
		if h.Count > 0 {
			dst[name+seriesMax] = int64(h.Max * 1e6)
			dst[name+seriesP50] = int64(h.P50 * 1e6)
			dst[name+seriesP99] = int64(h.P99 * 1e6)
		}
	}
}

// frame is one delta-compressed sample: the series that changed since the
// previous frame, encoded as (id-gap uvarint, signed-delta varint) pairs
// over series IDs in ascending order. A typical idle frame is empty; a
// busy one costs a few bytes per moving series.
type frame struct {
	at  time.Time
	buf []byte
	n   int // number of (id, delta) pairs
}

// retention is how much history a sampler's ring keeps.
const retention = 5 * time.Minute

// SamplerOptions configures NewSampler. The zero value gives a 250ms
// interval.
type SamplerOptions struct {
	// Interval is the sampling period. Default 250ms.
	Interval time.Duration
	// Now overrides the clock (tests; deterministic bundles). Default
	// time.Now.
	Now func() time.Time
}

// Sampler snapshots a metrics registry at a fixed interval into a ring of
// delta-compressed frames. Reads (Window, Names) and the sampling tick
// share one mutex — contention is between a 4 Hz ticker and occasional
// debug scrapes, never with metric writers: registry updates stay
// lock-free atomics and the sampler only reads them through Snapshot.
//
// Memory is bounded by construction: the ring holds retention/Interval
// frames, each frame only the deltas of series that moved, plus one
// absolute base vector that absorbs evicted frames.
type Sampler struct {
	reg      *obs.Registry
	interval time.Duration
	now      func() time.Time

	mu       sync.Mutex
	names    []string          // id → series name, append-only
	ids      map[string]uint32 // series name → id
	last     []int64           // id → value at the newest frame
	base     []int64           // id → value just before the oldest retained frame
	frames   *obs.Ring[frame]
	scratch  map[string]int64 // reused flatten target
	onSample []func(prev, cur map[string]int64, at time.Time)

	stopMu  sync.Mutex
	stop    chan struct{}
	stopped chan struct{}
}

// NewSampler builds a sampler over the registry. It does not start
// sampling until Start (or SampleNow for manual stepping).
func NewSampler(reg *obs.Registry, opts SamplerOptions) *Sampler {
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	slots := int(retention / opts.Interval)
	if slots < 2 {
		slots = 2
	}
	return &Sampler{
		reg:      reg,
		interval: opts.Interval,
		now:      opts.Now,
		frames:   obs.NewRing[frame](slots),
		ids:      make(map[string]uint32),
		scratch:  make(map[string]int64),
	}
}

// Interval returns the sampling period.
func (s *Sampler) Interval() time.Duration { return s.interval }

// OnSample registers a callback invoked after every frame with the previous
// and current flattened series values — the hook the Recorder's trigger
// rules evaluate on. Callbacks run on the sampler goroutine (or the
// SampleNow caller) and must not call back into the sampler's locked
// methods; the maps are shared snapshots and must not be mutated.
func (s *Sampler) OnSample(fn func(prev, cur map[string]int64, at time.Time)) {
	s.mu.Lock()
	s.onSample = append(s.onSample, fn)
	s.mu.Unlock()
}

// Start launches the sampling goroutine. Stop halts it; Start after Stop
// is not supported.
func (s *Sampler) Start() {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.stopped = make(chan struct{})
	go func() {
		defer close(s.stopped)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SampleNow()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the sampling goroutine and waits for it to exit. Safe to call
// without Start and more than once.
func (s *Sampler) Stop() {
	s.stopMu.Lock()
	defer s.stopMu.Unlock()
	if s.stop == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.stopped
}

// SampleNow takes one sample immediately — the ticker body, also the
// manual stepping entry point for tests and deterministic captures.
func (s *Sampler) SampleNow() {
	snap := s.reg.Snapshot() // outside the sampler lock: only registry RLock
	at := s.now()

	s.mu.Lock()
	for k := range s.scratch {
		delete(s.scratch, k)
	}
	flatten(snap, s.scratch)

	// Assign ids to any series seen for the first time.
	for name := range s.scratch {
		if _, ok := s.ids[name]; !ok {
			id := uint32(len(s.names))
			s.ids[name] = id
			s.names = append(s.names, name)
			s.last = append(s.last, 0)
			s.base = append(s.base, 0)
		}
	}

	// Encode the frame: ascending-id (gap, zigzag delta) pairs for series
	// that moved. Series absent from this snapshot keep their last value
	// (metrics are never unregistered).
	changed := make([]uint32, 0, 16)
	for name, v := range s.scratch {
		id := s.ids[name]
		if s.last[id] != v {
			changed = append(changed, id)
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	var buf []byte
	prevID := uint32(0)
	for _, id := range changed {
		v := s.scratch[s.ids2name(id)]
		buf = binary.AppendUvarint(buf, uint64(id-prevID))
		buf = binary.AppendVarint(buf, v-s.last[id])
		s.last[id] = v
		prevID = id
	}
	f := frame{at: at, buf: buf, n: len(changed)}
	if old, evicted := s.frames.Add(f); evicted {
		s.applyFrame(old, s.base) // the evicted frame folds into the base
	}

	// Snapshot prev/cur for the trigger callbacks. prev is reconstructed
	// lazily only when someone is listening.
	var cbs []func(prev, cur map[string]int64, at time.Time)
	var prev, cur map[string]int64
	if len(s.onSample) > 0 {
		cbs = append(cbs, s.onSample...)
		cur = make(map[string]int64, len(s.scratch))
		for k, v := range s.scratch {
			cur[k] = v
		}
		prev = make(map[string]int64, len(cur))
		for id, name := range s.names {
			prev[name] = s.last[id]
		}
		// Undo this frame's deltas to get the previous values.
		s.unapplyFrameInto(f, prev)
	}
	s.mu.Unlock()

	for _, fn := range cbs {
		fn(prev, cur, at)
	}
}

// ids2name returns the series name for an id; callers hold s.mu.
func (s *Sampler) ids2name(id uint32) string { return s.names[id] }

// applyFrame replays one frame's deltas onto an id-indexed vector;
// callers hold s.mu.
func (s *Sampler) applyFrame(f frame, vec []int64) {
	b := f.buf
	id := uint32(0)
	for i := 0; i < f.n; i++ {
		gap, n := binary.Uvarint(b)
		b = b[n:]
		d, n := binary.Varint(b)
		b = b[n:]
		id += uint32(gap)
		if int(id) < len(vec) {
			vec[id] += d
		}
	}
}

// unapplyFrameInto subtracts one frame's deltas from a name-keyed map;
// callers hold s.mu.
func (s *Sampler) unapplyFrameInto(f frame, m map[string]int64) {
	b := f.buf
	id := uint32(0)
	for i := 0; i < f.n; i++ {
		gap, n := binary.Uvarint(b)
		b = b[n:]
		d, n := binary.Varint(b)
		b = b[n:]
		id += uint32(gap)
		name := s.names[id]
		m[name] -= d
	}
}

// Point is one (time, value) sample of a series.
type Point struct {
	Time  time.Time `json:"t"`
	Value int64     `json:"v"`
}

// Series is one named series over a queried window.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Window reconstructs every series over [from, to] (zero times mean
// unbounded). Points are emitted only at frames where the series moved,
// plus one anchor point at the first in-window frame — consumers treat
// the value as constant between points. The prefix filter ("" for all)
// selects series by name prefix.
func (s *Sampler) Window(from, to time.Time, prefix string) []Series {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Current absolute values, replayed from base.
	vec := make([]int64, len(s.base))
	copy(vec, s.base)

	type track struct {
		pts      []Point
		anchored bool
	}
	tracks := make(map[uint32]*track)
	want := func(id uint32) *track {
		name := s.names[id]
		if prefix != "" && !strings.HasPrefix(name, prefix) {
			return nil
		}
		t, ok := tracks[id]
		if !ok {
			t = &track{}
			tracks[id] = t
		}
		return t
	}

	for _, f := range s.frames.Snapshot() {
		b := f.buf
		id := uint32(0)
		inWindow := (from.IsZero() || !f.at.Before(from)) && (to.IsZero() || !f.at.After(to))
		for i := 0; i < f.n; i++ {
			gap, n := binary.Uvarint(b)
			b = b[n:]
			d, n := binary.Varint(b)
			b = b[n:]
			id += uint32(gap)
			vec[id] += d
			if !inWindow {
				continue
			}
			if t := want(id); t != nil {
				t.pts = append(t.pts, Point{Time: f.at, Value: vec[id]})
				t.anchored = true
			}
		}
		// Anchor series that existed but did not move at the first
		// in-window frame, so every series has a value inside the window.
		if inWindow {
			for sid := range s.names {
				id := uint32(sid)
				if t := want(id); t != nil && !t.anchored {
					t.pts = append(t.pts, Point{Time: f.at, Value: vec[id]})
					t.anchored = true
				}
			}
		}
	}

	out := make([]Series, 0, len(tracks))
	for id, t := range tracks {
		out = append(out, Series{Name: s.names[id], Points: t.pts})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns every series name the sampler has seen, sorted.
func (s *Sampler) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.names...)
	sort.Strings(out)
	return out
}

// Frames reports how many frames the ring currently retains.
func (s *Sampler) Frames() int { return len(s.frames.Snapshot()) }

// Bounds returns the ring's retained time range (zero,zero when empty).
func (s *Sampler) Bounds() (oldest, newest time.Time) {
	fs := s.frames.Snapshot()
	if len(fs) == 0 {
		return time.Time{}, time.Time{}
	}
	return fs[0].at, fs[len(fs)-1].at
}

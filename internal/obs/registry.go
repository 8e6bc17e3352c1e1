package obs

import (
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a name-keyed set of metrics. Lookup takes a read lock;
// updates on the returned handles are single atomic operations, so hot
// paths resolve their handles once at construction and pay only the
// atomic thereafter.
//
// Metric names are dot-separated paths (e.g. "transport.msgs.sent");
// the Prometheus renderer sanitizes them at output time. A name minted per
// group, peer or class declares its label with Series, and the registry
// remembers it for the renderer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	labels   map[string]label
}

// label is the Prometheus identity of one labeled series: family{key="value"}.
type label struct{ family, key, value string }

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		labels:   make(map[string]label),
	}
}

// Series mints the name of one series of a labeled family. tmpl is a
// dotted name in which one dot-segment holds a {key} placeholder —
// "vsync.order.seconds.{group}", "transport.sendq.depth.p{peer}",
// "core.op.{kind}.latency.seconds". The returned name substitutes value for
// the placeholder (the flat name /metrics.json, the flight sampler and its
// rules see); Prometheus renders the series as family{key="value"}, the
// family being tmpl without the placeholder's segment.
func (r *Registry) Series(tmpl, value string) string {
	lo, hi := strings.IndexByte(tmpl, '{'), strings.IndexByte(tmpl, '}')
	name := tmpl[:lo] + value + tmpl[hi+1:]
	segStart := max(strings.LastIndexByte(tmpl[:lo], '.'), 0)
	segEnd := len(tmpl)
	if i := strings.IndexByte(tmpl[hi:], '.'); i >= 0 {
		segEnd = hi + i
	}
	l := label{family: strings.Trim(tmpl[:segStart]+tmpl[segEnd:], "."), key: tmpl[lo+1 : hi], value: value}
	r.mu.Lock()
	r.labels[name] = l
	r.mu.Unlock()
	return name
}

// labelsCopy returns the declared labels, keyed by series name.
func (r *Registry) labelsCopy() map[string]label {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return maps.Clone(r.labels)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every metric's current value, sorted by name.
//
// The registry lock is held only long enough to copy the handle maps —
// microseconds — never across the value reads: histogram snapshots walk
// 1024 buckets each, and a snapshotter descheduled mid-walk while holding
// even the read lock would let one pending registration (write lock)
// queue every hot-path metric lookup behind it. With the copy-then-read
// split, a periodic sampler (internal/obs/flight) can snapshot a busy
// registry without ever stalling writers.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.RUnlock()

	snap := RegistrySnapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistSnapshot, len(hists)),
	}
	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}

// RegistrySnapshot is a point-in-time copy of a registry's metrics.
type RegistrySnapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// sortedKeys returns m's keys in sorted order (for stable rendering).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they are not checked on
// the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add applies a delta.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Package obs is the observability layer shared by every subsystem: a
// lock-cheap metrics registry (counters, gauges, bounded-bucket
// histograms), a structured event log built on log/slog, and one generic
// bounded ring (Ring) holding the recent events and spans for live
// introspection.
//
// The paper's argument is quantitative — Figure 1's msg-cost = α + β·|m|
// accounting and the (3+λ/K) / (6+2λ/K) competitive ratios — so a running
// system must expose the same numbers the analysis reasons about: per-op
// counts and latencies, gcast rounds, view changes, and the adaptive
// policy's join/leave decisions with the counter values that triggered
// them. Package obs carries those signals from the hot paths to the
// /metrics, /trace, and pprof endpoints served by Obs.ServeDebug (wired up
// by cmd/pasod's -debug-addr flag).
//
// An *Obs value bundles one registry, one event ring, one span store, and
// one logger. Layers receive it through their config (core.Config.Obs,
// tcp.Options.Obs) and must never see nil: constructors substitute Nop(),
// which records metrics and events but discards log output, so hot paths
// never branch on instrumentation being present.
package obs

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value attribute of a structured event.
type Attr struct {
	Key   string
	Value string
}

// KV builds an Attr, formatting the value with fmt.Sprint.
func KV(key string, value any) Attr {
	return Attr{Key: key, Value: fmt.Sprint(value)}
}

// Collector supplies derived metrics at scrape time (e.g. the per-OpKind
// cost aggregates a machine keeps in its own meter). Values are merged
// into /metrics output under the collector's metric names.
type Collector func() map[string]float64

// shared is the state an Obs and all its With-derived children point at.
type shared struct {
	reg    *Registry
	events *Ring[Event]
	spans  *SpanStore

	mu         sync.Mutex
	collectors map[string]Collector
	handlers   map[string]http.Handler
}

// Obs bundles a metrics registry, an event ring, a span store, and a
// structured logger. Derive per-machine or per-class views with With; all
// views share the same registry, rings, and collectors.
type Obs struct {
	sh   *shared
	log  *slog.Logger
	base []Attr
}

// Options configures New.
type Options struct {
	// Logger receives every Emit as a structured record. Nil discards.
	Logger *slog.Logger
	// TraceCap bounds the event ring. Default 1024.
	TraceCap int
	// SpanCap bounds the operation span ring. Default 4096.
	SpanCap int
}

// New builds an Obs with a fresh registry and rings.
func New(opts Options) *Obs {
	if opts.TraceCap <= 0 {
		opts.TraceCap = 1024
	}
	if opts.SpanCap <= 0 {
		opts.SpanCap = 4096
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(discardHandler{})
	}
	events := NewRing[Event](opts.TraceCap)
	events.stamp = func(e *Event, seq uint64) { e.Seq = seq }
	return &Obs{
		sh: &shared{
			reg:        NewRegistry(),
			events:     events,
			spans:      NewSpanStore(opts.SpanCap),
			collectors: make(map[string]Collector),
			handlers:   make(map[string]http.Handler),
		},
		log: log,
	}
}

// Nop returns an Obs that records metrics and events but logs nowhere. It
// is what layers substitute for a nil Obs so instrumented code never
// nil-checks. Its rings grow on use, so an idle Nop holds no slots.
func Nop() *Obs { return New(Options{TraceCap: 64, SpanCap: 1024}) }

// With derives a view that stamps the given attributes on every event it
// emits (and on its slog records). The registry, rings, and collectors are
// shared with the parent.
func (o *Obs) With(attrs ...Attr) *Obs {
	args := make([]any, 0, len(attrs)*2)
	for _, a := range attrs {
		args = append(args, a.Key, a.Value)
	}
	return &Obs{
		sh:   o.sh,
		log:  o.log.With(args...),
		base: append(append([]Attr(nil), o.base...), attrs...),
	}
}

// Reg returns the metrics registry.
func (o *Obs) Reg() *Registry { return o.sh.reg }

// Logger returns the view's slog logger (with its base attributes applied).
func (o *Obs) Logger() *slog.Logger { return o.log }

// Events returns the event ring: the one timeline of view changes, policy
// decisions, peer edges and ownership edges.
func (o *Obs) Events() *Ring[Event] { return o.sh.events }

// Spans returns the operation span store.
func (o *Obs) Spans() *SpanStore { return o.sh.spans }

// Counter is shorthand for Reg().Counter.
func (o *Obs) Counter(name string) *Counter { return o.sh.reg.Counter(name) }

// Gauge is shorthand for Reg().Gauge.
func (o *Obs) Gauge(name string) *Gauge { return o.sh.reg.Gauge(name) }

// Series is shorthand for Reg().Series.
func (o *Obs) Series(tmpl, value string) string { return o.sh.reg.Series(tmpl, value) }

// Histogram is shorthand for Reg().Histogram.
func (o *Obs) Histogram(name string) *Histogram { return o.sh.reg.Histogram(name) }

// Emit records a structured event: it is appended to the event ring and
// logged through the slog logger with the view's base attributes. Emit is
// safe from any goroutine, never blocks on consumers, and is cheap enough
// for protocol event paths (view changes, policy decisions, peer up/down)
// — though not for per-message hot paths, which use counters instead.
func (o *Obs) Emit(kind string, attrs ...Attr) {
	all := attrs
	if len(o.base) > 0 {
		all = make([]Attr, 0, len(o.base)+len(attrs))
		all = append(all, o.base...)
		all = append(all, attrs...)
	}
	o.sh.events.Add(Event{Time: time.Now(), Kind: kind, Attrs: all})
	if o.log.Enabled(context.Background(), slog.LevelInfo) {
		args := make([]any, 0, len(attrs)*2)
		for _, a := range attrs {
			args = append(args, a.Key, a.Value)
		}
		o.log.Info(kind, args...)
	}
}

// Handle registers (or replaces) an extra debug endpoint mounted by
// Handler under the given mux pattern — how subsystems built on top of
// obs (the flight recorder's /timeseries, /flight, /placement) surface
// themselves on the same debug listener. Register before ServeDebug;
// handlers added later only appear on muxes built afterwards.
func (o *Obs) Handle(pattern string, h http.Handler) {
	o.sh.mu.Lock()
	defer o.sh.mu.Unlock()
	o.sh.handlers[pattern] = h
}

// AddCollector registers (or replaces) a named scrape-time metrics source.
func (o *Obs) AddCollector(name string, c Collector) {
	o.sh.mu.Lock()
	defer o.sh.mu.Unlock()
	o.sh.collectors[name] = c
}

// Collect runs every registered collector and merges the results. Metric
// names colliding across collectors keep the last value (names are
// expected to be disjoint).
func (o *Obs) Collect() map[string]float64 {
	o.sh.mu.Lock()
	cs := make([]Collector, 0, len(o.sh.collectors))
	names := make([]string, 0, len(o.sh.collectors))
	for n := range o.sh.collectors {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cs = append(cs, o.sh.collectors[n])
	}
	o.sh.mu.Unlock()
	out := make(map[string]float64)
	for _, c := range cs {
		for k, v := range c() {
			out[k] = v
		}
	}
	return out
}

// discardHandler is a slog.Handler that drops everything (slog.DiscardHandler
// arrived in go1.24; the module targets go1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

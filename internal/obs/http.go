package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"paso/internal/cost"
)

// Handler returns the debug mux:
//
//	/metrics        registry + collector metrics in Prometheus text
//	                exposition format (histograms as cumulative le-bucket
//	                series); ?format=json still returns the JSON shape
//	/metrics.json   the same metrics as JSON (counters, gauges, histogram
//	                snapshots with quantiles and non-empty buckets)
//	/trace          the recent event ring as JSON (?n= limits, ?kind= filters)
//	/trace/ops      recent traced operations (root spans); with ?id=<hex
//	                trace ID> the trace's local spans plus the assembled
//	                causal timeline with §3.3 cost attribution
//	/healthz        200 ok
//	/debug/pprof/   the standard net/http/pprof handlers
//
// plus whatever extra endpoints were registered with Handle (pasod mounts
// the flight recorder's /timeseries, /flight, and /placement this way).
func (o *Obs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/metrics.json", o.handleMetricsJSON)
	mux.HandleFunc("/trace", o.handleTrace)
	mux.HandleFunc("/trace/ops", o.handleTraceOps)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	o.sh.mu.Lock()
	for pattern, h := range o.sh.handlers {
		mux.Handle(pattern, h)
	}
	o.sh.mu.Unlock()
	return mux
}

// DebugServer is a running debug HTTP listener.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts the debug endpoints on addr (use ":0" for an ephemeral
// port; Addr reports the actual one).
func (o *Obs) ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the listener's address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }

// metricsPayload is the JSON shape of /metrics.
type metricsPayload struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Derived    map[string]float64      `json:"derived,omitempty"`
}

func (o *Obs) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsJSON(r) {
		o.handleMetricsJSON(w, r)
		return
	}
	snap := o.sh.reg.Snapshot()
	derived := o.Collect()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writePrometheus(w, snap, derived, o.sh.reg.labelsCopy())
}

func (o *Obs) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	snap := o.sh.reg.Snapshot()
	derived := o.Collect()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(metricsPayload{
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
		Derived:    derived,
	})
}

func wantsJSON(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus", "text":
		return false
	case "json":
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "application/json")
}

// promKey is one registry name as a Prometheus series: the metric name and,
// for a labeled family (Registry.Series), its `key="escaped value"` pair.
type promKey struct{ name, pn, labels string }

// promSeries maps registry names onto Prometheus series, sorted by metric
// name so each family's series are contiguous, as the format requires. A
// labeled series renders as family{key="value"}, escaped per the exposition
// format, so hostile class names (quotes, backslashes, newlines) stay valid
// text and class IDs that sanitize alike ("a.b/1", "a_b/1") stay distinct.
func promSeries(names []string, labels map[string]label) []promKey {
	out := make([]promKey, 0, len(names))
	for _, name := range names {
		k := promKey{name: name, pn: promName(name)}
		if l, ok := labels[name]; ok {
			k.pn, k.labels = promName(l.family), l.key+`="`+promLabel(l.value)+`"`
		}
		out = append(out, k)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].pn < out[j].pn })
	return out
}

// writePrometheus renders the exposition text format. Histograms are
// rendered as native Prometheus histograms: a cumulative `le` bucket
// series over the non-empty log buckets plus the mandatory `+Inf` bucket,
// `_sum`, and `_count` — lossless with respect to the registry snapshot,
// so a scraper (or a test) can reconstruct every bucket count exactly.
// Labeled families render as one metric with a label per series; a # TYPE
// line is emitted once per metric name.
func writePrometheus(w http.ResponseWriter, snap RegistrySnapshot, derived map[string]float64, labels map[string]label) {
	typed := make(map[string]bool)
	typeLine := func(pn, kind string) {
		if !typed[pn] {
			typed[pn] = true
			fmt.Fprintf(w, "# TYPE %s %s\n", pn, kind)
		}
	}
	brace := func(labels string) string {
		if labels == "" {
			return ""
		}
		return "{" + labels + "}"
	}
	for _, k := range promSeries(sortedKeys(snap.Counters), labels) {
		typeLine(k.pn, "counter")
		fmt.Fprintf(w, "%s%s %d\n", k.pn, brace(k.labels), snap.Counters[k.name])
	}
	for _, k := range promSeries(sortedKeys(snap.Gauges), labels) {
		typeLine(k.pn, "gauge")
		fmt.Fprintf(w, "%s%s %d\n", k.pn, brace(k.labels), snap.Gauges[k.name])
	}
	for _, k := range promSeries(sortedKeys(snap.Histograms), labels) {
		h := snap.Histograms[k.name]
		le := `le=`
		if k.labels != "" {
			le = k.labels + `,le=`
		}
		typeLine(k.pn, "histogram")
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{%s\"%s\"} %d\n", k.pn, le, promFloat(b.Upper), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s\"+Inf\"} %d\n", k.pn, le, h.Count)
		fmt.Fprintf(w, "%s_sum%s %s\n", k.pn, brace(k.labels), promFloat(h.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", k.pn, brace(k.labels), h.Count)
	}
	for _, k := range promSeries(sortedKeys(derived), labels) {
		typeLine(k.pn, "gauge")
		fmt.Fprintf(w, "%s%s %s\n", k.pn, brace(k.labels), promFloat(derived[k.name]))
	}
}

// promLabel escapes a label value per the text exposition format: inside
// double quotes, backslash, the double quote, and newline must be escaped
// (and a raw carriage return would also break the line-oriented format,
// so it is escaped the same way).
func promLabel(v string) string {
	var sb strings.Builder
	sb.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// promName sanitizes a dotted metric name into the Prometheus charset.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			sb.WriteByte('_')
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (o *Obs) handleTrace(w http.ResponseWriter, r *http.Request) {
	n := -1
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 0 {
			n = v
		}
	}
	// Filter before limiting: ownership edges share the ring with every
	// other kind, so ?kind=ownership&n=20 means the last 20 edges.
	events := o.sh.events.Snapshot()
	if kind := r.URL.Query().Get("kind"); kind != "" {
		kept := events[:0]
		for _, e := range events {
			if e.Kind == kind {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if n >= 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Total    uint64  `json:"total"`
		Capacity int     `json:"capacity"`
		Events   []Event `json:"events"`
	}{Total: o.sh.events.Total(), Capacity: o.sh.events.Cap(), Events: events})
}

// ParseTraceID parses a trace/span ID as rendered by the tracing surfaces
// (16 hex digits, optional 0x prefix).
func ParseTraceID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q (want hex): %w", s, err)
	}
	return id, nil
}

// opListEntry is one traced operation in the /trace/ops index.
type opListEntry struct {
	Span
	// TraceHex is the trace ID as `pasoctl trace` takes it.
	TraceHex string `json:"trace_hex"`
}

func (o *Obs) handleTraceOps(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := ParseTraceID(idStr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spans := o.sh.spans.ByTrace(id)
		asm := Assemble(id, spans, cost.DefaultModel())
		_ = enc.Encode(struct {
			Trace     uint64  `json:"trace"`
			TraceHex  string  `json:"trace_hex"`
			Spans     []Span  `json:"spans"`
			Assembled OpTrace `json:"assembled"`
			Text      string  `json:"text"`
		}{Trace: id, TraceHex: fmt.Sprintf("%016x", id), Spans: spans, Assembled: asm, Text: asm.Render()})
		return
	}
	n := 32
	if s := r.URL.Query().Get("n"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	roots := o.sh.spans.Roots(n)
	ops := make([]opListEntry, 0, len(roots))
	for _, s := range roots {
		ops = append(ops, opListEntry{Span: s, TraceHex: fmt.Sprintf("%016x", s.Trace)})
	}
	_ = enc.Encode(struct {
		Total    uint64        `json:"total"`
		Capacity int           `json:"capacity"`
		Ops      []opListEntry `json:"ops"`
	}{Total: o.sh.spans.Total(), Capacity: o.sh.spans.Cap(), Ops: ops})
}

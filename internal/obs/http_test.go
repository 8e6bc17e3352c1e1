package obs

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func testObs(t *testing.T) *Obs {
	t.Helper()
	o := New(Options{TraceCap: 16})
	o.Counter("transport.msgs.sent").Add(42)
	o.Gauge("transport.peers.up").Set(3)
	h := o.Histogram("core.op.insert.latency.seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	o.AddCollector("derived", func() map[string]float64 {
		return map[string]float64{"core.op.insert.count": 100}
	})
	o.Emit("view-change", KV("group", "point"), KV("event", "join"))
	o.Emit("policy-join", KV("class", "task"), KV("counter", 8))
	return o
}

func TestMetricsJSON(t *testing.T) {
	o := testObs(t)
	for _, url := range []string{"/metrics.json", "/metrics?format=json"} {
		rec := httptest.NewRecorder()
		o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status = %d", url, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("%s: content-type = %q", url, ct)
		}
		var got metricsPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("%s: bad JSON: %v", url, err)
		}
		if got.Counters["transport.msgs.sent"] != 42 {
			t.Errorf("%s: counter = %d", url, got.Counters["transport.msgs.sent"])
		}
		if got.Gauges["transport.peers.up"] != 3 {
			t.Errorf("%s: gauge = %d", url, got.Gauges["transport.peers.up"])
		}
		h := got.Histograms["core.op.insert.latency.seconds"]
		if h.Count != 100 || h.P50 <= 0 || h.P99 < h.P50 || h.P999 < h.P99 {
			t.Errorf("%s: histogram = %+v", url, h)
		}
		if len(h.Buckets) == 0 {
			t.Errorf("%s: histogram snapshot has no buckets", url)
		}
		if got.Derived["core.op.insert.count"] != 100 {
			t.Errorf("%s: derived = %v", url, got.Derived)
		}
	}
}

func TestMetricsPrometheus(t *testing.T) {
	o := testObs(t)
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/metrics", nil),
		httptest.NewRequest("GET", "/metrics?format=prometheus", nil),
		func() *http.Request {
			r := httptest.NewRequest("GET", "/metrics", nil)
			r.Header.Set("Accept", "text/plain")
			return r
		}(),
	} {
		rec := httptest.NewRecorder()
		o.Handler().ServeHTTP(rec, req)
		body := rec.Body.String()
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Errorf("content-type = %q", ct)
		}
		for _, want := range []string{
			"# TYPE transport_msgs_sent counter",
			"transport_msgs_sent 42",
			"# TYPE transport_peers_up gauge",
			"transport_peers_up 3",
			"# TYPE core_op_insert_latency_seconds histogram",
			`core_op_insert_latency_seconds_bucket{le="+Inf"} 100`,
			"core_op_insert_latency_seconds_count 100",
			"# TYPE core_op_insert_count gauge",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("prometheus output missing %q\n%s", want, body)
			}
		}
	}
}

// parsePromHistogram extracts one histogram's cumulative buckets, sum, and
// count from exposition text the way a scraper would.
func parsePromHistogram(t *testing.T, text, name string) (les []float64, cums []uint64, sum float64, count uint64) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
			i := strings.Index(rest, "\"}")
			if i < 0 {
				t.Fatalf("malformed bucket line %q", line)
			}
			leStr, cntStr := rest[:i], strings.TrimSpace(rest[i+2:])
			c, err := strconv.ParseUint(cntStr, 10, 64)
			if err != nil {
				t.Fatalf("bad bucket count in %q: %v", line, err)
			}
			if leStr == "+Inf" {
				les = append(les, 0) // marker; +Inf checked via count below
				cums = append(cums, c)
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			les = append(les, le)
			cums = append(cums, c)
		case strings.HasPrefix(line, name+"_sum "):
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+"_sum "), 64)
			if err != nil {
				t.Fatalf("bad sum line %q: %v", line, err)
			}
			sum = v
		case strings.HasPrefix(line, name+"_count "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, name+"_count "), 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			count = v
		}
	}
	return les, cums, sum, count
}

// TestMetricsPrometheusLossless scrapes /metrics and reconstructs the
// histogram's per-bucket counts from the cumulative le series; they must
// match the registry snapshot exactly — the exposition loses nothing.
func TestMetricsPrometheusLossless(t *testing.T) {
	o := testObs(t)
	snap := o.sh.reg.Snapshot()
	want := snap.Histograms["core.op.insert.latency.seconds"]

	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	les, cums, sum, count := parsePromHistogram(t, rec.Body.String(), "core_op_insert_latency_seconds")

	if count != want.Count {
		t.Fatalf("scraped count = %d, want %d", count, want.Count)
	}
	if sum != want.Sum {
		t.Errorf("scraped sum = %v, want %v (must round-trip exactly)", sum, want.Sum)
	}
	// The last series is +Inf; the finite ones must match the snapshot's
	// non-empty buckets one-for-one after de-cumulating.
	if len(les) != len(want.Buckets)+1 {
		t.Fatalf("scraped %d bucket series, want %d non-empty + Inf", len(les), len(want.Buckets))
	}
	if cums[len(cums)-1] != want.Count {
		t.Errorf("+Inf bucket = %d, want total %d", cums[len(cums)-1], want.Count)
	}
	var prev uint64
	for i, b := range want.Buckets {
		if les[i] != b.Upper {
			t.Errorf("bucket %d: le = %v, want upper %v (must round-trip exactly)", i, les[i], b.Upper)
		}
		if got := cums[i] - prev; got != b.Count {
			t.Errorf("bucket %d: de-cumulated count = %d, want %d", i, got, b.Count)
		}
		prev = cums[i]
	}
}

// TestPrometheusGolden pins the exact exposition text for a small fixed
// registry, so any accidental format change (ordering, label quoting,
// float rendering) fails loudly.
func TestPrometheusGolden(t *testing.T) {
	o := New(Options{})
	o.Counter("a.count").Add(7)
	o.Gauge("b.depth").Set(-2)
	h := o.Histogram("c.latency.seconds")
	h.Observe(1e-10) // bucket 0 (≤ min bound)
	h.Observe(1.0)
	h.Observe(1.0)

	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	// 1.0 lands in the bucket whose upper bound is the first power of
	// 2^(1/16) at or above 1/1e-9.
	up := bucketUpper(bucketIndex(1.0))
	want := strings.Join([]string{
		"# TYPE a_count counter",
		"a_count 7",
		"# TYPE b_depth gauge",
		"b_depth -2",
		"# TYPE c_latency_seconds histogram",
		`c_latency_seconds_bucket{le="1e-09"} 1`,
		`c_latency_seconds_bucket{le="` + promFloat(up) + `"} 3`,
		`c_latency_seconds_bucket{le="+Inf"} 3`,
		"c_latency_seconds_sum 2.0000000001",
		"c_latency_seconds_count 3",
		"",
	}, "\n")
	if got := rec.Body.String(); got != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrometheusHostileLabels pins the exact exposition for labeled
// family metrics whose label value carries every byte the text format must
// escape. Class names are arbitrary strings, so a group like
// `wg/ev"il\cls` with embedded newlines must come out as a quoted label
// value with `\"`, `\\`, `\n`, `\r` escapes — one line per series, never a
// broken line. Class IDs that sanitize to the same metric name ("a.b/1",
// "a_b/1") must stay two series of one family, not one duplicated name.
func TestPrometheusHostileLabels(t *testing.T) {
	o := New(Options{})
	hostile := "wg/ev\"il\\cls\nx\r/0"
	const esc = `wg/ev\"il\\cls\nx\r/0`
	o.Gauge(o.Series("vsync.coord.backlog.{group}", hostile)).Set(5)
	o.Gauge(o.Series("vsync.coord.backlog.{group}", "wg/ok/1")).Set(7)
	o.Histogram(o.Series("vsync.order.seconds.{group}", hostile)).Observe(1e-10)
	o.Counter(o.Series("core.read.leased.{class}", "a.b/1")).Add(2)
	o.Counter(o.Series("core.read.leased.{class}", "a_b/1")).Add(3)

	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	want := strings.Join([]string{
		"# TYPE core_read_leased counter",
		`core_read_leased{class="a.b/1"} 2`,
		`core_read_leased{class="a_b/1"} 3`,
		"# TYPE vsync_coord_backlog gauge",
		`vsync_coord_backlog{group="` + esc + `"} 5`,
		`vsync_coord_backlog{group="wg/ok/1"} 7`,
		"# TYPE vsync_order_seconds histogram",
		`vsync_order_seconds_bucket{group="` + esc + `",le="1e-09"} 1`,
		`vsync_order_seconds_bucket{group="` + esc + `",le="+Inf"} 1`,
		`vsync_order_seconds_sum{group="` + esc + `"} 1e-10`,
		`vsync_order_seconds_count{group="` + esc + `"} 1`,
		"",
	}, "\n")
	got := rec.Body.String()
	if got != want {
		t.Errorf("hostile-label golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Belt and braces: the raw newline in the group name must not have
	// produced extra exposition lines.
	if n := strings.Count(got, "\n"); n != strings.Count(want, "\n") {
		t.Errorf("exposition has %d lines, want %d — a label value leaked a raw newline", n, strings.Count(want, "\n"))
	}
	// The flat registry names are unchanged by the label declaration.
	snap := o.Reg().Snapshot()
	if snap.Gauges["vsync.coord.backlog.wg/ok/1"] != 7 || snap.Counters["core.read.leased.a.b/1"] != 2 {
		t.Errorf("flat names moved: %v %v", snap.Gauges, snap.Counters)
	}
}

// TestSeriesFamilies: the family is the template minus its placeholder's
// dot-segment, wherever that segment sits.
func TestSeriesFamilies(t *testing.T) {
	r := NewRegistry()
	for tmpl, want := range map[string]label{
		"vsync.order.seconds.{group}":    {"vsync.order.seconds", "group", "wg/x"},
		"transport.sendq.depth.p{peer}":  {"transport.sendq.depth", "peer", "wg/x"},
		"core.op.{kind}.latency.seconds": {"core.op.latency.seconds", "kind", "wg/x"},
	} {
		name := r.Series(tmpl, "wg/x")
		if got := r.labelsCopy()[name]; got != want {
			t.Errorf("Series(%q) = %q labeled %+v, want %+v", tmpl, name, got, want)
		}
	}
	if name := r.Series("transport.sendq.hwm.p{peer}", "3"); name != "transport.sendq.hwm.p3" {
		t.Errorf("flat name = %q", name)
	}
}

func TestPromName(t *testing.T) {
	tests := map[string]string{
		"transport.msgs.sent":              "transport_msgs_sent",
		"core.op.read&del.latency.seconds": "core_op_read_del_latency_seconds",
		"9lives":                           "_lives",
		"a:b_c":                            "a:b_c",
	}
	for in, want := range tests {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	o := testObs(t)
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var got struct {
		Total    uint64  `json:"total"`
		Capacity int     `json:"capacity"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if got.Total != 2 || got.Capacity != 16 || len(got.Events) != 2 {
		t.Errorf("trace = %+v", got)
	}
	if got.Events[0].Kind != "view-change" {
		t.Errorf("first event = %+v", got.Events[0])
	}

	// ?kind= filters, ?n= limits.
	rec = httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?kind=policy-join", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != "policy-join" {
		t.Errorf("filtered events = %+v", got.Events)
	}
	rec = httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?n=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != "policy-join" {
		t.Errorf("limited events = %+v", got.Events)
	}
	// ?kind= filters before ?n= limits: the newest view change, though it
	// is not among the newest events.
	rec = httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/trace?kind=view-change&n=1", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got.Events) != 1 || got.Events[0].Kind != "view-change" {
		t.Errorf("filtered then limited events = %+v", got.Events)
	}
}

func TestHealthz(t *testing.T) {
	o := New(Options{})
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestServeDebug(t *testing.T) {
	o := testObs(t)
	d, err := o.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	var got metricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if got.Counters["transport.msgs.sent"] != 42 {
		t.Errorf("counter over HTTP = %d", got.Counters["transport.msgs.sent"])
	}
}

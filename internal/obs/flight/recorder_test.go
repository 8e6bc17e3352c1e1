package flight

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"paso/internal/obs"
)

// testRecorder wires a sampler and recorder over one obs instance with
// deterministic clocks and profiles off.
func testRecorder(t *testing.T, opts RecorderOptions) (*obs.Obs, *Sampler, *Recorder, *stepClock) {
	t.Helper()
	o := obs.Nop()
	clk := newStepClock(time.Second)
	s := NewSampler(o.Reg(), SamplerOptions{Interval: time.Second, Now: clk.Now})
	opts.Dir = t.TempDir()
	opts.Obs = o
	opts.Sampler = s
	opts.NoProfiles = true
	opts.Now = clk.Now
	return o, s, NewRecorder(opts), clk
}

func TestRecorderRuleIncreaseFires(t *testing.T) {
	o, s, r, _ := testRecorder(t, RecorderOptions{})
	stalls := o.Counter("transport.send.stalls")

	s.SampleNow() // baseline frame, nothing moves
	stalls.Inc()
	s.SampleNow() // stall episode: send-stall rule must fire

	bundles, err := ListBundles(r.opts.Dir)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("bundles = %v (err %v), want exactly 1", bundles, err)
	}
	if bundles[0].Trigger != "send-stall" {
		t.Fatalf("trigger = %q, want send-stall", bundles[0].Trigger)
	}
	if o.Counter("flight.bundles.written").Value() != 1 {
		t.Fatal("flight.bundles.written not incremented")
	}
}

func TestRecorderRuleAboveIsEdgeTriggered(t *testing.T) {
	o, s, r, clk := testRecorder(t, RecorderOptions{})
	backlog := o.Gauge("vsync.coord.backlog")

	// Every sample lands past the rate limit, so only edge triggering
	// keeps the still-above frame from firing.
	backlog.Set(2000) // above the default 1024 HWM
	s.SampleNow()     // crossing: fires
	clk.advance(minInterval)
	s.SampleNow() // still above: must NOT re-fire
	backlog.Set(10)
	clk.advance(minInterval)
	s.SampleNow() // cleared: re-arms
	backlog.Set(3000)
	clk.advance(minInterval)
	s.SampleNow() // second crossing: fires again

	bundles, err := ListBundles(r.opts.Dir)
	if err != nil || len(bundles) != 2 {
		t.Fatalf("bundles = %d (err %v), want 2 (edge-triggered)", len(bundles), err)
	}
	if n := o.Counter("flight.triggers.suppressed").Value(); n != 0 {
		t.Fatalf("flight.triggers.suppressed = %d, want 0: a still-above frame tried to fire", n)
	}
}

func TestRecorderRateLimit(t *testing.T) {
	o, s, r, _ := testRecorder(t, RecorderOptions{})
	stalls := o.Counter("transport.send.stalls")

	s.SampleNow()
	stalls.Inc()
	s.SampleNow() // fires
	stalls.Inc()
	s.SampleNow() // 1s later: suppressed by the 30s minInterval

	bundles, _ := ListBundles(r.opts.Dir)
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d, want 1 (second fire rate-limited)", len(bundles))
	}
	if o.Counter("flight.triggers.suppressed").Value() != 1 {
		t.Fatal("suppressed trigger not counted")
	}
}

func TestRecorderCaptureBundleContents(t *testing.T) {
	o, s, r, _ := testRecorder(t, RecorderOptions{
		Placement: func() any { return map[string]int{"wg/a/0": 1} },
	})
	o.Emit(obs.KindOwnership, obs.KV("group", "wg/a/0"), obs.KV("epoch", 1), obs.KV("owner", 1), obs.KV("kind", obs.OwnFresh))
	o.Emit("test-event", obs.KV("k", "v"))
	o.Counter("some.counter").Add(3)
	s.SampleNow()

	id, err := r.Trigger("manual", "test capture")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}

	m, err := LoadManifest(r.opts.Dir, id)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	want := []string{"events.json", "spans.json", "timeseries.json", "placement.json"}
	if len(m.Files) != len(want) {
		t.Fatalf("files = %v, want %v (NoProfiles)", m.Files, want)
	}
	for i, f := range want {
		if m.Files[i] != f {
			t.Fatalf("files = %v, want %v", m.Files, want)
		}
		if _, err := os.Stat(filepath.Join(r.opts.Dir, id, f)); err != nil {
			t.Fatalf("bundle file %s missing: %v", f, err)
		}
	}
	if m.Events < 1 || m.Series < 1 || len(m.Ownership) != 1 {
		t.Fatalf("manifest counts events=%d series=%d ownership=%d, want all nonzero",
			m.Events, m.Series, len(m.Ownership))
	}
	if m.Fingerprint == "" {
		t.Fatal("manifest has no fingerprint")
	}
	// The .tmp staging directory must be gone after the atomic rename.
	if _, err := os.Stat(filepath.Join(r.opts.Dir, id+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("staging directory survived capture: %v", err)
	}
}

func TestRecorderEvictsOldBundles(t *testing.T) {
	_, _, r, _ := testRecorder(t, RecorderOptions{})
	for i := 0; i < maxBundles+2; i++ {
		if _, err := r.Trigger("manual", "evict test"); err != nil {
			t.Fatalf("Trigger %d: %v", i, err)
		}
	}
	bundles, err := ListBundles(r.opts.Dir)
	if err != nil || len(bundles) != maxBundles {
		t.Fatalf("bundles = %d (err %v), want %d after eviction", len(bundles), err, maxBundles)
	}
	first, last := bundles[0].ID, bundles[len(bundles)-1].ID
	if want := fmt.Sprintf("b%04d-manual", maxBundles+2); first != "b0003-manual" || last != want {
		t.Fatalf("survivors = %s..%s; want b0003-manual..%s, the newest", first, last, want)
	}
}

func TestRecorderHandlerServesOnlyBundleFiles(t *testing.T) {
	_, _, r, _ := testRecorder(t, RecorderOptions{})
	id, err := r.Trigger("manual", "handler test")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(q string) int {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(""); code != http.StatusOK {
		t.Fatalf("index status = %d", code)
	}
	if code := get("?id=" + id); code != http.StatusOK {
		t.Fatalf("manifest status = %d", code)
	}
	if code := get("?id=" + id + "&file=events.json"); code != http.StatusOK {
		t.Fatalf("file status = %d", code)
	}
	// sanitizeID guards the write side; the read side must refuse path
	// separators in the id and names the manifest does not list.
	if code := get("?id=..%2Fsecret"); code != http.StatusBadRequest {
		t.Fatalf("traversal id status = %d, want 400", code)
	}
	if code := get("?id=" + id + "&file=..%2F..%2Fetc%2Fpasswd"); code != http.StatusNotFound {
		t.Fatalf("unlisted file status = %d, want 404", code)
	}
}

func TestSanitizeID(t *testing.T) {
	cases := map[string]string{
		"coord-backlog": "coord-backlog",
		"a/b c":         "a_b_c",
		"":              "manual",
		"UPPER_09":      "UPPER_09",
	}
	for in, want := range cases {
		if got := sanitizeID(in); got != want {
			t.Errorf("sanitizeID(%q) = %q, want %q", in, got, want)
		}
	}
}

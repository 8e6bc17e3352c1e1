package flight

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"paso/internal/obs"
)

// ruleKind selects how a trigger rule reads its series.
type ruleKind string

const (
	// ruleIncrease fires when the matched series' values grew by at least
	// threshold between two consecutive samples — the shape of episodic
	// counters (send-stall episodes, λ−k+1 margin violations).
	ruleIncrease ruleKind = "increase"
	// ruleAbove fires when any matched series crosses threshold from
	// below — the shape of watermark gauges (coordinator backlog) and
	// all-time maxima (takeover duration).
	ruleAbove ruleKind = "above"
)

// rule is one armed trigger: it watches every flattened series whose name
// starts with prefix and fires per kind. Rules are evaluated on every
// sampler frame, so detection latency is one sampling interval.
type rule struct {
	// name identifies the rule in manifests and bundle IDs (unique,
	// filesystem-safe).
	name string
	// prefix selects the series (exact names match their own prefix);
	// suffix, when set, additionally requires the name to end with it —
	// how a rule targets one derived series of a per-group histogram
	// family ("vsync.takeover.seconds.<group>.max_us").
	prefix, suffix string
	kind           ruleKind
	// threshold: minimum per-sample increase (ruleIncrease) or the level
	// to cross (ruleAbove). Histogram-derived *_us series are in
	// microseconds.
	threshold int64
}

// rules are the four anomaly triggers the tree has signals for: send-stall
// episodes, coordinator backlog reaching 1024 queued casts, a takeover
// recovery running 2s or longer, and the λ−k+1 fault-tolerance margin
// hitting zero (a recorded violation).
var rules = []rule{
	{name: "send-stall", prefix: "transport.send.stalls", kind: ruleIncrease, threshold: 1},
	{name: "coord-backlog", prefix: "vsync.coord.backlog", kind: ruleAbove, threshold: 1024},
	{name: "slow-takeover", prefix: "vsync.takeover.seconds", suffix: seriesMax, kind: ruleAbove, threshold: (2 * time.Second).Microseconds()},
	{name: "ftc-margin", prefix: "core.ftc.violations", kind: ruleIncrease, threshold: 1},
}

// Capture bounds. A bundle keeps the newest bundleEvents event-ring entries;
// triggers firing within minInterval of the previous capture are counted
// and dropped; the directory keeps the newest maxBundles bundles.
const (
	bundleEvents = 512
	minInterval  = 30 * time.Second
	maxBundles   = 16
)

// Manifest indexes one diagnostic bundle. Everything a reader needs to
// decide whether to fetch the bundle is here; Fingerprint covers only the
// run-deterministic fields (trigger, counts, ownership edges without
// wall-clock), so two seeded runs of the same scenario produce equal
// fingerprints even though their timestamps differ.
type Manifest struct {
	ID      string    `json:"id"`
	Trigger string    `json:"trigger"`
	Reason  string    `json:"reason,omitempty"`
	Time    time.Time `json:"time"`
	// WindowFrom/WindowTo bound the captured time-series window.
	WindowFrom time.Time `json:"window_from"`
	WindowTo   time.Time `json:"window_to"`
	// Events/Spans count the captured ring entries; the *Total fields are
	// the rings' lifetime totals (the difference is what the rings lost).
	Events      int    `json:"events"`
	EventsTotal uint64 `json:"events_total"`
	Spans       int    `json:"spans"`
	SpansTotal  uint64 `json:"spans_total"`
	// Series counts the time-series captured in the window.
	Series int `json:"series"`
	// Ownership is the per-class ownership timeline at capture time.
	Ownership []OwnershipEvent `json:"ownership,omitempty"`
	Files     []string         `json:"files"`
	// Fingerprint is a sha256 over the deterministic section (see above).
	Fingerprint string `json:"fingerprint"`
}

// fingerprint hashes the manifest's run-deterministic fields: the trigger
// name, ring counts, and the ownership timeline reduced to its logical
// edges (group, epoch, owner, kind). Wall-clock times and durations are
// excluded on purpose — they vary run to run even under a fixed seed.
func (m *Manifest) fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trigger=%s events=%d spans=%d series=%d\n", m.Trigger, m.Events, m.Spans, m.Series)
	for _, e := range m.Ownership {
		fmt.Fprintf(&sb, "own %s epoch=%d owner=%d kind=%s\n", e.Group, e.Epoch, e.Owner, e.Kind)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// RecorderOptions configures NewRecorder. Dir and Obs are required;
// everything else has a usable default.
type RecorderOptions struct {
	// Dir is the bundle directory; it is created on first capture.
	Dir string
	// Obs supplies the event ring (and the ownership timeline folded from
	// it), the span ring, and the registry the bundles capture.
	Obs *obs.Obs
	// Sampler supplies the time-series window; when non-nil the recorder
	// arms its rules on the sampler's frames via OnSample.
	Sampler *Sampler
	// Placement, when non-nil, is serialized into placement.json next to
	// the ownership timeline — pasod wires the placement policy's current
	// assignment here.
	Placement func() any
	// Window is how much time-series history each bundle captures,
	// ending at the trigger. Default 1m.
	Window time.Duration
	// NoProfiles skips the goroutine and heap profile files (tests that
	// compare bundles bit-for-bit use this; profiles are inherently
	// run-dependent).
	NoProfiles bool
	// Now overrides the clock (tests; deterministic bundles).
	Now func() time.Time
}

// Recorder is the flight recorder: it watches the armed rules on every
// sampler frame and captures a diagnostic bundle when one fires. All
// capture work happens on the sampler goroutine (or the Trigger caller) —
// never on a protocol path.
type Recorder struct {
	opts RecorderOptions

	mu       sync.Mutex
	seq      int
	lastFire time.Time
	fired    map[string]bool // ruleAbove edge state, keyed by rule name

	cBundles    *obs.Counter
	cSuppressed *obs.Counter
}

// NewRecorder builds a recorder and, when opts.Sampler is set, arms its
// rules on the sampler.
func NewRecorder(opts RecorderOptions) *Recorder {
	if opts.Obs == nil {
		opts.Obs = obs.Nop()
	}
	if opts.Window <= 0 {
		opts.Window = time.Minute
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	r := &Recorder{
		opts:        opts,
		fired:       make(map[string]bool),
		cBundles:    opts.Obs.Counter("flight.bundles.written"),
		cSuppressed: opts.Obs.Counter("flight.triggers.suppressed"),
	}
	if opts.Sampler != nil {
		opts.Sampler.OnSample(r.observe)
	}
	return r
}

// observe evaluates every armed rule against one sampler frame.
func (r *Recorder) observe(prev, cur map[string]int64, at time.Time) {
	for _, rl := range rules {
		if r.eval(rl, prev, cur) {
			r.fire(rl, at)
		}
	}
}

// eval applies one rule to a (prev, cur) frame pair.
func (r *Recorder) eval(rl rule, prev, cur map[string]int64) bool {
	match := func(name string) bool {
		return strings.HasPrefix(name, rl.prefix) &&
			(rl.suffix == "" || strings.HasSuffix(name, rl.suffix))
	}
	switch rl.kind {
	case ruleIncrease:
		var grew int64
		for name, v := range cur {
			if !match(name) {
				continue
			}
			if d := v - prev[name]; d > 0 {
				grew += d
			}
		}
		return grew >= rl.threshold
	case ruleAbove:
		above := false
		for name, v := range cur {
			if match(name) && v >= rl.threshold {
				above = true
				break
			}
		}
		// Edge-triggered: fire on the crossing, re-arm when it clears.
		r.mu.Lock()
		was := r.fired[rl.name]
		r.fired[rl.name] = above
		r.mu.Unlock()
		return above && !was
	}
	return false
}

// fire rate-limits and captures. Suppressed fires are counted.
func (r *Recorder) fire(rl rule, at time.Time) {
	r.mu.Lock()
	if !r.lastFire.IsZero() && at.Sub(r.lastFire) < minInterval {
		r.mu.Unlock()
		r.cSuppressed.Inc()
		return
	}
	r.lastFire = at
	r.mu.Unlock()
	if _, err := r.Capture(rl.name, fmt.Sprintf("rule %s on %s", rl.kind, rl.prefix)); err != nil {
		r.opts.Obs.Logger().Error("flight capture failed", "rule", rl.name, "err", err)
	}
}

// Trigger captures a bundle on demand (no rate limit) — the manual entry
// point for tests and operators. It returns the bundle ID.
func (r *Recorder) Trigger(name, reason string) (string, error) {
	return r.Capture(name, reason)
}

// Capture writes one bundle atomically: everything is assembled in a
// temporary directory that is renamed into place, so a reader never sees
// a partial bundle. The returned ID names the bundle's subdirectory.
func (r *Recorder) Capture(trigger, reason string) (string, error) {
	r.mu.Lock()
	r.seq++
	id := fmt.Sprintf("b%04d-%s", r.seq, sanitizeID(trigger))
	r.mu.Unlock()

	now := r.opts.Now()
	m := Manifest{
		ID:         id,
		Trigger:    trigger,
		Reason:     reason,
		Time:       now,
		WindowFrom: now.Add(-r.opts.Window),
		WindowTo:   now,
	}

	tmp := filepath.Join(r.opts.Dir, id+".tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)

	// Event and span rings. The ownership timeline is folded from the whole
	// event ring, not just the captured tail.
	all := r.opts.Obs.Events().Snapshot()
	events := all[max(len(all)-bundleEvents, 0):]
	m.Events = len(events)
	m.EventsTotal = r.opts.Obs.Events().Total()
	if err := writeJSON(filepath.Join(tmp, "events.json"), events); err != nil {
		return "", err
	}
	spans := r.opts.Obs.Spans().Snapshot()
	m.Spans = len(spans)
	m.SpansTotal = r.opts.Obs.Spans().Total()
	if err := writeJSON(filepath.Join(tmp, "spans.json"), spans); err != nil {
		return "", err
	}
	m.Files = append(m.Files, "events.json", "spans.json")

	// Time-series window around the trigger.
	if r.opts.Sampler != nil {
		series := r.opts.Sampler.Window(m.WindowFrom, m.WindowTo, "")
		m.Series = len(series)
		if err := writeJSON(filepath.Join(tmp, "timeseries.json"), series); err != nil {
			return "", err
		}
		m.Files = append(m.Files, "timeseries.json")
	}

	// Placement: ownership timeline plus the current assignment.
	p := placementDump{Ownership: Ownership(all)}
	m.Ownership = p.Ownership
	if r.opts.Placement != nil {
		p.Assignment = r.opts.Placement()
	}
	if err := writeJSON(filepath.Join(tmp, "placement.json"), p); err != nil {
		return "", err
	}
	m.Files = append(m.Files, "placement.json")

	// Runtime profiles.
	if !r.opts.NoProfiles {
		if err := writeProfile(filepath.Join(tmp, "goroutines.txt"), "goroutine", 1); err != nil {
			return "", err
		}
		if err := writeProfile(filepath.Join(tmp, "heap.pprof"), "heap", 0); err != nil {
			return "", err
		}
		m.Files = append(m.Files, "goroutines.txt", "heap.pprof")
	}

	m.Fingerprint = m.fingerprint()
	if err := writeJSON(filepath.Join(tmp, "manifest.json"), &m); err != nil {
		return "", err
	}

	final := filepath.Join(r.opts.Dir, id)
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	r.cBundles.Inc()
	r.opts.Obs.Emit("flight-bundle", obs.KV("id", id), obs.KV("trigger", trigger))
	r.evict()
	return id, nil
}

// placementDump is the placement.json shape.
type placementDump struct {
	Ownership  []OwnershipEvent `json:"ownership,omitempty"`
	Assignment any              `json:"assignment,omitempty"`
}

// evict removes the oldest bundles past maxBundles (IDs sort by their
// zero-padded sequence prefix, so lexical order is capture order).
func (r *Recorder) evict() {
	ids, err := bundleIDs(r.opts.Dir)
	if err != nil {
		return
	}
	for len(ids) > maxBundles {
		os.RemoveAll(filepath.Join(r.opts.Dir, ids[0]))
		ids = ids[1:]
	}
}

// ListBundles reads every bundle manifest under dir, capture order. A
// missing directory is an empty list, not an error.
func ListBundles(dir string) ([]Manifest, error) {
	ids, err := bundleIDs(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	out := make([]Manifest, 0, len(ids))
	for _, id := range ids {
		m, err := LoadManifest(dir, id)
		if err != nil {
			continue // half-evicted or foreign directory; skip
		}
		out = append(out, *m)
	}
	return out, nil
}

// LoadManifest reads one bundle's manifest.
func LoadManifest(dir, id string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, id, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("bundle %s: %w", id, err)
	}
	return &m, nil
}

// bundleIDs lists dir's bundle subdirectories in capture (lexical) order,
// skipping in-flight .tmp staging directories.
func bundleIDs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() && strings.HasPrefix(e.Name(), "b") && !strings.HasSuffix(e.Name(), ".tmp") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// writeJSON writes v as indented JSON (HTML escaping off, so group names
// like "wg/job/2" stay readable).
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeProfile dumps one runtime/pprof profile.
func writeProfile(path, name string, debug int) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("no %s profile", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteTo(f, debug); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitizeID maps a trigger name to a filesystem-safe bundle ID suffix.
func sanitizeID(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteRune('_')
		}
	}
	if sb.Len() == 0 {
		return "manual"
	}
	return sb.String()
}

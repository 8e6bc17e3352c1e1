package faults

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"paso/internal/obs"
	"paso/internal/obs/flight"
	"paso/internal/transport"
)

// replayFlightBundle drives one flight recorder from the seeded
// rolling-crash plan: every scheduled step becomes a deterministic trace
// event, metric movement, and (for crash/restart steps) an ownership edge,
// all under injected clocks with profiles off. It returns the bundle's
// manifest bytes.
//
// This is the determinism contract the chaos smoke relies on: the bundle
// manifest is a pure function of the scenario plan, so two runs of the
// same seed must produce byte-identical manifests (FAULTS.md §5 extends
// to the flight plane's fingerprinted surface).
func replayFlightBundle(t *testing.T, seed uint64) []byte {
	t.Helper()
	sc, err := Build("rolling-crash", seed, 0, 0, 0)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}

	// One logical clock for every component: each reading advances 10ms.
	// The call sequence is deterministic, so so are all timestamps.
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tick := 0
	now := func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * 10 * time.Millisecond)
	}

	o := obs.New(obs.Options{TraceCap: 4096, SpanCap: 1024})
	sampler := flight.NewSampler(o.Reg(), flight.SamplerOptions{
		Interval: 10 * time.Millisecond, Now: now,
	})
	dir := t.TempDir()
	rec := flight.NewRecorder(flight.RecorderOptions{
		Dir: dir, Obs: o, Sampler: sampler, NoProfiles: true, Now: now,
	})

	// Ownership edges go into the event ring as vsync emits them, but with
	// the logical clock's time: the manifest carries each edge's time.
	own := func(group string, epoch uint64, owner transport.NodeID, kind string, takeover float64) {
		o.Events().Add(obs.Event{Time: now(), Kind: obs.KindOwnership, Attrs: []obs.Attr{
			obs.KV("group", group), obs.KV("epoch", epoch), obs.KV("owner", owner),
			obs.KV("kind", kind), obs.KV("takeover_s", takeover)}})
	}
	epoch := uint64(0)
	for i, st := range sc.Steps {
		o.Emit("plan-step", obs.KV("i", i), obs.KV("op", int(st.Op)), obs.KV("node", int(st.Node)))
		o.Counter("plan.steps").Inc()
		switch st.Op {
		case OpCrash:
			// The crashed machine's groups fail over: a surviving node
			// records a takeover edge under the next live epoch.
			epoch++
			survivor := transport.NodeID(st.Node%transport.NodeID(sc.N) + 1)
			own(fmt.Sprintf("wg/step/%d", i), epoch, survivor, obs.OwnTakeover, 0.5)
			o.Histogram("vsync.takeover.seconds.wg/step").Observe(0.5)
		case OpRestart:
			epoch++
			own(fmt.Sprintf("wg/step/%d", i), epoch, st.Node, obs.OwnFresh, 0)
		case OpProbe:
			o.Histogram(obs.StageOrder).Observe(float64(i%7) * 1e-4)
		}
		sampler.SampleNow()
	}

	id, err := rec.Trigger("plan-replay", fmt.Sprintf("rolling-crash seed=%d replay", seed))
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, id, "manifest.json"))
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	return raw
}

// TestFlightBundleManifestDeterministic is the bit-reproducibility check:
// two independent recorders fed the same seeded rolling-crash plan under
// injected clocks produce byte-identical bundle manifests (and therefore
// equal fingerprints). A third run under a different seed must diverge,
// proving the fingerprint actually covers the plan-derived content.
func TestFlightBundleManifestDeterministic(t *testing.T) {
	a := replayFlightBundle(t, 42)
	b := replayFlightBundle(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatalf("manifests for the same seed differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	c := replayFlightBundle(t, 43)
	if bytes.Equal(a, c) {
		t.Fatal("manifests for different seeds are identical — fingerprint is not covering plan content")
	}
}

// TestRunWithFlightDirCapturesBundle runs a real (small) scenario with the
// flight plane armed and asserts the scenario-end force capture left a
// bundle with a non-empty ownership timeline — the same assertion the CI
// flight-smoke job makes against the chaos binary.
func TestRunWithFlightDirCapturesBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a full in-process cluster")
	}
	sc, err := Build("rolling-crash", 7, 0, 0, 1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	res, err := Run(sc, RunOptions{Out: &out, FlightDir: dir})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.OK() {
		t.Fatalf("scenario failed:\n%s", out.String())
	}
	if len(res.Bundles) == 0 {
		t.Fatal("no flight bundles captured")
	}
	ms, err := flight.ListBundles(dir)
	if err != nil || len(ms) == 0 {
		t.Fatalf("ListBundles = %v (err %v)", ms, err)
	}
	last := ms[len(ms)-1]
	if last.Trigger != "scenario-end" {
		t.Fatalf("final bundle trigger = %q, want scenario-end", last.Trigger)
	}
	if len(last.Ownership) == 0 {
		t.Fatal("scenario-end bundle has an empty ownership timeline")
	}
	if last.Fingerprint == "" {
		t.Fatal("bundle manifest has no fingerprint")
	}
}

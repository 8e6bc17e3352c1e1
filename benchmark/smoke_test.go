package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// smokeWarm replaces the 3 s warm-up: the smoke tests check that the
// benchmark still runs and still checks correctness, not its numbers.
const smokeWarm = 200 * time.Millisecond

// TestBenchmarkSmoke runs every workload for a 1-second window with the
// correctness check on, so that `go test ./...` notices when a change to the
// repository breaks the benchmark. Only correctness can fail it: a run the
// benchmark would call invalid because the test machine was busy (a late
// generator, a missed rate) is still a pass here.
func TestBenchmarkSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	for _, s := range specs {
		in := generate(s, 1)
		p, err := measure(in, smokeWarm, time.Second, false, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if p.failed != 0 || p.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed the correctness check: %v", s.name, p.failed, p.attempted, p.notes)
		}
		if p.ws.count == 0 || p.ws.perSec <= 0 || p.ws.p50Ms <= 0 || median(p.setups) <= 0 {
			t.Errorf("%s: an end-to-end metric is zero: %+v, %v ops/s, set-ups %v", s.name, p.ws, p.ws.perSec, p.setups)
		}
		if s.policyK == 0 && p.policyJoins != 0 {
			t.Errorf("%s: %d policy joins under a static policy", s.name, p.policyJoins)
		}
	}
}

// TestTracedPassSmoke makes the per-layer set of passes for one workload and
// checks its shape: every per-layer metric is reported, the spans load back
// from a file with one root per operation, and the decorated run still
// passes the correctness check.
func TestTracedPassSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload three times and the replays")
	}
	res, err := runWorkload(specByName("sharded-reads"), 2, smokeWarm, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.notes)
	}
	for _, d := range perLayer {
		v, ok := res.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			t.Errorf("metric %s: reported %+v (present: %v), want unit %s", d.name, v, ok, d.unit)
		}
	}
	for _, d := range endToEnd {
		if _, ok := res.Metrics[d.name]; ok {
			t.Errorf("end-to-end metric %s is reported by a traced run; those come from the untraced run alone", d.name)
		}
	}
	for _, name := range []string{"core.lease_served_ratio", "obs.trace_overhead_ratio", "tcp.sends_per_op",
		"tcp.rtt_us_p50", "vsync.gcasts_per_s", "storage.read_ns", "tuple.encode_ns", "class.classof_ns", "proc.cpu_s_per_kop"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, res.Metrics[name].Value)
		}
	}
	path := t.TempDir() + "/trace.jsonl"
	if err := writeSpans(path, res.spans); err != nil {
		t.Fatal(err)
	}
	spans, err := loadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRoots(spans); err != nil {
		t.Error(err)
	}
	ops, children := 0, 0
	for _, sp := range spans {
		if sp.Op != 0 && sp.Parent == 0 {
			ops++
		}
		if sp.Op != 0 && sp.Parent != 0 {
			children++
		}
	}
	if ops == 0 || children == 0 {
		t.Errorf("trace holds %d operation roots and %d of their children, want both", ops, children)
	}
	// The driver reads the last line of output: exactly these four keys.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
}

// BENCHMARK.json at the repository's root and the code must describe the
// same benchmark.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	def, err := readBenchmarkDef("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(def.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := def.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", s.name, len(s.why))
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(def.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := def.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(def.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m := def.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
	if def.RunSeconds < 10 || def.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 10..60", def.RunSeconds)
	}
}

func TestBoundFor(t *testing.T) {
	for _, c := range []struct{ spread, want float64 }{
		{0, 0.05}, {0.01, 0.05}, {0.02, 0.06}, {0.051, 0.16}, {0.08, 0.24}, {0.2, 0.25},
	} {
		if got := boundFor(c.spread); got != c.want {
			t.Errorf("boundFor(%v) = %v, want %v", c.spread, got, c.want)
		}
	}
}

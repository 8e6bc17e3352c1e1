package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestTrajectoryAppend appends two sweep points to a copy of the recorded
// BENCH_paso.json and verifies the trajectory accumulates instead of
// overwriting, and that every recorded point — including the closed-loop
// throughput points this command no longer knows the fields of — comes back
// byte for byte.
func TestTrajectoryAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two load sweeps; skipped in -short mode")
	}
	recorded, err := os.ReadFile("../../BENCH_paso.json")
	if err != nil {
		t.Fatal(err)
	}
	var before trajectory
	if err := json.Unmarshal(recorded, &before); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "BENCH_paso.json")
	if err := os.WriteFile(out, recorded, 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-machines", "2", "-workers", "2", "-transport", "simnet",
		"-rate", "200", "-rung", "100ms", "-out", out, "-label", "test"}
	for i := 0; i < 2; i++ {
		if err := run(args); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// Everything up to the end of the last recorded point is untouched.
	history := bytes.TrimSuffix(recorded, []byte("\n  ]\n}\n"))
	if len(history) == len(recorded) || !bytes.HasPrefix(raw, history) {
		t.Error("appending rewrote recorded points")
	}
	// The writer disables HTML escaping: the per-op key must appear as
	// "read&del", never as the \u0026 escape.
	if !bytes.Contains(raw, []byte("read&del")) {
		t.Error(`trajectory file lacks literal "read&del" (HTML escaping on?)`)
	}
	if bytes.Contains(raw, []byte(`\u0026`)) {
		t.Error(`trajectory file contains \u0026 escapes`)
	}
	var tr trajectory
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Schema != "paso-bench-trajectory/v1" {
		t.Fatalf("schema = %q", tr.Schema)
	}
	if len(tr.Points) != len(before.Points)+2 {
		t.Fatalf("points = %d, want %d", len(tr.Points), len(before.Points)+2)
	}
	for _, body := range tr.Points[len(before.Points):] {
		var p point
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		if p.Label != "test" || p.Kind != "sweep" || p.Sweep == nil || len(p.Sweep.Rungs) != 1 {
			t.Fatalf("bad point: %s", body)
		}
	}
	if _, err := findSweep(&tr, "sweep-smoke seed"); err != nil {
		t.Errorf("recorded sweep point no longer found: %v", err)
	}
}

func TestBadFlagErrors(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestSweepTrajectoryAppend runs a tiny open-loop sweep on simnet (the CI
// smoke path) and verifies the appended point has kind "sweep", carries
// the curve, and that the JSON writer leaves "read&del" unescaped.
func TestSweepTrajectoryAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-rung load run; skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_paso.json")
	args := []string{"-machines", "2", "-workers", "4", "-transport", "simnet",
		"-sweep", "200,400", "-rung", "100ms", "-sweep-min-achieved", "0.5",
		"-out", out, "-label", "sweep-test"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tr trajectory
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(tr.Points))
	}
	var p point
	if err := json.Unmarshal(tr.Points[0], &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != "sweep" || p.Sweep == nil {
		t.Fatalf("point kind = %q, sweep = %v", p.Kind, p.Sweep)
	}
	if len(p.Sweep.Rungs) != 2 {
		t.Fatalf("rungs = %d, want 2", len(p.Sweep.Rungs))
	}
	for i, rg := range p.Sweep.Rungs {
		if rg.Ops <= 0 || rg.P50Ms < 0 {
			t.Errorf("rung %d: %+v", i, rg)
		}
	}
}

// TestParseRates pins ladder validation.
func TestParseRates(t *testing.T) {
	if r, err := parseRates("", 500); err != nil || len(r) != 1 || r[0] != 500 {
		t.Errorf("single rate: %v %v", r, err)
	}
	if r, err := parseRates("100, 200,400", 0); err != nil || len(r) != 3 {
		t.Errorf("ladder: %v %v", r, err)
	}
	if _, err := parseRates("100,90", 0); err == nil {
		t.Error("non-increasing ladder accepted")
	}
	if _, err := parseRates("100,abc", 0); err == nil {
		t.Error("garbage rate accepted")
	}
}

package core

import (
	"testing"

	"paso/internal/class"
	"paso/internal/cost"
	"paso/internal/obs"
	"paso/internal/transport"
)

// latestTrace returns the newest root span recorded in o, failing if none.
func latestTrace(t *testing.T, o *obs.Obs) obs.Span {
	t.Helper()
	roots := o.Spans().Roots(1)
	if len(roots) == 0 {
		t.Fatal("no root span recorded")
	}
	return roots[0]
}

// TestTraceInsertCostAttribution traces one insert end to end in an
// in-process cluster (all machines share the test's span store, standing
// in for the collector's cross-machine merge) and asserts the acceptance
// criterion: the measured gcast fan-out matches the Figure 1 prediction
// |g|·(2α + β(|msg|+|resp|)) within the model's published tolerance.
func TestTraceInsertCostAttribution(t *testing.T) {
	o := obs.New(obs.Options{SpanCap: 1024})
	cfg := testConfig()
	cfg.TraceOps = true
	cfg.Obs = o
	c := newTestCluster(t, cfg, 4)

	if _, err := c.Machine(1).Insert(taskTuple(7)); err != nil {
		t.Fatal(err)
	}
	root := latestTrace(t, o)
	if root.Name != "op.insert" || root.ID != root.Trace {
		t.Fatalf("root = %+v", root)
	}
	if root.Class != "task/2" {
		t.Fatalf("root class = %q", root.Class)
	}
	asm := obs.Assemble(root.Trace, o.Spans().Spans(), cost.DefaultModel())
	if !asm.Complete() {
		t.Fatalf("insert trace incomplete: gaps=%+v spans=%+v", asm.Gaps, asm.Spans)
	}
	if len(asm.Hops) != 1 {
		t.Fatalf("hops = %d, want 1", len(asm.Hops))
	}
	hop := asm.Hops[0]
	if hop.Group != "wg/task/2" {
		t.Fatalf("hop group = %q", hop.Group)
	}
	// λ = 1 → |wg| = λ+1 = 2.
	if hop.GroupSize != 2 {
		t.Fatalf("|g| = %d, want 2", hop.GroupSize)
	}
	model := cost.DefaultModel()
	// Every span was collected, so the measured sum is the exact §3.3
	// gcast cost of what was sent: machine 1 sequences the group, so the
	// reply to its own caller never crossed the wire...
	if want := model.Gcast(hop.GroupSize, hop.Bytes, hop.RespBytes) - model.Msg(hop.RespBytes); hop.Measured != want {
		t.Fatalf("measured = %.0f, want exact Gcast less the reply %.0f", hop.Measured, want)
	}
	// ...and it matches the Figure 1 approximation within tolerance.
	diff := hop.Measured - hop.Predicted
	if diff < 0 {
		diff = -diff
	}
	if tol := model.GcastTolerance(hop.GroupSize, hop.RespBytes); diff > tol {
		t.Fatalf("|measured-predicted| = %.0f exceeds tolerance %.0f (measured=%.0f predicted=%.0f)",
			diff, tol, hop.Measured, hop.Predicted)
	}
}

// TestTraceReadPaths asserts both read shapes trace correctly: a member
// read yields a local-read span and no gcast hop; a non-member read yields
// a complete remote hop against the class write group.
func TestTraceReadPaths(t *testing.T) {
	o := obs.New(obs.Options{SpanCap: 1024})
	cfg := testConfig()
	cfg.TraceOps = true
	cfg.Obs = o
	c := newTestCluster(t, cfg, 4)
	if _, err := c.Machine(1).Insert(taskTuple(7)); err != nil {
		t.Fatal(err)
	}

	cls := class.ID("task/2")
	var member, outsider transport.NodeID
	for id := transport.NodeID(1); id <= 4; id++ {
		if c.Machine(id).MemberOf(cls) {
			member = id
		} else {
			outsider = id
		}
	}
	if member == 0 || outsider == 0 {
		t.Fatalf("need both a member and an outsider of %s", cls)
	}

	if _, ok, err := c.Machine(member).Read(taskTpl()); err != nil || !ok {
		t.Fatalf("member read: %v ok=%v", err, ok)
	}
	root := latestTrace(t, o)
	asm := obs.Assemble(root.Trace, o.Spans().Spans(), cost.DefaultModel())
	if !asm.Complete() || root.Name != "op.read" {
		t.Fatalf("member read trace: root=%+v gaps=%+v", root, asm.Gaps)
	}
	if len(asm.Hops) != 0 {
		t.Fatalf("member read should be local, got hops %+v", asm.Hops)
	}
	foundLocal := false
	for _, s := range asm.Spans {
		if s.Name == "local-read" {
			foundLocal = true
			if s.Machine != uint64(member) {
				t.Fatalf("local-read on machine %d, want %d", s.Machine, member)
			}
		}
	}
	if !foundLocal {
		t.Fatal("member read recorded no local-read span")
	}

	if _, ok, err := c.Machine(outsider).Read(taskTpl()); err != nil || !ok {
		t.Fatalf("outsider read: %v ok=%v", err, ok)
	}
	root = latestTrace(t, o)
	asm = obs.Assemble(root.Trace, o.Spans().Spans(), cost.DefaultModel())
	if !asm.Complete() || root.Name != "op.read" {
		t.Fatalf("outsider read trace: root=%+v gaps=%+v", root, asm.Gaps)
	}
	if len(asm.Hops) != 1 || asm.Hops[0].Group != "wg/task/2" {
		t.Fatalf("outsider read hops = %+v", asm.Hops)
	}
}

// TestTraceOffRecordsNothing guards the zero-overhead default: with
// TraceOps unset (the seed behavior), no spans are recorded at all.
func TestTraceOffRecordsNothing(t *testing.T) {
	o := obs.New(obs.Options{SpanCap: 1024})
	cfg := testConfig()
	cfg.Obs = o
	c := newTestCluster(t, cfg, 4)
	if _, err := c.Machine(1).Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Machine(2).ReadDel(taskTpl()); err != nil || !ok {
		t.Fatalf("read&del: %v ok=%v", err, ok)
	}
	if n := o.Spans().Total(); n != 0 {
		t.Fatalf("untraced cluster recorded %d spans", n)
	}
}

// TestTraceReadDelAndSwap covers the remaining primitives' root spans.
func TestTraceReadDelAndSwap(t *testing.T) {
	o := obs.New(obs.Options{SpanCap: 1024})
	cfg := testConfig()
	cfg.TraceOps = true
	cfg.Obs = o
	c := newTestCluster(t, cfg, 4)
	m := c.Machine(1)
	if _, err := m.Insert(taskTuple(7)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Swap(taskTplExact(7), taskTuple(8)); err != nil || !ok {
		t.Fatalf("swap: %v ok=%v", err, ok)
	}
	root := latestTrace(t, o)
	if root.Name != "op.swap" || root.Fail {
		t.Fatalf("swap root = %+v", root)
	}
	if asm := obs.Assemble(root.Trace, o.Spans().Spans(), cost.DefaultModel()); !asm.Complete() {
		t.Fatalf("swap trace incomplete: %+v", asm.Gaps)
	}
	if _, ok, err := m.ReadDel(taskTplExact(8)); err != nil || !ok {
		t.Fatalf("read&del: %v ok=%v", err, ok)
	}
	root = latestTrace(t, o)
	if root.Name != "op.read&del" || root.Fail {
		t.Fatalf("read&del root = %+v", root)
	}
	// A miss still records its root, marked failed, so `pasoctl trace`
	// can explain absent results too.
	if _, ok, _ := m.ReadDel(taskTplExact(8)); ok {
		t.Fatal("second read&del matched")
	}
	root = latestTrace(t, o)
	if root.Name != "op.read&del" || !root.Fail || root.Note != "no match" {
		t.Fatalf("miss root = %+v", root)
	}
}

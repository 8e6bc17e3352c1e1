package obs

import (
	"strings"
	"testing"
	"time"

	"paso/internal/cost"
)

func TestNextIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NextID()
		if id == 0 {
			t.Fatal("NextID returned 0 (reserved for untraced)")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %016x", id)
		}
		seen[id] = true
	}
}

func TestSpanStoreRingAndIndex(t *testing.T) {
	st := NewSpanStore(4)
	for i := uint64(1); i <= 6; i++ {
		st.Record(Span{Trace: i, ID: i * 10})
	}
	if st.Total() != 6 {
		t.Fatalf("Total = %d, want 6", st.Total())
	}
	if st.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", st.Cap())
	}
	all := st.Spans()
	if len(all) != 4 {
		t.Fatalf("Spans len = %d, want 4", len(all))
	}
	// Oldest-first window: traces 3..6 survive, 1 and 2 were overwritten.
	for i, s := range all {
		if want := uint64(i + 3); s.Trace != want {
			t.Fatalf("slot %d: trace %d, want %d", i, s.Trace, want)
		}
	}
	if got := st.ByTrace(1); len(got) != 0 {
		t.Fatalf("evicted trace still indexed: %+v", got)
	}
	if got := st.ByTrace(5); len(got) != 1 || got[0].ID != 50 {
		t.Fatalf("ByTrace(5) = %+v", got)
	}
}

func TestSpanStoreStampsTimes(t *testing.T) {
	st := NewSpanStore(8)
	st.Record(Span{Trace: 1, ID: 1})
	s := st.ByTrace(1)[0]
	if s.Start.IsZero() || s.End.IsZero() {
		t.Fatalf("zero timestamps not stamped: %+v", s)
	}
	start := time.Now().Add(-time.Second)
	st.Record(Span{Trace: 2, ID: 2, Start: start})
	s = st.ByTrace(2)[0]
	if !s.Start.Equal(start) {
		t.Fatalf("explicit Start overwritten: %v", s.Start)
	}
	if s.Dur() < 900*time.Millisecond {
		t.Fatalf("Dur = %v, want ~1s", s.Dur())
	}
}

func TestSpanStoreRoots(t *testing.T) {
	st := NewSpanStore(16)
	st.Record(Span{Trace: 1, ID: 1, Name: "op.insert"})
	st.Record(Span{Trace: 1, ID: 2, Parent: 1, Name: "gcast"})
	st.Record(Span{Trace: 3, ID: 3, Name: "op.read"})
	roots := st.Roots(10)
	if len(roots) != 2 {
		t.Fatalf("Roots = %d spans, want 2", len(roots))
	}
	// Newest first.
	if roots[0].Trace != 3 || roots[1].Trace != 1 {
		t.Fatalf("Roots order: %+v", roots)
	}
	if got := st.Roots(1); len(got) != 1 || got[0].Trace != 3 {
		t.Fatalf("Roots(1) = %+v", got)
	}
}

// fullSpanSet builds the spans of one complete traced insert: root → gcast →
// order → |g| delivers, with the given payload/response sizes.
func fullSpanSet(trace uint64, g, msg, resp int) []Span {
	t0 := time.Unix(1000, 0)
	ss := []Span{
		{Trace: trace, ID: trace, Machine: 3, Name: "op.insert", Class: "point", Start: t0, End: t0.Add(time.Millisecond)},
		{Trace: trace, ID: 2, Parent: trace, Machine: 3, Name: "gcast", Group: "wg/point",
			Start: t0.Add(10 * time.Microsecond), End: t0.Add(900 * time.Microsecond),
			Bytes: msg, RespBytes: resp, GroupSize: g},
		{Trace: trace, ID: 3, Parent: 2, Machine: 1, Name: "order", Group: "wg/point",
			Start: t0.Add(100 * time.Microsecond), End: t0.Add(800 * time.Microsecond),
			Bytes: msg, RespBytes: resp, GroupSize: g},
	}
	for i := 0; i < g; i++ {
		ss = append(ss, Span{Trace: trace, ID: uint64(10 + i), Parent: 3, Machine: uint64(i + 1),
			Name: "deliver", Start: t0.Add(200 * time.Microsecond), End: t0.Add(300 * time.Microsecond),
			Bytes: msg, RespBytes: resp})
	}
	return ss
}

func TestAssembleComplete(t *testing.T) {
	model := cost.DefaultModel()
	const trace, g, msg, resp = 77, 3, 120, 40
	spans := fullSpanSet(trace, g, msg, resp)
	// Duplicates (the same span collected from two scrapes) must not skew
	// the measured cost.
	spans = append(spans, spans...)
	// Spans of other traces must be ignored.
	spans = append(spans, Span{Trace: 99, ID: 500, Name: "op.read"})

	asm := Assemble(trace, spans, model)
	if !asm.Complete() {
		t.Fatalf("complete trace reported incomplete: gaps=%+v", asm.Gaps)
	}
	if asm.Root.Name != "op.insert" || asm.Root.ID != trace {
		t.Fatalf("root = %+v", asm.Root)
	}
	if len(asm.Spans) != 3+g {
		t.Fatalf("spans = %d, want %d", len(asm.Spans), 3+g)
	}
	// Causal order: parents before children.
	pos := make(map[uint64]int)
	for i, s := range asm.Spans {
		pos[s.ID] = i
	}
	for _, s := range asm.Spans {
		if s.Parent != 0 && pos[s.Parent] > pos[s.ID] {
			t.Fatalf("child %d before parent %d", s.ID, s.Parent)
		}
	}
	if len(asm.Hops) != 1 {
		t.Fatalf("hops = %d, want 1", len(asm.Hops))
	}
	hop := asm.Hops[0]
	// Measured reconstructs the exact §3.3 gcast cost when nothing is
	// missing: g payload sends, g empty acks, one gathered reply.
	wantMeasured := model.Gcast(g, msg, resp)
	if hop.Measured != wantMeasured {
		t.Fatalf("measured = %.0f, want exact Gcast %.0f", hop.Measured, wantMeasured)
	}
	if hop.Predicted != model.GcastApprox(g, msg, resp) {
		t.Fatalf("predicted = %.0f, want %.0f", hop.Predicted, model.GcastApprox(g, msg, resp))
	}
	// And the exact/approx difference stays within the published tolerance.
	diff := hop.Predicted - hop.Measured
	if diff < 0 {
		diff = -diff
	}
	if tol := model.GcastTolerance(g, resp); diff > tol {
		t.Fatalf("|approx-exact| = %.0f exceeds tolerance %.0f", diff, tol)
	}
}

// TestAssembleLocalReply: a gcast answered from the caller's own machine sent
// no reply message, and is priced without one — still inside the tolerance.
func TestAssembleLocalReply(t *testing.T) {
	model := cost.DefaultModel()
	const trace, g, msg, resp = 78, 2, 120, 40
	spans := fullSpanSet(trace, g, msg, resp)
	spans[1].Note = "local-reply"
	asm := Assemble(trace, spans, model)
	if !asm.Complete() || len(asm.Hops) != 1 {
		t.Fatalf("gaps=%+v hops=%d", asm.Gaps, len(asm.Hops))
	}
	hop := asm.Hops[0]
	if want := model.Gcast(g, msg, resp) - model.Msg(resp); hop.Measured != want {
		t.Fatalf("measured = %.0f, want Gcast less the reply %.0f", hop.Measured, want)
	}
	if diff := hop.Predicted - hop.Measured; diff < 0 || diff > model.GcastTolerance(g, resp) {
		t.Fatalf("predicted-measured = %.0f outside tolerance %.0f", diff, model.GcastTolerance(g, resp))
	}
}

func TestAssembleGaps(t *testing.T) {
	model := cost.DefaultModel()
	const trace, g, msg, resp = 88, 3, 50, 10
	full := fullSpanSet(trace, g, msg, resp)

	// Case 1: one deliver span missing → gap under the order span.
	missingDeliver := full[:len(full)-1]
	asm := Assemble(trace, missingDeliver, model)
	if asm.Complete() {
		t.Fatal("trace with missing deliver reported complete")
	}
	if len(asm.Gaps) != 1 || asm.Gaps[0].Name != "order" ||
		asm.Gaps[0].Expected != g || asm.Gaps[0].Got != g-1 {
		t.Fatalf("gaps = %+v", asm.Gaps)
	}
	// The measured cost honestly reflects only what was observed.
	if want := model.Gcast(g, msg, resp) - (model.Msg(msg) + model.Msg(0)); asm.Measured != want {
		t.Fatalf("measured = %.0f, want %.0f", asm.Measured, want)
	}

	// Case 2: order span missing entirely (coordinator crash) → gap under
	// the gcast span, and the delivers become orphan roots rather than
	// silently vanishing.
	noOrder := append([]Span{}, full[0], full[1])
	noOrder = append(noOrder, full[3:]...)
	asm = Assemble(trace, noOrder, model)
	if asm.Complete() {
		t.Fatal("trace with no order span reported complete")
	}
	foundGap := false
	for _, gp := range asm.Gaps {
		if gp.Name == "gcast" && gp.Expected == 1 && gp.Got == 0 {
			foundGap = true
		}
	}
	if !foundGap {
		t.Fatalf("no coordinator gap annotated: %+v", asm.Gaps)
	}
	if len(asm.Spans) != 2+g {
		t.Fatalf("orphan delivers dropped: %d spans, want %d", len(asm.Spans), 2+g)
	}
}

func TestAssembleRender(t *testing.T) {
	asm := Assemble(77, fullSpanSet(77, 2, 120, 40), cost.DefaultModel())
	text := asm.Render()
	for _, want := range []string{
		"trace 000000000000004d", "op.insert", "gcast", "order", "deliver",
		"|g|=2", "bytes=120/40", "measured=", "predicted=", "total:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
	gapped := Assemble(77, fullSpanSet(77, 2, 120, 40)[:3], cost.DefaultModel())
	if text := gapped.Render(); !strings.Contains(text, "GAP under order") {
		t.Fatalf("render missing gap line:\n%s", text)
	}
}

func TestParseTraceID(t *testing.T) {
	for _, in := range []string{"000000000000004d", "4d", "0x4D", " 4d "} {
		id, err := ParseTraceID(in)
		if err != nil || id != 0x4d {
			t.Fatalf("ParseTraceID(%q) = %d, %v", in, id, err)
		}
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// TestTraceCommandEndToEnd is the PR's acceptance path run for real: three
// machines over the TCP transport, each with its own obs sink and debug
// HTTP endpoint, one traced insert — and `pasoctl trace <op-id>` must
// print the cross-machine timeline with per-hop measured bytes and the
// predicted §3.3 cost.
func TestTraceCommandEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration is slow; skipped in -short mode")
	}
	cfg := core.Config{
		Classifier: class.NewNameArity([]string{"job"}, 3),
		Lambda:     1,
		StoreKind:  storage.KindHash,
		TraceOps:   true,
	}
	basics := cfg.Classifier.Classes()
	machines, oss, debugs := startDebugCluster(t, cfg, 3, func(id transport.NodeID) []class.ID {
		if id <= 2 {
			return basics
		}
		return nil
	})

	// Machine 3 is not basic support, so its insert gcasts to machines 1
	// and 2 — the trace genuinely crosses machines.
	obj := tuple.Make(tuple.String("job"), tuple.Int(42))
	if _, err := machines[3].Insert(obj); err != nil {
		t.Fatal(err)
	}
	roots := oss[3].Spans().Roots(1)
	if len(roots) == 0 {
		t.Fatal("no root span on the inserting machine")
	}
	opID := fmt.Sprintf("%016x", roots[0].Trace)
	// Member 2 answered machine 3 directly; the sequencer records its order
	// span when member 2's ack reaches it, a moment after the insert returned.
	ordered := func() bool {
		for _, s := range oss[1].Spans().Snapshot() {
			if s.Trace == roots[0].Trace && s.Name == "order" {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !ordered() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	addrs := debugs[1].Addr() + "," + debugs[2].Addr() + "," + debugs[3].Addr()

	// The list form shows the op so a user can find the ID.
	var list strings.Builder
	if err := runTrace([]string{"-debug", debugs[3].Addr(), "list"}, &list); err != nil {
		t.Fatalf("trace list: %v", err)
	}
	if !strings.Contains(list.String(), opID) || !strings.Contains(list.String(), "op.insert") {
		t.Fatalf("trace list missing the op:\n%s", list.String())
	}

	var out strings.Builder
	if err := runTrace([]string{"-debug", addrs, opID}, &out); err != nil {
		t.Fatalf("pasoctl trace: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{
		"3 machine(s)",   // spans merged from every endpoint
		"op.insert",      // the root
		"gcast", "order", // client and coordinator hops
		"deliver",    // member deliveries
		"|g|=2",      // λ+1 = 2 write-group members
		"measured=",  // per-hop measured §3.3 cost...
		"predicted=", // ...against the Figure 1 prediction
		"(Fig.1 |g|(2α+β(|m|+|r|)))",
		"total:",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "GAP") {
		t.Fatalf("healthy cluster produced a gap:\n%s", text)
	}
	// Delivers must come from both write-group machines (m1 and m2),
	// proving the timeline is genuinely cross-machine.
	if !strings.Contains(text, "deliver    m1") || !strings.Contains(text, "deliver    m2") {
		t.Fatalf("trace not cross-machine:\n%s", text)
	}
}

package vsync

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/obs"
	"paso/internal/simnet"
	"paso/internal/transport"
)

// traceHarness is the vsync harness with one real obs.Obs per node so each
// node's span store can be inspected, mirroring how every machine records
// its own part of a distributed trace.
type traceHarness struct {
	t   *testing.T
	net *simnet.Net
	nds map[transport.NodeID]*Node
	hs  map[transport.NodeID]*testHandler
	os  map[transport.NodeID]*obs.Obs
}

func newTraceHarness(t *testing.T, ids ...transport.NodeID) *traceHarness {
	t.Helper()
	h := &traceHarness{
		t:   t,
		net: simnet.New(cost.DefaultModel()),
		nds: make(map[transport.NodeID]*Node),
		hs:  make(map[transport.NodeID]*testHandler),
		os:  make(map[transport.NodeID]*obs.Obs),
	}
	for _, id := range ids {
		ep, err := h.net.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		th := newTestHandler()
		o := obs.New(obs.Options{SpanCap: 4096})
		h.nds[id] = NewNodeOpts(ep, th, NodeOptions{Obs: o})
		h.hs[id] = th
		h.os[id] = o
	}
	t.Cleanup(func() {
		for _, nd := range h.nds {
			nd.Close()
		}
	})
	return h
}

func (h *traceHarness) crash(id transport.NodeID) {
	h.t.Helper()
	h.net.Crash(id)
	h.nds[id].Close()
	delete(h.nds, id)
	delete(h.hs, id)
	// h.os[id] is deleted too: a crashed machine's spans are lost, exactly
	// what the collector's gap annotation must surface.
	delete(h.os, id)
}

// collect gathers every span recorded anywhere in the (surviving) cluster.
func (h *traceHarness) collect() []obs.Span {
	var out []obs.Span
	for _, o := range h.os {
		out = append(out, o.Spans().Spans()...)
	}
	return out
}

// tracedGcastOn issues one traced gcast from the node, recording a root
// span the way a core primitive would, and returns the trace ID. It takes
// the node and sink directly so senders racing a harness crash() (which
// mutates the harness maps) hold their own references.
func tracedGcastOn(o *obs.Obs, nd *Node, machine uint64, group string, payload []byte) (uint64, Result, error) {
	trace := obs.NextID()
	o.Spans().Record(obs.Span{
		Trace: trace, ID: trace, Machine: machine, Name: "op.test",
	})
	res, err := nd.GcastTraced(group, payload, trace, trace)
	return trace, res, err
}

func (h *traceHarness) tracedGcast(id transport.NodeID, group string, payload []byte) (uint64, Result, error) {
	return tracedGcastOn(h.os[id], h.nds[id], uint64(id), group, payload)
}

// TestTraceSurvivesBatchCoalescing floods the group from three concurrent
// senders so the outbox coalesces tOrdered fan-out into tBatch frames, then
// asserts every trace still assembles completely: the trace header must
// survive envelope coalescing byte-for-byte.
func TestTraceSurvivesBatchCoalescing(t *testing.T) {
	h := newTraceHarness(t, 1, 2, 3)
	for id := transport.NodeID(1); id <= 3; id++ {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	const perSender = 40
	traces := make(chan uint64, 3*perSender)
	var wg sync.WaitGroup
	for id := transport.NodeID(1); id <= 3; id++ {
		wg.Add(1)
		go func(id transport.NodeID) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				trace, res, err := h.tracedGcast(id, "g", []byte(fmt.Sprintf("p%d-%02d", id, i)))
				if err != nil || res.Fail {
					t.Errorf("gcast from %d: %v %+v", id, err, res)
					return
				}
				traces <- trace
			}
		}(id)
	}
	wg.Wait()
	close(traces)

	var batched int64
	for _, o := range h.os {
		batched += o.Counter("vsync.batch.msgs").Value()
	}
	if batched == 0 {
		t.Fatal("no tBatch coalescing happened; the test did not exercise the batching path")
	}

	spans := h.collect()
	model := cost.DefaultModel()
	n := 0
	for trace := range traces {
		n++
		asm := obs.Assemble(trace, spans, model)
		if !asm.Complete() {
			t.Fatalf("trace %016x incomplete: gaps=%+v spans=%d", trace, asm.Gaps, len(asm.Spans))
		}
		var gcasts, orders, delivers int
		for _, s := range asm.Spans {
			switch s.Name {
			case "gcast":
				gcasts++
				if s.GroupSize != 3 {
					t.Fatalf("trace %016x: gcast GroupSize = %d, want 3", trace, s.GroupSize)
				}
			case "order":
				orders++
			case "deliver":
				delivers++
			}
		}
		if gcasts != 1 || orders != 1 || delivers != 3 {
			t.Fatalf("trace %016x: gcast/order/deliver = %d/%d/%d, want 1/1/3",
				trace, gcasts, orders, delivers)
		}
	}
	if n != 3*perSender {
		t.Fatalf("resolved %d traces, want %d", n, 3*perSender)
	}
}

// TestTraceAcrossViewChange runs traced gcasts from a non-member while the
// group's membership changes underneath (a third member joins mid-stream):
// every trace must assemble with delivers matching the group size its cast
// was ordered against.
func TestTraceAcrossViewChange(t *testing.T) {
	h := newTraceHarness(t, 1, 2, 3)
	for _, id := range []transport.NodeID{1, 2} {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	var traces []uint64
	cast := func(i int) {
		trace, res, err := h.tracedGcast(3, "g", []byte(fmt.Sprintf("m%02d", i)))
		if err != nil || res.Fail {
			t.Fatalf("gcast %d: %v %+v", i, err, res)
		}
		traces = append(traces, trace)
	}
	for i := 0; i < 20; i++ {
		cast(i)
	}
	if err := h.nds[3].Join("g"); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		cast(i)
	}

	spans := h.collect()
	model := cost.DefaultModel()
	for i, trace := range traces {
		asm := obs.Assemble(trace, spans, model)
		if !asm.Complete() {
			t.Fatalf("trace %d (%016x) incomplete: gaps=%+v", i, trace, asm.Gaps)
		}
		if len(asm.Hops) != 1 {
			t.Fatalf("trace %d: %d hops, want 1", i, len(asm.Hops))
		}
		want := 2
		if i >= 20 {
			want = 3
		}
		if asm.Hops[0].GroupSize != want {
			t.Fatalf("trace %d: |g| = %d, want %d", i, asm.Hops[0].GroupSize, want)
		}
	}
}

// TestTraceSurvivesCoordinatorFailover crashes the coordinator while traced
// gcasts are in flight. Requests retransmitted to the successor must keep
// their trace (the span carries a "retransmit" note), and any ordering
// state lost with the coordinator must surface as an explicit gap in the
// assembled trace, never as a silently complete one.
func TestTraceSurvivesCoordinatorFailover(t *testing.T) {
	h := newTraceHarness(t, 1, 2, 3)
	for _, id := range []transport.NodeID{2, 3} {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	type done struct {
		trace uint64
		res   Result
		err   error
	}
	results := make(chan done, 60)
	sender, senderObs := h.nds[2], h.os[2]
	// The sender signals after its fifth completed cast so the crash lands
	// with 55 casts still to come — polling delivery counts instead loses
	// the race on a loaded machine: the compact codec resolves the whole
	// burst faster than a starved poll loop gets rescheduled.
	crashNow := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if i == 5 {
				close(crashNow)
			}
			trace, res, err := tracedGcastOn(senderObs, sender, 2, "g", []byte(fmt.Sprintf("m%02d", i)))
			results <- done{trace, res, err}
			// Keep a gap between casts so the concurrent crash can land
			// between round trips, not only inside one.
			time.Sleep(100 * time.Microsecond)
		}
	}()
	<-crashNow
	h.crash(1) // node 1 is the coordinator (lowest ID)
	wg.Wait()
	close(results)

	spans := h.collect()
	model := cost.DefaultModel()
	resolved, retransmitted := 0, 0
	for d := range results {
		if d.err != nil || d.res.Fail {
			continue // casts racing the crash may fail; the survivors matter here
		}
		resolved++
		asm := obs.Assemble(d.trace, spans, model)
		var gcast *obs.Span
		orderOK := false
		for i := range asm.Spans {
			s := &asm.Spans[i]
			switch s.Name {
			case "gcast":
				gcast = s
				if s.Note == "retransmit" {
					retransmitted++
				}
			case "order":
				orderOK = true
			}
		}
		if gcast == nil {
			t.Fatalf("trace %016x: resolved cast has no gcast span", d.trace)
		}
		if !orderOK {
			// The only ordering record was on the crashed coordinator: the
			// collector must say so explicitly.
			found := false
			for _, g := range asm.Gaps {
				if g.Parent == gcast.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("trace %016x: order span missing but no gap annotated", d.trace)
			}
		}
	}
	if resolved == 0 {
		t.Fatal("no casts resolved across the failover")
	}
	if retransmitted == 0 {
		t.Fatal("no cast was marked retransmitted; the failover path was not traced")
	}
	// The survivors must agree on the delivered sequence despite the
	// retransmissions (trace fields must not break dedup).
	l2, l3 := h.hs[2].log("g"), h.hs[3].log("g")
	for i := range l2 {
		if i < len(l3) && l2[i] != l3[i] {
			t.Fatalf("divergent logs at %d: %q vs %q", i, l2[i], l3[i])
		}
	}
}

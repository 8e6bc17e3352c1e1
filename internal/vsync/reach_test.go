package vsync

import (
	"slices"
	"testing"
	"time"

	"paso/internal/transport"
)

// The tests here reach the guards no schedule reaches on its own: the
// decoders' checks on outside input, the encoder's nested-batch panic, the
// loop queue's full and closed paths, and messages a correct peer would
// only send stale. Each drives the real node, built by newSim with no loop
// running.

func stillNode(t *testing.T) *sim {
	t.Helper()
	s := newSim(simConfig{nodes: 3, coord: LowestLive, placement: "lowest"}, &choiceStream{})
	if s.err != "" {
		t.Fatal(s.err)
	}
	return s
}

func TestEncodeNestedBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a batch inside a batch encoded")
		}
	}()
	encodeWire(&wire{Type: tBatch, Batch: []wire{{Type: tBatch}}})
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	for name, b := range map[string][]byte{
		"origins beyond the frame": {0, 0x7F},
		"entries beyond the frame": {0, 1, 5, 0x7F},
		"truncated entry":          {0, 1, 5, 1, 9, 0},
		"trailing byte":            append(encodeSnapshot(&snapshotEnvelope{App: []byte{1}}), 0),
	} {
		if _, err := decodeSnapshot(b); err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}
}

// TestOutsideInputDropped: a frame that does not decode is counted and
// dropped; a member list cut short ends early; a report without a live set,
// a leased-read reply nobody waits for, a snapshot that does not decode and
// a restate from a node that does not sequence the group (a deposed
// sequencer's) change nothing.
func TestOutsideInputDropped(t *testing.T) {
	s := stillNode(t)
	n1, n2 := s.nodes[1].n, s.nodes[2].n
	n1.handleItem(transport.Item{Kind: transport.KindMsg, From: 2, Payload: []byte{0}})
	if got := n1.cWireReject.Value(); got != 1 {
		t.Errorf("wire rejects %d, want 1", got)
	}
	if got := idsFromWire(&wire{Payload: []byte{1, 0x80}}); !slices.Equal(got, []transport.NodeID{1}) {
		t.Errorf("truncated member list decoded to %v", got)
	}
	if n1.viewAgrees(&wire{Type: tSyncInfo, Infos: map[string]uint64{"a": 9}}) {
		t.Error("a report without a live set counted")
	}
	g := n2.groups["a"]
	last, state := g.last, slices.Clone(s.nodes[2].h.state["a"])
	n1.dispatch(2, &wire{Type: tLeaseReply, ReqID: 99}) // timed out, fenced or duplicate
	n2.dispatch(1, &wire{Type: tState, Group: "a", UpTo: last + 5, Payload: []byte{0x7F}})
	n2.dispatch(3, &wire{Type: tRestate, Group: "a"})
	if g := n2.groups["a"]; g == nil || !g.active || g.last != last || !slices.Equal(s.nodes[2].h.state["a"], state) {
		t.Errorf("member 2 of a changed: %+v", g)
	}
}

// TestQueueFullAndClosed: a caller behind a full command queue waits for
// the loop to take a command, and one still waiting when the node closes —
// or whose query the loop never ran — gets ErrClosed's answers.
func TestQueueFullAndClosed(t *testing.T) {
	n := stillNode(t).nodes[1].n
	for i := 0; i < maxLoopBurst; i++ {
		n.cmds <- command{f: func() {}}
	}
	got := make(chan bool)
	go func() { got <- n.do(func() {}) }()
	time.Sleep(20 * time.Millisecond) // the caller is waiting on the full queue
	<-n.cmds                          // the loop takes one; the caller gets in
	if !<-got {
		t.Fatal("enqueue behind a full queue failed")
	}
	go func() { got <- n.call(newReq(tJoinReq, "b")) }()
	close(n.done)
	if <-got {
		t.Fatal("a call on a closed node succeeded")
	}
	if n.Members("a") != nil {
		t.Error("Members answered on a closed node with a full queue")
	}
	<-n.cmds // room again: the query is queued, and the node is closed
	if _, ok := n.Sequenced("a"); ok {
		t.Error("Sequenced answered on a closed node")
	}
}

// TestClosePendingTraced: a traced cast still pending when the loop exits
// fails with ErrClosed and records its span as failed.
func TestClosePendingTraced(t *testing.T) {
	s := stillNode(t)
	n := s.nodes[2].n
	p := &pendingReq{w: wire{Type: tCastReq, Group: "a", Payload: []byte("x"), Trace: 7}, done: make(chan struct{}, 1)}
	n.run(command{call: p})
	n.failAllPending()
	if p.err != ErrClosed {
		t.Fatalf("pending cast ended with %v, want ErrClosed", p.err)
	}
	if spans := s.o.Spans().ByTrace(7); len(spans) != 1 || !spans[0].Fail {
		t.Fatalf("spans %+v, want one failed gcast span", spans)
	}
}

// TestLeaseTimeoutOnClosedNode: a leased read whose timer fires as the node
// closes, before the loop runs its expiry, returns ErrClosed's answer.
func TestLeaseTimeoutOnClosedNode(t *testing.T) {
	n := stillNode(t).nodes[1].n
	p := &pendingReq{done: make(chan struct{}, 1)}
	got := make(chan bool)
	go func() { got <- n.waitLease(p, time.Millisecond) }()
	<-n.cmds // the expiry is queued; the loop never runs it
	close(n.done)
	if <-got {
		t.Fatal("a leased read expired on a closed node")
	}
}

// TestReportFromSkewedDetector: over TCP a peer's heartbeat detector can
// declare the sequencer dead while the sequencer's frames still reach it.
// Its report then names a live set without the sequencer, under which the
// group maps elsewhere: the sequencer must not count it, since that peer
// rejects what it orders.
func TestReportFromSkewedDetector(t *testing.T) {
	n1 := stillNode(t).nodes[1].n
	w := &wire{Type: tSyncInfo, Payload: idsToWire([]transport.NodeID{2, 3}), Infos: map[string]uint64{"a": 3}}
	if n1.viewAgrees(w) {
		t.Fatal("a report placing a on 2 counted at its sequencer 1")
	}
}

// TestLeaseExpiryRunsOnLoop: a leased read whose timer fires is dropped
// with ErrLeaseTimeout by the expiry the loop runs.
func TestLeaseExpiryRunsOnLoop(t *testing.T) {
	n := stillNode(t).nodes[1].n
	p := &pendingReq{w: wire{ReqID: 41}, done: make(chan struct{}, 1)}
	n.leases[p.w.ReqID] = p
	got := make(chan bool)
	go func() { got <- n.waitLease(p, time.Millisecond) }()
	(<-n.cmds).f() // the loop runs the queued expiry
	if !<-got || p.err != ErrLeaseTimeout || n.leases[p.w.ReqID] != nil {
		t.Fatalf("expired lease: err %v, still held %v", p.err, n.leases[p.w.ReqID] != nil)
	}
}

// TestTracedDuplicateDelivery: a traced cast ordered twice applies once, and
// the second delivery's span says it was suppressed.
func TestTracedDuplicateDelivery(t *testing.T) {
	s := stillNode(t)
	n2 := s.nodes[2].n
	last := n2.groups["a"].last
	for i := uint64(1); i <= 2; i++ {
		n2.dispatch(1, &wire{Type: tOrdered, Group: "a", Seq: last + i, Event: evData, ReqID: 77, Origin: 3, Payload: []byte("x"), Trace: 5})
	}
	spans := s.o.Spans().ByTrace(5)
	if got := s.nodes[2].h.state["a"]; len(got) != 1 || len(spans) != 2 || spans[1].Note != "dup-suppressed" {
		t.Fatalf("state %v, spans %+v", got, spans)
	}
}

// TestLeaveResolvedWithoutEvent: a sequencer that lost the membership record
// answers a leave directly, and the member erases the group itself.
func TestLeaveResolvedWithoutEvent(t *testing.T) {
	s := stillNode(t)
	sn := s.nodes[2]
	s.issue(sn, tLeaveReq, "a")
	p := sn.calls[len(sn.calls)-1].p
	sn.n.dispatch(1, &wire{Type: tReply, ReqID: p.w.ReqID})
	if len(p.done) == 0 || sn.n.groups["a"] != nil || sn.n.Member("a") {
		t.Fatal("the leave did not resolve and erase the group")
	}
}

// TestLeaseStartFencedByEdge: a leased read whose epoch a membership edge
// moved before the loop took it is fenced without being sent.
func TestLeaseStartFencedByEdge(t *testing.T) {
	n := stillNode(t).nodes[1].n
	p := &pendingReq{w: wire{Type: tLeaseRead, Group: "a", UpTo: n.ViewEpoch() + 1}, to: 2, done: make(chan struct{}, 1)}
	n.run(command{call: p})
	if len(p.done) == 0 || p.err != ErrLeaseFenced || len(n.leases) != 0 {
		t.Fatalf("stale-epoch lease: err %v, held %d", p.err, len(n.leases))
	}
}

package vsync

import (
	"testing"

	"paso/internal/obs"
	"paso/internal/transport"
)

// newBenchCoordNode builds a coordinator-only Node: no event loop, no
// transport. The ordering hot path (coordCast → flushCoord → coordAck →
// finishCast) touches only loop-owned state, so the benchmarks drive it
// directly from the test goroutine and drain the outbox by hand.
func newBenchCoordNode() *Node {
	o := obs.Nop()
	n := &Node{
		self:   1,
		outbox: make(map[transport.NodeID][]*wire),

		o:             o,
		hStageOrder:   o.Histogram(obs.StageOrder),
		gCoordBacklog: o.Gauge("vsync.coord.backlog"),
		cRunSends:     o.Counter("vsync.order.runs"),
		cRunCasts:     o.Counter("vsync.order.run.casts"),
		hRunOcc:       o.Histogram("vsync.order.run.occupancy"),
		cDoneGathered: o.Counter("vsync.cast.completed.gathered"),
	}
	n.cs = &coordState{groups: make(map[string]*coordGroup)}
	g := n.newCoordGroup("bench")
	g.members = []transport.NodeID{1, 2, 3}
	n.cs.groups["bench"] = g
	return n
}

// benchDrainOutbox releases staged frames the way flushOutbox would,
// without encoding: pooled wires return to the pool, slices are reused. The
// node's own copies (it is member 1) are released undispatched.
func benchDrainOutbox(n *Node) {
	for i, w := range n.selfq {
		releaseWire(w)
		n.selfq[i] = nil
	}
	n.selfq = n.selfq[:0]
	for _, to := range n.outboxOrder {
		ws := n.outbox[to]
		for _, w := range ws {
			releaseWire(w)
		}
		clear(ws)
		n.outbox[to] = ws[:0]
	}
	n.outboxOrder = n.outboxOrder[:0]
}

// benchAckAll completes every pending cast in the group.
func benchAckAll(n *Node, g *coordGroup) {
	for s, e := g.pending.base, g.pending.next; s < e; s++ {
		pc := g.pending.get(s)
		if pc == nil {
			continue
		}
		members := pc.members
		for _, m := range members {
			if pc.ackFrom(m) && pc.remaining == 0 {
				n.finishCast(g, s, pc)
			}
		}
	}
}

// benchCastWires returns distinct request envelopes to rotate through: a
// staged cast holds its wire pointer until flushCoord, so one shared
// mutated wire would alias every staged slot.
func benchCastWires(k int) []*wire {
	ws := make([]*wire, k)
	for i := range ws {
		ws[i] = &wire{
			Type: tCastReq, Group: "bench", ReqID: uint64(1000 + i), Origin: 2,
			Payload: []byte("0123456789abcdef0123456789abcdef"),
		}
	}
	return ws
}

// BenchmarkCoordCast measures the full coordinator order cycle — stage,
// batch-sequence into a run, gather three acks, reply, recycle — in the
// steady state the pools are built for: the whole cycle must stay at
// ≤ 1 alloc per cast (TestCoordAckZeroAlloc pins the ack half at zero).
func BenchmarkCoordCast(b *testing.B) {
	n := newBenchCoordNode()
	g := n.cs.groups["bench"]
	reqs := benchCastWires(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.coordCast(reqs[i&15])
		if i&15 == 15 {
			n.flushCoord()
			benchAckAll(n, g)
			benchDrainOutbox(n)
		}
	}
	b.StopTimer()
	n.flushCoord()
	benchAckAll(n, g)
	benchDrainOutbox(n)
}

// BenchmarkCoordAck measures the gather hot path alone: three coordAck
// calls completing one pre-sequenced cast, including the pooled reply and
// recycling. Staging and sequencing run off the clock.
func BenchmarkCoordAck(b *testing.B) {
	n := newBenchCoordNode()
	g := n.cs.groups["bench"]
	reqs := benchCastWires(16)
	ack := &wire{Type: tAck, Group: "bench", Payload: []byte("ok")}
	const chunk = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		k := chunk
		if rem := b.N - done; rem < k {
			k = rem
		}
		for i := 0; i < k; i++ {
			n.coordCast(reqs[i&15])
			if i&15 == 15 {
				n.flushCoord()
				benchDrainOutbox(n)
			}
		}
		n.flushCoord()
		benchDrainOutbox(n)
		b.StartTimer()
		for s, e := g.pending.base, g.pending.next; s < e; s++ {
			ack.Seq = s
			n.coordAck(2, ack)
			n.coordAck(3, ack)
			n.coordAck(1, ack) // completes the gather → finishCast
			benchDrainOutbox(n)
			done++
		}
	}
}

// TestCoordAckZeroAlloc pins the acceptance criterion directly: with warm
// pools, the coordAck → finishCast path (three acks, reply staging, and
// wire recycling) performs zero allocations per completed cast.
func TestCoordAckZeroAlloc(t *testing.T) {
	n := newBenchCoordNode()
	g := n.cs.groups["bench"]
	reqs := benchCastWires(16)
	cycle := func(k int) {
		for i := 0; i < k; i++ {
			n.coordCast(reqs[i&15])
			if i&15 == 15 {
				n.flushCoord()
				benchDrainOutbox(n)
			}
		}
		n.flushCoord()
		benchDrainOutbox(n)
	}
	// Warm every pool and pre-grow ring, outbox, and recycle slices.
	cycle(64)
	benchAckAll(n, g)
	benchDrainOutbox(n)
	const runs = 1000
	cycle(runs + 50) // pre-sequence more casts than measured runs
	ack := &wire{Type: tAck, Group: "bench", Payload: []byte("ok")}
	seq := g.pending.base
	allocs := testing.AllocsPerRun(runs, func() {
		ack.Seq = seq
		n.coordAck(2, ack)
		n.coordAck(3, ack)
		n.coordAck(1, ack)
		benchDrainOutbox(n)
		seq++
	})
	if allocs != 0 {
		t.Errorf("coordAck→finishCast path: %.2f allocs/op, want 0", allocs)
	}
}

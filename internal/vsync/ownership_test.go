package vsync

import (
	"fmt"
	"testing"

	"paso/internal/obs"
	"paso/internal/obs/flight"
	"paso/internal/transport"
)

// edgesFor returns the ownership edges one node emitted for one group,
// folded from its event timeline exactly as /placement and bundles fold it.
func edgesFor(h *harness, id transport.NodeID, group string) []flight.OwnershipEvent {
	var out []flight.OwnershipEvent
	for _, e := range flight.Ownership(h.os[id].Events().Snapshot()) {
		if e.Group == group {
			out = append(out, e)
		}
	}
	return out
}

// hasEdge reports whether edges holds one of the kind naming owner.
func hasEdge(edges []flight.OwnershipEvent, kind string, owner transport.NodeID) (flight.OwnershipEvent, bool) {
	for _, e := range edges {
		if e.Kind == kind && e.Owner == owner {
			return e, true
		}
	}
	return flight.OwnershipEvent{}, false
}

// TestOwnershipTimeline is the vsync → event timeline path end to end: the
// ownership edges a sequencer emits come back out of flight.Ownership with
// the placement function's owner, at bootstrap (fresh), after the owner
// crashes (takeover under a newer epoch, with its recovery time), and when a
// joining machine moves groups (the old owner abdicates toward the new one,
// which recovers the group before sequencing it).
func TestOwnershipTimeline(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		classes := testClasses(4)
		ids := []transport.NodeID{1, 2, 3}
		h := newHarnessOn(t, fn, ids...)
		joinAll(t, h, classes, ids...)

		for _, cls := range classes {
			g := wgOf(cls)
			owner := fn(g, ids)
			for _, id := range ids {
				_, fresh := hasEdge(edgesFor(h, id, g), obs.OwnFresh, id)
				if fresh != (id == owner) {
					t.Fatalf("%s: node %d fresh edge = %v, owner is %d", g, id, fresh, owner)
				}
			}
		}

		g := wgOf(classes[0])
		owner := fn(g, ids)
		survivors := without(ids, owner)
		successor := fn(g, survivors)
		var before uint64
		h.nds[successor].query(func() { before = h.nds[successor].liveEpoch })
		h.crash(owner)
		if res, err := h.nds[survivors[0]].Gcast(g, []byte("after")); err != nil || res.Fail {
			t.Fatalf("gcast after crash: %v %+v", err, res)
		}
		e, ok := hasEdge(edgesFor(h, successor, g), obs.OwnTakeover, successor)
		if !ok {
			t.Fatalf("%s: successor %d emitted no takeover edge: %+v", g, successor, edgesFor(h, successor, g))
		}
		if e.Epoch <= before || e.TakeoverSeconds <= 0 {
			t.Fatalf("takeover edge = %+v, want epoch > %d and a recovery time", e, before)
		}
	})
}

// TestOwnershipJoinRebalance: a machine joining under the rendezvous policy
// moves some groups. Each moved group's old owner emits an abdicate edge
// naming the new owner, and the new owner emits its own claim once it has
// rebuilt the group — a takeover edge, since the abdicators' claims send it
// through a recovery quorum (PROTOCOL.md, "Coordinator placement and
// takeover"); single-report adoption, the handoff edge, is not this path.
func TestOwnershipJoinRebalance(t *testing.T) {
	fn := testPolicy.CoordFn()
	classes := testClasses(8)
	members := []transport.NodeID{2, 3}
	all := []transport.NodeID{1, 2, 3}
	h := newHarnessOn(t, fn, members...)
	joinAll(t, h, classes, members...)
	for _, cls := range classes {
		if res, err := h.nds[2].Gcast(wgOf(cls), []byte("pre")); err != nil || res.Fail {
			t.Fatalf("baseline gcast %s: %v %+v", cls, err, res)
		}
	}
	h.start(1)
	for _, cls := range classes {
		if res, err := h.nds[3].Gcast(wgOf(cls), []byte("post")); err != nil || res.Fail {
			t.Fatalf("post-join gcast %s: %v %+v", cls, err, res)
		}
	}
	moved := 0
	for _, cls := range classes {
		g := wgOf(cls)
		from, to := fn(g, members), fn(g, all)
		if from == to {
			continue
		}
		moved++
		waitFor(t, fmt.Sprintf("%s ownership edges %d→%d", g, from, to), func() bool {
			_, abdicated := hasEdge(edgesFor(h, from, g), obs.OwnAbdicate, to)
			_, claimed := hasEdge(edgesFor(h, to, g), obs.OwnTakeover, to)
			return abdicated && claimed
		})
	}
	if moved == 0 {
		t.Fatal("no group moved when the machine joined")
	}
}

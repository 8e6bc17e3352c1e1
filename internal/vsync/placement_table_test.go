package vsync

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/placement"
	"paso/internal/transport"
)

// One table, both placement functions: every protocol property below must
// hold whether one machine sequences everything (LowestLive) or the capped
// rendezvous policy spreads the groups (PROTOCOL.md, "Coordinator placement
// and takeover"). There is one takeover path; these are its tests.

func testClasses(n int) []class.ID {
	cs := make([]class.ID, n)
	for i := range cs {
		cs[i] = class.ID(fmt.Sprintf("c%d", i))
	}
	return cs
}

func wgOf(cls class.ID) string { return "wg/" + string(cls) }

// testPolicy is the rendezvous row's policy: nine classes, λ = 1. Groups
// outside the universe ("g") fall back to uncapped rendezvous on the name.
var testPolicy = placement.New(testClasses(9), 1)

// forEachPlacement runs f once per placement function.
func forEachPlacement(t *testing.T, f func(t *testing.T, fn CoordFn)) {
	for _, row := range []struct {
		name string
		fn   CoordFn
	}{
		{"lowest", LowestLive},
		{"rendezvous", testPolicy.CoordFn()},
	} {
		row := row
		t.Run(row.name, func(t *testing.T) { f(t, row.fn) })
	}
}

// without returns ids minus drop.
func without(ids []transport.NodeID, drop transport.NodeID) []transport.NodeID {
	var out []transport.NodeID
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}

// joinAll joins every node to every class's wg group.
func joinAll(t *testing.T, h *harness, classes []class.ID, ids ...transport.NodeID) {
	t.Helper()
	for _, id := range ids {
		for _, cls := range classes {
			if err := h.nds[id].Join(wgOf(cls)); err != nil {
				t.Fatalf("node %d join %s: %v", id, cls, err)
			}
		}
	}
}

// logsConverge waits until every listed node's log for every group reaches
// want entries, then asserts the logs are identical (total order) and free
// of duplicates.
func logsConverge(t *testing.T, h *harness, groups []string, want int, ids ...transport.NodeID) {
	t.Helper()
	waitFor(t, "logs to converge", func() bool {
		for _, id := range ids {
			for _, g := range groups {
				if len(h.hs[id].log(g)) < want {
					return false
				}
			}
		}
		return true
	})
	for _, g := range groups {
		ref := h.hs[ids[0]].log(g)
		if len(ref) != want {
			t.Fatalf("%s: node %d delivered %d messages, want %d: %v", g, ids[0], len(ref), want, ref)
		}
		seen := make(map[string]bool, len(ref))
		for _, m := range ref {
			if seen[m] {
				t.Fatalf("%s: duplicate delivery %q in %v", g, m, ref)
			}
			seen[m] = true
		}
		for _, id := range ids[1:] {
			got := h.hs[id].log(g)
			if len(got) != len(ref) {
				t.Fatalf("%s: node %d delivered %d messages, node %d delivered %d", g, id, len(got), ids[0], len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: node %d log %v, node %d log %v", g, id, got, ids[0], ref)
				}
			}
		}
	}
}

func wgNames(classes []class.ID) []string {
	out := make([]string, len(classes))
	for i, cls := range classes {
		out[i] = wgOf(cls)
	}
	return out
}

// TestTotalOrderAcrossMembers: every group delivers one total order with
// casts arriving concurrently from every node, wherever its sequencer sits;
// and the sequencers sit exactly where the placement function says — all on
// node 1 under LowestLive, spread over the nodes otherwise.
func TestTotalOrderAcrossMembers(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		classes := testClasses(9)
		ids := []transport.NodeID{1, 2, 3}
		h := newHarnessOn(t, fn, ids...)
		joinAll(t, h, classes, ids...)

		const perNode = 4
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id transport.NodeID) {
				defer wg.Done()
				for i := 0; i < perNode; i++ {
					for _, cls := range classes {
						res, err := h.nds[id].Gcast(wgOf(cls), []byte(fmt.Sprintf("%s-n%d-m%d", cls, id, i)))
						if err != nil || res.Fail || res.GroupSize != len(ids) {
							t.Errorf("gcast %s #%d from %d: %v %+v", cls, i, id, err, res)
							return
						}
					}
				}
			}(id)
		}
		wg.Wait()
		logsConverge(t, h, wgNames(classes), perNode*len(ids), ids...)

		waitFor(t, "sequencer gauges to match the placement function", func() bool {
			for _, id := range ids {
				want := 0
				for _, cls := range classes {
					if fn(wgOf(cls), ids) == id {
						want++
					}
				}
				if h.os[id].Gauge("vsync.coord.groups").Value() != int64(want) {
					return false
				}
			}
			return true
		})
	})
}

// TestOwnerCrashKeepsSeries hammers one group across its sequencer's crash:
// the rebuilt sequence series continues past every acknowledged cast, so
// survivors deliver one gap-free, duplicate-free total order.
func TestOwnerCrashKeepsSeries(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		ids := []transport.NodeID{1, 2, 3}
		g := wgOf("c0")
		h := newHarnessOn(t, fn, ids...)
		joinAll(t, h, testClasses(1), ids...)

		owner := fn(g, ids)
		survivors := without(ids, owner)
		for i := 0; i < 10; i++ {
			if res, err := h.nds[survivors[0]].Gcast(g, []byte(fmt.Sprintf("m%02d", i))); err != nil || res.Fail {
				t.Fatalf("gcast %d: %v %+v", i, err, res)
			}
		}
		h.crash(owner)
		for i := 10; i < 20; i++ {
			sender := survivors[i%len(survivors)]
			if res, err := h.nds[sender].Gcast(g, []byte(fmt.Sprintf("m%02d", i))); err != nil || res.Fail {
				t.Fatalf("gcast %d after crash: %v %+v", i, err, res)
			}
		}
		logsConverge(t, h, []string{g}, 20, survivors...)
		log := h.hs[survivors[0]].log(g)
		for i, m := range log {
			if m != fmt.Sprintf("m%02d", i) {
				t.Fatalf("series broke at %d: %v", i, log)
			}
		}
	})
}

// TestCoordinatorCrashIsolatesClasses: when one class's coordinator dies,
// classes sequenced elsewhere keep going undisturbed, and every orphaned
// class recovers on its new owner without losing acknowledged casts.
func TestCoordinatorCrashIsolatesClasses(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		classes := testClasses(6)
		ids := []transport.NodeID{1, 2, 3}
		h := newHarnessOn(t, fn, ids...)
		joinAll(t, h, classes, ids...)

		for _, cls := range classes {
			if res, err := h.nds[2].Gcast(wgOf(cls), []byte(string(cls)+"-pre")); err != nil || res.Fail {
				t.Fatalf("baseline gcast %s: %v %+v", cls, err, res)
			}
		}
		victim := fn(wgOf(classes[0]), ids)
		survivors := without(ids, victim)
		h.crash(victim)

		// Every class — the orphaned ones included — must accept new casts
		// from the survivors; orphans go through a takeover recovery first.
		for _, cls := range classes {
			res, err := h.nds[survivors[0]].Gcast(wgOf(cls), []byte(string(cls)+"-post"))
			if err != nil || res.Fail {
				t.Fatalf("post-crash gcast %s: %v %+v", cls, err, res)
			}
		}
		logsConverge(t, h, wgNames(classes), 2, survivors...)
		for _, cls := range classes {
			log := h.hs[survivors[0]].log(wgOf(cls))
			if log[0] != string(cls)+"-pre" || log[1] != string(cls)+"-post" {
				t.Fatalf("%s: acked cast lost or reordered: %v", cls, log)
			}
		}
	})
}

// TestJoinRebalance starts a machine after traffic exists: the classes the
// placement function moves (all of them under LowestLive — the newcomer has
// the lowest ID) change owner through abdication and claim, the moved groups
// keep serving casts through the handoff, and no acknowledged cast is lost
// or replayed.
func TestJoinRebalance(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		classes := testClasses(8)
		members := []transport.NodeID{2, 3}
		h := newHarnessOn(t, fn, members...)
		joinAll(t, h, classes, members...)

		for _, cls := range classes {
			if res, err := h.nds[2].Gcast(wgOf(cls), []byte(string(cls)+"-pre")); err != nil || res.Fail {
				t.Fatalf("baseline gcast %s: %v %+v", cls, err, res)
			}
		}
		h.start(1)
		moved := 0
		for _, cls := range classes {
			if fn(wgOf(cls), []transport.NodeID{1, 2, 3}) != fn(wgOf(cls), members) {
				moved++
			}
		}
		if moved == 0 {
			t.Fatal("no classes moved when the machine joined")
		}

		// The newcomer owns moved groups it has never seen: abdicators'
		// claims and member nudges force it through a recovery before it
		// sequences, so the series continues.
		for _, cls := range classes {
			res, err := h.nds[3].Gcast(wgOf(cls), []byte(string(cls)+"-post"))
			if err != nil || res.Fail {
				t.Fatalf("post-join gcast %s: %v %+v", cls, err, res)
			}
		}
		logsConverge(t, h, wgNames(classes), 2, members...)
		for _, cls := range classes {
			log := h.hs[2].log(wgOf(cls))
			if log[0] != string(cls)+"-pre" || log[1] != string(cls)+"-post" {
				t.Fatalf("%s: handoff lost or reordered a cast: %v", cls, log)
			}
		}
		var abdications int64
		for _, id := range members {
			abdications += h.os[id].Counter("vsync.coord.changes").Value()
		}
		if abdications != int64(moved) {
			t.Fatalf("vsync.coord.changes = %d, want one per moved group (%d)", abdications, moved)
		}
	})
}

// TestPreCoordStashReplay: a client whose failure detector runs ahead of
// the successor's sends its request to a node that does not yet believe it
// coordinates the group. The request must be stashed, not dropped — the
// client's view is already correct, so it would never retransmit — and
// replayed when the successor observes the crash itself.
func TestPreCoordStashReplay(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		ids := []transport.NodeID{1, 2, 3}
		g := wgOf("c0")
		h := newHarnessOn(t, fn, ids...)
		joinAll(t, h, testClasses(1), ids...)

		owner := fn(g, ids)
		successor := fn(g, without(ids, owner))
		client := h.nds[without(without(ids, owner), successor)[0]]

		// Only the client sees the owner die.
		seen := make(chan struct{})
		client.do(func() {
			client.handleItem(transport.Item{Kind: transport.KindDown, From: owner})
			close(seen)
		})
		<-seen
		done := make(chan Result, 1)
		go func() {
			res, _ := client.Gcast(g, []byte("ahead"))
			done <- res
		}()
		select {
		case res := <-done:
			t.Fatalf("cast completed (%+v) before the successor took over", res)
		case <-time.After(30 * time.Millisecond):
		}
		// Count the stashed cast, not the stash: the bootstrap can leave a
		// join request there too (a joiner whose first view named the
		// successor sent it one, and a stash entry lives until the holder's
		// next membership edge), which says nothing about this cast.
		stashed := 0
		if !h.nds[successor].query(func() {
			for _, q := range h.nds[successor].preCoord {
				if q.w.Type == tCastReq && q.from == client.ID() {
					stashed++
				}
			}
		}) {
			t.Fatal("successor closed")
		}
		if stashed != 1 {
			t.Fatalf("successor holds %d stashed casts from the client, want 1", stashed)
		}

		h.crash(owner)
		select {
		case res := <-done:
			if res.Fail || res.GroupSize != 2 {
				t.Fatalf("replayed cast: %+v", res)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("stashed request never replayed after the successor's takeover")
		}
		logsConverge(t, h, []string{g}, 1, without(ids, owner)...)
	})
}

// TestDoubleCrashDuringTakeover crashes two machines back to back, so the
// second dies while the takeovers the first started are still gathering
// reports, for every ordered pair of victims. Each survivor must evict both
// from the groups it already sequences, and every rebuilt series must
// continue past what every member applied: a survivor's gcast to every
// group completes.
func TestDoubleCrashDuringTakeover(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		classes := testClasses(9)
		groups := wgNames(classes)
		ids := []transport.NodeID{1, 2, 3, 4, 5}
		for _, y := range ids {
			for _, z := range ids {
				if y == z {
					continue
				}
				h := newHarnessOn(t, fn, ids...)
				joinAll(t, h, classes, ids...)
				caster := without(without(ids, y), z)[0]
				for _, g := range groups {
					if res, err := h.nds[caster].Gcast(g, []byte(g+"-pre")); err != nil || res.Fail {
						t.Fatalf("crash %d,%d: gcast %s: %v %+v", y, z, g, err, res)
					}
				}
				h.crash(y)
				h.crash(z)
				done := make(chan error, 1)
				go func(nd *Node) {
					for _, g := range groups {
						if res, err := nd.Gcast(g, []byte(g+"-post")); err != nil || res.Fail {
							done <- fmt.Errorf("gcast %s: %v %+v", g, err, res)
							return
						}
					}
					done <- nil
				}(h.nds[caster])
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("crash %d then %d: %v", y, z, err)
					}
				case <-time.After(3 * time.Second):
					t.Fatalf("crash %d then %d: a gcast from %d hung", y, z, caster)
				}
				for _, nd := range h.nds {
					nd.Close()
				}
			}
		}
	})
}

// typeCounter decorates an endpoint and counts every envelope it sends by
// message type, the ones inside a tBatch included.
type typeCounter struct {
	transport.Endpoint
	sent *[tMaxType + 1]atomic.Int64
}

func (c typeCounter) SendOwned(to transport.NodeID, frame []byte) error {
	if w, err := decodeWire(frame); err == nil {
		c.sent[w.Type].Add(1)
		for i := range w.Batch {
			c.sent[w.Batch[i].Type].Add(1)
		}
	}
	return c.Endpoint.SendOwned(to, frame)
}

// TestSteadyStateIsSilent: with no membership change, a placed cluster
// under a second of gcast traffic sends no reconciliation traffic — no
// tSync, no report, bare or batched — and starts no recovery.
func TestSteadyStateIsSilent(t *testing.T) {
	var sent [tMaxType + 1]atomic.Int64
	ids := []transport.NodeID{1, 2, 3}
	classes := testClasses(9)
	h := newHarnessWrapped(t, testPolicy.CoordFn(), func(ep transport.Endpoint) transport.Endpoint {
		return typeCounter{ep, &sent}
	}, ids...)
	joinAll(t, h, classes, ids...)
	waitFor(t, "bootstrap reconciliation to settle", func() bool {
		for _, nd := range h.nds {
			idle := false
			nd.query(func() { idle = nd.cs != nil && len(nd.cs.wait) == 0 })
			if !idle {
				return false
			}
		}
		return true
	})
	time.Sleep(3 * syncRetry) // let the last reports land
	snapshot := func() (counts []int64) {
		for _, id := range ids {
			o := h.os[id]
			for _, typ := range []msgType{tSync, tSyncInfo} {
				counts = append(counts, int64(o.Histogram(o.Series("vsync.frame.bytes.{type}", typ.String())).Count()))
			}
			recoveries := int64(0)
			for _, e := range o.Events().Snapshot() {
				if e.Kind == "takeover-recovery" {
					recoveries++
				}
			}
			counts = append(counts, recoveries)
		}
		return append(counts, sent[tSync].Load(), sent[tSyncInfo].Load())
	}
	before := snapshot()
	var wg sync.WaitGroup
	stop := time.Now().Add(time.Second)
	for _, id := range ids {
		wg.Add(1)
		go func(nd *Node) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				if res, err := nd.Gcast(wgOf(classes[i%len(classes)]), []byte("x")); err != nil || res.Fail {
					t.Errorf("gcast: %v %+v", err, res)
					return
				}
			}
		}(h.nds[id])
	}
	wg.Wait()
	if after := snapshot(); !slices.Equal(before, after) {
		t.Fatalf("steady state moved the sync/syncinfo frame counts or started a recovery:\nbefore %v\nafter  %v", before, after)
	}
}

// TestLowestLiveHandback pins what the constant placement function means:
// exactly one node sequences, and a restarted lower-ID node takes every
// group back — each abdicated, all rebuilt by ONE quorum recovery on the
// newcomer — continuing each series where the abdicator stopped.
func TestLowestLiveHandback(t *testing.T) {
	classes := testClasses(4)
	groups := wgNames(classes)
	ids := []transport.NodeID{1, 2, 3}
	h := newHarnessOn(t, LowestLive, ids...)
	joinAll(t, h, classes, ids...)
	sequencers := func() map[transport.NodeID]int64 {
		out := make(map[transport.NodeID]int64)
		for id, o := range h.os {
			if v := o.Gauge("vsync.coord.groups").Value(); v > 0 && h.nds[id] != nil {
				out[id] = v
			}
		}
		return out
	}
	castAll := func(from transport.NodeID, tag string) {
		t.Helper()
		for _, g := range groups {
			if res, err := h.nds[from].Gcast(g, []byte(g+tag)); err != nil || res.Fail {
				t.Fatalf("gcast %s%s: %v %+v", g, tag, err, res)
			}
		}
	}
	castAll(3, "-a")
	if got := sequencers(); len(got) != 1 || got[1] != int64(len(groups)) {
		t.Fatalf("sequencers = %v, want node 1 holding all %d groups", got, len(groups))
	}
	h.crash(1)
	castAll(3, "-b")
	if got := sequencers(); len(got) != 1 || got[2] != int64(len(groups)) {
		t.Fatalf("after crash sequencers = %v, want node 2 holding all %d groups", got, len(groups))
	}

	nd1 := h.start(1)
	waitFor(t, "node 1 to take every group back", func() bool {
		got := sequencers()
		return len(got) == 1 && got[1] == int64(len(groups))
	})
	if got := h.os[2].Counter("vsync.coord.changes").Value(); got != int64(len(groups)) {
		t.Fatalf("node 2 abdicated %d groups, want %d", got, len(groups))
	}
	recoveries := 0
	for _, e := range h.os[1].Events().Snapshot() {
		if e.Kind == "takeover-recovery" {
			recoveries++
		}
	}
	if recoveries != 1 {
		t.Fatalf("node 1 ran %d quorum recoveries for the handback, want 1", recoveries)
	}
	// No sequence reuse: each rebuilt series starts right after the last
	// number the abdicator assigned.
	handed := make(map[string]uint64)
	next := make(map[string]uint64)
	for _, e := range h.os[2].Events().Snapshot() {
		if e.Kind == "group-abdicate" {
			var g string
			var last uint64
			for _, a := range e.Attrs {
				switch a.Key {
				case "group":
					g = a.Value
				case "last":
					fmt.Sscan(a.Value, &last)
				}
			}
			handed[g] = last
		}
	}
	ch := make(chan struct{})
	nd1.do(func() {
		for g, cg := range nd1.cs.groups {
			next[g] = cg.nextSeq
		}
		close(ch)
	})
	<-ch
	for _, g := range groups {
		if handed[g] == 0 || next[g] != handed[g]+1 {
			t.Fatalf("%s: abdicator stopped at %d, new sequencer continues at %d", g, handed[g], next[g])
		}
	}
	castAll(3, "-c")
	logsConverge(t, h, groups, 3, 2, 3)
	for _, g := range groups {
		if log := h.hs[3].log(g); log[0] != g+"-a" || log[1] != g+"-b" || log[2] != g+"-c" {
			t.Fatalf("%s: series across crash and handback = %v", g, log)
		}
	}
}

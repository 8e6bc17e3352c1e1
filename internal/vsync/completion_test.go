package vsync

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/obs"
	"paso/internal/simnet"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
)

// The completion rule (PROTOCOL.md, "Completing a gcast") over both fabrics
// and both placement functions: whoever answers the caller, every member has
// applied the cast first, and a crash at either end of the shortcut still
// resolves the cast, once.

// testFabric is what the completion tests need of a network: core.Fabric's
// two methods, restated here because core imports this package.
type testFabric interface {
	Join(id transport.NodeID) (transport.Endpoint, error)
	Crash(id transport.NodeID)
}

type simTestFabric struct{ *simnet.Net }

func (f simTestFabric) Join(id transport.NodeID) (transport.Endpoint, error) {
	return f.Net.Join(id)
}

// forEachFabric runs f over the simulated LAN and over loopback TCP, under
// each placement function.
func forEachFabric(t *testing.T, f func(t *testing.T, fab testFabric, fn CoordFn)) {
	fabrics := []struct {
		name string
		mk   func() testFabric
	}{
		{"simnet", func() testFabric { return simTestFabric{simnet.New(cost.DefaultModel())} }},
		// Detector margins as in TestTCPChurn: a stall under -race must not
		// read as a crash.
		{"tcp", func() testFabric {
			return tcp.NewLoopback(tcp.Options{HeartbeatInterval: 10 * time.Millisecond, FailTimeout: 250 * time.Millisecond})
		}},
	}
	for _, fb := range fabrics {
		fb := fb
		t.Run(fb.name, func(t *testing.T) {
			if fb.name == "tcp" && testing.Short() {
				t.Skip("tcp fabric waits on real failure detectors; skipped in -short mode")
			}
			forEachPlacement(t, func(t *testing.T, fn CoordFn) { f(t, fb.mk(), fn) })
		})
	}
}

// applyHandler records which casts it applied. A payload is an 8-byte cast
// number; the response echoes it. before runs inside Deliver, ahead of the
// apply, and is where tests inject slowness and crashes.
type applyHandler struct {
	*testHandler
	mu      sync.Mutex
	applied map[uint64]int
	before  func(cast uint64)
	fail    atomic.Bool
}

func (h *applyHandler) Deliver(_ string, _ transport.NodeID, payload []byte) ([]byte, bool) {
	cast := binary.LittleEndian.Uint64(payload)
	h.mu.Lock()
	before := h.before
	h.mu.Unlock()
	if before != nil {
		before(cast)
	}
	h.mu.Lock()
	h.applied[cast]++
	h.mu.Unlock()
	return payload, h.fail.Load()
}

func (h *applyHandler) setBefore(f func(cast uint64)) {
	h.mu.Lock()
	h.before = f
	h.mu.Unlock()
}

func (h *applyHandler) count(cast uint64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.applied[cast]
}

// compCluster is three nodes on one fabric.
type compCluster struct {
	t   *testing.T
	fab testFabric
	nds map[transport.NodeID]*Node
	hs  map[transport.NodeID]*applyHandler
	os  map[transport.NodeID]*obs.Obs
}

func newCompCluster(t *testing.T, fab testFabric, fn CoordFn) *compCluster {
	t.Helper()
	c := &compCluster{
		t: t, fab: fab,
		nds: make(map[transport.NodeID]*Node),
		hs:  make(map[transport.NodeID]*applyHandler),
		os:  make(map[transport.NodeID]*obs.Obs),
	}
	for id := transport.NodeID(1); id <= 3; id++ {
		ep, err := fab.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		c.hs[id] = &applyHandler{testHandler: newTestHandler(), applied: make(map[uint64]int)}
		c.os[id] = obs.Nop()
		c.nds[id] = NewNodeOpts(ep, c.hs[id], NodeOptions{Obs: c.os[id], Coord: fn})
	}
	t.Cleanup(func() {
		for id, nd := range c.nds {
			fab.Crash(id)
			nd.Close()
		}
	})
	// Every node must see all three before roles are read off the placement.
	for _, nd := range c.nds {
		nd := nd
		waitFor(t, "full live view", func() bool { ids, _ := nd.LiveView(); return len(ids) == 3 })
	}
	return c
}

// roles names the group's sequencer under the full view, another node to be
// its fellow member, and the third.
func roles(fn CoordFn, group string) (seq, member, outsider transport.NodeID) {
	seq = fn(group, []transport.NodeID{1, 2, 3})
	rest := without([]transport.NodeID{1, 2, 3}, seq)
	return seq, rest[0], rest[1]
}

func (c *compCluster) join(group string, ids ...transport.NodeID) {
	c.t.Helper()
	for _, id := range ids {
		if err := c.nds[id].Join(group); err != nil {
			c.t.Fatal(err)
		}
	}
}

func (c *compCluster) crash(id transport.NodeID) {
	c.fab.Crash(id)
	c.nds[id].Close()
	delete(c.nds, id)
}

func castPayload(cast uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, cast)
}

func (c *compCluster) completed(id transport.NodeID, rule string) int64 {
	return c.os[id].Counter("vsync.cast.completed." + rule).Value()
}

// TestCompletionImpliesAllApplied: the moment any Gcast returns — to the
// sequencer, to a member, to an outsider — every member's handler has applied
// it. Checked for each shape the rule distinguishes (a sole member under
// another sequencer, a pair with the sequencer in it, three members), with
// the non-sequencer member slowed so that an answer that did not wait for it
// would be caught.
func TestCompletionImpliesAllApplied(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 200
	}
	forEachFabric(t, func(t *testing.T, fab testFabric, fn CoordFn) {
		c := newCompCluster(t, fab, fn)
		shapes := []struct {
			group   string
			members func(seq, member, outsider transport.NodeID) []transport.NodeID
		}{
			{"wg/c0", func(_, m, _ transport.NodeID) []transport.NodeID { return []transport.NodeID{m} }},
			{"wg/c1", func(s, m, _ transport.NodeID) []transport.NodeID { return []transport.NodeID{s, m} }},
			{"wg/c2", func(s, m, o transport.NodeID) []transport.NodeID { return []transport.NodeID{s, m, o} }},
		}
		for si, sh := range shapes {
			seq, member, outsider := roles(fn, sh.group)
			members := sh.members(seq, member, outsider)
			c.join(sh.group, members...)
			var slow atomic.Uint64
			c.hs[member].setBefore(func(uint64) {
				if slow.Add(1)%16 == 0 {
					time.Sleep(200 * time.Microsecond)
				}
			})
			var next atomic.Uint64
			next.Store(uint64(si+1) << 32) // cast numbers distinct across shapes
			var wg sync.WaitGroup
			for _, origin := range []transport.NodeID{seq, member, outsider} {
				origin := origin
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						cast := next.Add(1)
						res, err := c.nds[origin].Gcast(sh.group, castPayload(cast))
						if err != nil || res.Fail || res.GroupSize != len(members) {
							t.Errorf("%s from %d: res=%+v err=%v, want |g|=%d", sh.group, origin, res, err, len(members))
							return
						}
						for _, m := range members {
							if n := c.hs[m].count(cast); n != 1 {
								t.Errorf("%s cast %d from %d returned with %d applies on member %d", sh.group, cast, origin, n, m)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			c.hs[member].setBefore(nil)
		}
		// The shortcut ran where it should, and nowhere else.
		_, m0, _ := roles(fn, "wg/c0")
		_, m1, _ := roles(fn, "wg/c1")
		if c.completed(m0, "local")+c.completed(m1, "local") == 0 || c.completed(m0, "direct")+c.completed(m1, "direct") == 0 {
			t.Errorf("marked members completed nothing: local=%d/%d direct=%d/%d",
				c.completed(m0, "local"), c.completed(m1, "local"), c.completed(m0, "direct"), c.completed(m1, "direct"))
		}
		seq2, _, _ := roles(fn, "wg/c2")
		if got, want := c.completed(seq2, "gathered"), int64(3*iters); got < want {
			t.Errorf("three-member group: %d gathered completions at its sequencer, want at least %d", got, want)
		}
	})
}

// TestMarkedMemberCrashBeforeReply: the marked member applies a cast and dies
// before its reply or its ack leaves. The sequencer evicts it and answers
// from its own apply; the cast is applied once and the caller is answered.
func TestMarkedMemberCrashBeforeReply(t *testing.T) {
	forEachFabric(t, func(t *testing.T, fab testFabric, fn CoordFn) {
		c := newCompCluster(t, fab, fn)
		const group = "wg/c1"
		seq, member, outsider := roles(fn, group)
		c.join(group, seq, member)
		if res, err := c.nds[outsider].Gcast(group, castPayload(1)); err != nil || res.Fail {
			t.Fatalf("warm-up: %+v %v", res, err)
		}
		c.hs[member].setBefore(func(cast uint64) {
			if cast == 2 {
				fab.Crash(member) // its sends fail from here on
			}
		})
		gathered := c.completed(seq, "gathered")
		res, err := c.nds[outsider].Gcast(group, castPayload(2))
		if err != nil || res.Fail || binary.LittleEndian.Uint64(res.Payload) != 2 {
			t.Fatalf("cast across the member's crash: %+v %v", res, err)
		}
		if n := c.hs[seq].count(2); n != 1 {
			t.Fatalf("sequencer applied the cast %d times", n)
		}
		if c.completed(seq, "gathered") == gathered {
			t.Fatal("the sequencer did not complete the cast")
		}
		c.crash(member) // already off the network; stops its node
		// The group, now the sequencer alone, keeps working.
		if res, err := c.nds[outsider].Gcast(group, castPayload(3)); err != nil || res.Fail || res.GroupSize != 1 {
			t.Fatalf("cast after the eviction: %+v %v", res, err)
		}
		if n := c.hs[seq].count(2); n != 1 {
			t.Fatalf("the caller's retransmission was applied again: %d applies", n)
		}
	})
}

// TestSequencerCrashAfterFanOut: the sequencer dies once the run has reached
// the marked member. A non-fail response resolves the caller directly; a fail
// response has to travel through a sequencer, so the caller's retransmission
// to the successor resolves it, answered from the member's duplicate cache.
// Either way the member applies the cast once.
func TestSequencerCrashAfterFanOut(t *testing.T) {
	for _, fail := range []bool{false, true} {
		fail := fail
		t.Run(map[bool]string{false: "direct-reply", true: "retransmission"}[fail], func(t *testing.T) {
			forEachFabric(t, func(t *testing.T, fab testFabric, fn CoordFn) {
				c := newCompCluster(t, fab, fn)
				const group = "wg/c1"
				seq, member, outsider := roles(fn, group)
				c.join(group, seq, member)
				if res, err := c.nds[outsider].Gcast(group, castPayload(1)); err != nil || res.Fail {
					t.Fatalf("warm-up: %+v %v", res, err)
				}
				c.hs[member].setBefore(func(cast uint64) {
					if cast == 2 {
						c.hs[member].fail.Store(fail)
						fab.Crash(seq) // the run is here, so the fan-out happened
					}
				})
				res, err := c.nds[outsider].Gcast(group, castPayload(2))
				if err != nil || res.Fail != fail {
					t.Fatalf("cast across the sequencer's crash: %+v %v", res, err)
				}
				c.hs[member].fail.Store(false)
				c.crash(seq) // already off the network; stops its node
				// The successor sequences the group; the member is its one replica.
				waitFor(t, "group to recover on the successor", func() bool {
					res, err := c.nds[outsider].Gcast(group, castPayload(3))
					return err == nil && !res.Fail && res.GroupSize == 1
				})
				if n := c.hs[member].count(2); n != 1 {
					t.Fatalf("member applied the cast %d times", n)
				}
			})
		})
	}
}

// TestDirectReplyLostResolvesOnEdge: the sequencer does not vouch for a direct
// reply, so one lost on the way is the caller's to recover. A one-way cut from
// the marked member to the caller — invisible to the sequencer, which retires
// the cast on the member's ack — swallows the reply; the cast stalls, as any
// sustained loss stalls this protocol (FAULTS.md §2.1), until the caller's
// next membership edge re-sends it. The heal is that edge; the duplicate is
// answered from the members' caches, so the cast is applied once.
func TestDirectReplyLostResolvesOnEdge(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		net := simnet.New(cost.DefaultModel())
		c := newCompCluster(t, simTestFabric{net}, fn)
		const group = "wg/c1"
		seq, member, outsider := roles(fn, group)
		c.join(group, seq, member)
		if res, err := c.nds[outsider].Gcast(group, castPayload(1)); err != nil || res.Fail {
			t.Fatalf("warm-up: %+v %v", res, err)
		}
		net.Cut(member, outsider)
		waitFor(t, "caller to see the member go down", func() bool {
			ids, _ := c.nds[outsider].LiveView()
			return len(ids) == 2
		})
		done := make(chan Result, 1)
		go func() {
			res, err := c.nds[outsider].Gcast(group, castPayload(2))
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		waitFor(t, "both members to apply", func() bool {
			return c.hs[seq].count(2) == 1 && c.hs[member].count(2) == 1
		})
		select {
		case res := <-done:
			t.Fatalf("cast resolved across the cut: %+v (the sequencer answered a cast it had marked?)", res)
		case <-time.After(50 * time.Millisecond):
		}
		net.Uncut(member, outsider)
		select {
		case res := <-done:
			if res.Fail || binary.LittleEndian.Uint64(res.Payload) != 2 || res.GroupSize != 2 {
				t.Fatalf("cast after the heal: %+v", res)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cast still unresolved after the heal's membership edge")
		}
		if a, b := c.hs[seq].count(2), c.hs[member].count(2); a != 1 || b != 1 {
			t.Fatalf("re-sent cast applied %d and %d times", a, b)
		}
	})
}

// ackTap decorates an endpoint and records the payload length of every tAck
// it sends, the ones inside a tBatch included, keyed by the cast's origin.
type ackTap struct {
	transport.Endpoint
	mu   *sync.Mutex
	acks *[]tappedAck
}

type tappedAck struct {
	from, origin transport.NodeID
	payload      int
}

func (a ackTap) SendOwned(to transport.NodeID, frame []byte) error {
	if w, err := decodeWire(frame); err == nil {
		a.mu.Lock()
		for _, e := range append([]wire{*w}, w.Batch...) {
			if e.Type == tAck {
				*a.acks = append(*a.acks, tappedAck{a.ID(), tid(e.Origin), len(e.Payload)})
			}
		}
		a.mu.Unlock()
	}
	return a.Endpoint.SendOwned(to, frame)
}

// TestVerdictOnlyAck: in a two-member group whose sequencer is a member, the
// other member is marked and answers a caller that is not the sequencer
// itself. Its ack then carries the verdict only: the sequencer never reads
// the payload of a cast the member answered. The caller gets the same
// response from whichever node it sits on, and a cast from the sequencer,
// which reads its answer off that ack, keeps the payload.
func TestVerdictOnlyAck(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		var mu sync.Mutex
		var acks []tappedAck
		h := newHarnessWrapped(t, fn, func(ep transport.Endpoint) transport.Endpoint {
			return ackTap{ep, &mu, &acks}
		}, 1, 2, 3)
		for _, nd := range h.nds {
			nd := nd
			waitFor(t, "full live view", func() bool { ids, _ := nd.LiveView(); return len(ids) == 3 })
		}
		const group = "wg/c1"
		seq, member, outsider := roles(fn, group)
		for _, id := range []transport.NodeID{seq, member} {
			if err := h.nds[id].Join(group); err != nil {
				t.Fatal(err)
			}
		}
		memberAcks := func() (out []tappedAck) {
			mu.Lock()
			defer mu.Unlock()
			for _, a := range acks {
				if a.from == member {
					out = append(out, a)
				}
			}
			return out
		}
		answered := func() int64 {
			o := h.os[member]
			return o.Counter("vsync.cast.completed.local").Value() + o.Counter("vsync.cast.completed.direct").Value()
		}
		casts, direct := 0, map[transport.NodeID]int{}
		for round := 0; round < 20; round++ {
			for _, origin := range []transport.NodeID{seq, member, outsider} {
				before, sent := answered(), len(memberAcks())
				res, err := h.nds[origin].Gcast(group, []byte("x"))
				casts++
				if want := fmt.Sprintf("len=%d", casts); err != nil || res.Fail || string(res.Payload) != want || res.GroupSize != 2 {
					t.Fatalf("cast %d from %d: %+v %v, want %q from a group of 2", casts, origin, res, err, want)
				}
				waitFor(t, "the member's ack", func() bool { return len(memberAcks()) > sent })
				ack := memberAcks()[sent]
				wasDirect := answered() > before
				if ack.origin != origin || (ack.payload == 0) != wasDirect {
					t.Fatalf("cast %d from %d: member acked %+v, answered directly: %v", casts, origin, ack, wasDirect)
				}
				if wasDirect {
					direct[origin]++
				}
			}
		}
		if direct[seq] != 0 || direct[member] == 0 || direct[outsider] == 0 {
			t.Fatalf("direct answers by caller: sequencer %d, member %d, outsider %d; want 0 and some and some",
				direct[seq], direct[member], direct[outsider])
		}
	})
}

package vsync

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paso/internal/cost"
	"paso/internal/obs"
	"paso/internal/simnet"
	"paso/internal/transport"
)

// testHandler is a deterministic state machine: state is the ordered list
// of delivered payload strings per group. Deliver appends and responds with
// the new length; Snapshot/Install move the whole list.
type testHandler struct {
	mu    sync.Mutex
	state map[string][]string
	views map[string][]transport.NodeID
	// failAll makes Deliver respond fail (to test response gathering).
	failAll bool
}

var _ Handler = (*testHandler)(nil)

func newTestHandler() *testHandler {
	return &testHandler{
		state: make(map[string][]string),
		views: make(map[string][]transport.NodeID),
	}
}

func (h *testHandler) Deliver(group string, origin transport.NodeID, payload []byte) ([]byte, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.state[group] = append(h.state[group], string(payload))
	if h.failAll {
		return nil, true
	}
	return []byte(fmt.Sprintf("len=%d", len(h.state[group]))), false
}

func (h *testHandler) Snapshot(group string) []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(h.state[group])
	return buf.Bytes()
}

func (h *testHandler) Install(group string, state []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var s []string
	_ = gob.NewDecoder(bytes.NewReader(state)).Decode(&s)
	h.state[group] = s
}

func (h *testHandler) Evict(group string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.state, group)
}

func (h *testHandler) ViewChange(group string, members []transport.NodeID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.views[group] = members
}

func (h *testHandler) AppMessage(from transport.NodeID, payload []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.state["_app"] = append(h.state["_app"], fmt.Sprintf("%d:%s", from, payload))
}

func (h *testHandler) log(group string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.state[group]...)
}

// harness bundles a simnet with nodes, handlers, and one Obs per node. A
// nil coordFn leaves the nodes on their default placement (LowestLive); a
// non-nil wrap decorates every node's endpoint.
type harness struct {
	t       *testing.T
	net     *simnet.Net
	eps     map[transport.NodeID]*simnet.Endpoint
	nds     map[transport.NodeID]*Node
	hs      map[transport.NodeID]*testHandler
	os      map[transport.NodeID]*obs.Obs
	coordFn CoordFn
	wrap    func(transport.Endpoint) transport.Endpoint
}

func newHarness(t *testing.T, ids ...transport.NodeID) *harness {
	t.Helper()
	return newHarnessOn(t, nil, ids...)
}

// newHarnessOn builds a harness whose nodes share the placement function fn.
func newHarnessOn(t *testing.T, fn CoordFn, ids ...transport.NodeID) *harness {
	t.Helper()
	return newHarnessWrapped(t, fn, nil, ids...)
}

// newHarnessWrapped is newHarnessOn with every endpoint decorated by wrap.
func newHarnessWrapped(t *testing.T, fn CoordFn, wrap func(transport.Endpoint) transport.Endpoint, ids ...transport.NodeID) *harness {
	t.Helper()
	h := &harness{
		t:       t,
		net:     simnet.New(cost.DefaultModel()),
		eps:     make(map[transport.NodeID]*simnet.Endpoint),
		nds:     make(map[transport.NodeID]*Node),
		hs:      make(map[transport.NodeID]*testHandler),
		os:      make(map[transport.NodeID]*obs.Obs),
		coordFn: fn,
		wrap:    wrap,
	}
	for _, id := range ids {
		h.start(id)
	}
	t.Cleanup(func() {
		for _, nd := range h.nds {
			nd.Close()
		}
	})
	return h
}

func (h *harness) start(id transport.NodeID) *Node {
	h.t.Helper()
	ep, err := h.net.Join(id)
	if err != nil {
		h.t.Fatal(err)
	}
	th := newTestHandler()
	o := obs.New(obs.Options{TraceCap: 256})
	var tep transport.Endpoint = ep
	if h.wrap != nil {
		tep = h.wrap(ep)
	}
	nd := NewNodeOpts(tep, th, NodeOptions{Obs: o, Coord: h.coordFn})
	h.eps[id] = ep
	h.nds[id] = nd
	h.hs[id] = th
	h.os[id] = o
	return nd
}

func (h *harness) crash(id transport.NodeID) {
	h.t.Helper()
	h.net.Crash(id)
	h.nds[id].Close()
	delete(h.nds, id)
	delete(h.hs, id)
	delete(h.eps, id)
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestJoinAndGcastSingleNode(t *testing.T) {
	h := newHarness(t, 1)
	nd := h.nds[1]
	if err := nd.Join("g"); err != nil {
		t.Fatal(err)
	}
	if !nd.Member("g") {
		t.Fatal("not a member after Join")
	}
	res, err := nd.Gcast("g", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fail || string(res.Payload) != "len=1" {
		t.Fatalf("result = %+v", res)
	}
	if res.GroupSize != 1 {
		t.Fatalf("group size = %d", res.GroupSize)
	}
}

func TestGcastReachesAllMembersInOrder(t *testing.T) {
	h := newHarness(t, 1, 2, 3)
	for _, id := range []transport.NodeID{1, 2, 3} {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	const msgs = 30
	for i := 0; i < msgs; i++ {
		res, err := h.nds[1].Gcast("g", []byte(fmt.Sprintf("m%02d", i)))
		if err != nil || res.Fail {
			t.Fatalf("gcast %d: %v %+v", i, err, res)
		}
		if res.GroupSize != 3 {
			t.Fatalf("group size = %d", res.GroupSize)
		}
	}
	waitFor(t, "all logs length", func() bool {
		for _, th := range h.hs {
			if len(th.log("g")) != msgs {
				return false
			}
		}
		return true
	})
	want := h.hs[1].log("g")
	for id, th := range h.hs {
		got := th.log("g")
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d delivered %v, node 1 delivered %v", id, got, want)
			}
		}
	}
}

func TestGcastFromNonMember(t *testing.T) {
	h := newHarness(t, 1, 2)
	if err := h.nds[1].Join("g"); err != nil {
		t.Fatal(err)
	}
	// Node 2 is not a member but can gcast (a read from a non-member
	// machine, paper §4.3).
	res, err := h.nds[2].Gcast("g", []byte("query"))
	if err != nil || res.Fail {
		t.Fatalf("non-member gcast: %v %+v", err, res)
	}
	if len(h.hs[2].log("g")) != 0 {
		t.Fatal("non-member must not deliver")
	}
	if len(h.hs[1].log("g")) != 1 {
		t.Fatal("member did not deliver")
	}
}

func TestGcastEmptyGroupFails(t *testing.T) {
	h := newHarness(t, 1)
	res, err := h.nds[1].Gcast("nothing", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fail {
		t.Fatal("gcast to empty group should fail")
	}
}

func TestFailResponsesGathered(t *testing.T) {
	h := newHarness(t, 1, 2)
	h.hs[1].failAll = true
	h.hs[2].failAll = true
	if err := h.nds[1].Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := h.nds[2].Join("g"); err != nil {
		t.Fatal(err)
	}
	res, err := h.nds[1].Gcast("g", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fail {
		t.Fatal("all-fail gcast should return fail")
	}
	// One non-fail responder is preferred over fails.
	h.hs[2].failAll = false
	res, err = h.nds[1].Gcast("g", []byte("y"))
	if err != nil || res.Fail {
		t.Fatalf("mixed responses should prefer non-fail: %v %+v", err, res)
	}
}

func TestJoinStateTransfer(t *testing.T) {
	h := newHarness(t, 1, 2)
	if err := h.nds[1].Join("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := h.nds[1].Gcast("g", []byte(fmt.Sprintf("pre%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Node 2 joins late; must receive the 10 pre-join messages via state
	// transfer, then deliver new ones.
	if err := h.nds[2].Join("g"); err != nil {
		t.Fatal(err)
	}
	if got := h.hs[2].log("g"); len(got) != 10 {
		t.Fatalf("after join, state = %v (len %d), want 10 entries", got, len(got))
	}
	if _, err := h.nds[1].Gcast("g", []byte("post")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post delivered at joiner", func() bool {
		return len(h.hs[2].log("g")) == 11
	})
	if got := h.hs[2].log("g"); got[10] != "post" {
		t.Fatalf("joiner log tail = %q", got[10])
	}
}

func TestLeaveErasesState(t *testing.T) {
	h := newHarness(t, 1, 2)
	for _, id := range []transport.NodeID{1, 2} {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.nds[1].Gcast("g", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := h.nds[2].Leave("g"); err != nil {
		t.Fatal(err)
	}
	if h.nds[2].Member("g") {
		t.Fatal("still member after Leave")
	}
	if len(h.hs[2].log("g")) != 0 {
		t.Fatal("state not erased on leave")
	}
	// Post-leave gcasts only reach node 1.
	if _, err := h.nds[1].Gcast("g", []byte("y")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node1 has 2", func() bool { return len(h.hs[1].log("g")) == 2 })
	if len(h.hs[2].log("g")) != 0 {
		t.Fatal("ex-member received post-leave delivery")
	}
}

func TestLeaveOfNonMemberIsNoop(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.nds[1].Leave("never-joined"); err != nil {
		t.Fatal(err)
	}
}

func TestMemberCrashEviction(t *testing.T) {
	h := newHarness(t, 1, 2, 3)
	for id := transport.NodeID(1); id <= 3; id++ {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	h.crash(3)
	// Gcast must complete without node 3's ack.
	res, err := h.nds[2].Gcast("g", []byte("after-crash"))
	if err != nil || res.Fail {
		t.Fatalf("gcast after member crash: %v %+v", err, res)
	}
	waitFor(t, "view shrinks", func() bool {
		return len(h.nds[1].Members("g")) == 2
	})
}

func TestGcastConcurrentWithCoordinatorCrash(t *testing.T) {
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		ids := []transport.NodeID{1, 2, 3}
		h := newHarnessOn(t, fn, ids...)
		for _, id := range ids {
			if err := h.nds[id].Join("g"); err != nil {
				t.Fatal(err)
			}
		}
		owner := fn("g", ids)
		survivors := without(ids, owner)
		done := make(chan error, 1)
		sender := h.nds[survivors[1]]
		go func() {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				_, err = sender.Gcast("g", []byte(fmt.Sprintf("m%d", i)))
			}
			done <- err
		}()
		time.Sleep(time.Millisecond)
		h.crash(owner)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("gcast stream broke across failover: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("gcasts hung across coordinator crash")
		}
		// Survivors must agree on one log holding each cast once: dedup
		// must have prevented double delivery of the retransmissions.
		logsConverge(t, h, []string{"g"}, 50, survivors...)
	})
}

func TestRestartRejoinGetsFreshState(t *testing.T) {
	h := newHarness(t, 1, 2)
	for _, id := range []transport.NodeID{1, 2} {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.nds[1].Gcast("g", []byte("before")); err != nil {
		t.Fatal(err)
	}
	h.crash(2)
	if _, err := h.nds[1].Gcast("g", []byte("while-down")); err != nil {
		t.Fatal(err)
	}
	// Restart node 2 (fresh memory) and re-join.
	h.start(2)
	if err := h.nds[2].Join("g"); err != nil {
		t.Fatal(err)
	}
	got := h.hs[2].log("g")
	if len(got) != 2 || got[0] != "before" || got[1] != "while-down" {
		t.Fatalf("rejoined state = %v", got)
	}
}

func TestViewChangeNotifications(t *testing.T) {
	h := newHarness(t, 1, 2)
	if err := h.nds[1].Join("g"); err != nil {
		t.Fatal(err)
	}
	if err := h.nds[2].Join("g"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "node1 sees 2 members", func() bool {
		h.hs[1].mu.Lock()
		defer h.hs[1].mu.Unlock()
		return len(h.hs[1].views["g"]) == 2
	})
}

func TestMembersView(t *testing.T) {
	h := newHarness(t, 1, 2, 3)
	for id := transport.NodeID(1); id <= 3; id++ {
		if err := h.nds[id].Join("g"); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "full view", func() bool {
		return len(h.nds[1].Members("g")) == 3
	})
	if got := h.nds[1].Members("none"); got != nil {
		t.Fatalf("Members of unknown group = %v", got)
	}
}

func TestAliveTracksCrashes(t *testing.T) {
	h := newHarness(t, 1, 2, 3)
	alive := func() int { ids, _ := h.nds[1].LiveView(); return len(ids) }
	waitFor(t, "3 alive", func() bool { return alive() == 3 })
	h.crash(3)
	waitFor(t, "2 alive", func() bool { return alive() == 2 })
}

// TestCloseUnblocksCalls crowds a node with 32 Gcast and 8 LeaseRead callers,
// on a member and on a non-member, then closes the node or crashes its
// transport: every call returns within 10 s — with its result, ErrClosed or a
// lease error, whether the loop held the call or it still sat in the command
// queue — and the goroutines wind down.
func TestCloseUnblocksCalls(t *testing.T) {
	for _, caller := range []struct {
		name string
		id   transport.NodeID
	}{{"member", 2}, {"non-member", 3}} {
		for _, end := range []string{"close", "crash"} {
			t.Run(caller.name+"/"+end, func(t *testing.T) {
				h := newLeaseHarness(t, 1, 2, 3)
				for _, id := range []transport.NodeID{1, 2} {
					if err := h.nds[id].Join("wg/a"); err != nil {
						t.Fatal(err)
					}
				}
				h.waitEpochAgreement(3)
				nd := h.nds[caller.id]
				base := runtime.NumGoroutine()

				var calls atomic.Int64
				errc := make(chan error, 40)
				var wg sync.WaitGroup
				loop := func(call func() error) {
					defer wg.Done()
					for {
						err := call()
						calls.Add(1)
						switch {
						case err == nil, errors.Is(err, ErrLeaseFenced), errors.Is(err, ErrLeaseTimeout):
						case errors.Is(err, ErrClosed):
							return
						default:
							errc <- err
							return
						}
					}
				}
				for i := 0; i < 32; i++ {
					wg.Add(1)
					go loop(func() error { _, err := nd.Gcast("wg/a", []byte("x")); return err })
				}
				for i := 0; i < 8; i++ {
					wg.Add(1)
					go loop(func() error {
						_, err := nd.LeaseRead("wg/a", 1, []byte("q"), 100*time.Millisecond)
						return err
					})
				}
				waitFor(t, "calls under way", func() bool { return calls.Load() >= 200 })
				if end == "close" {
					nd.Close()
				} else {
					h.net.Crash(caller.id)
				}
				returned := make(chan struct{})
				go func() { wg.Wait(); close(returned) }()
				select {
				case <-returned:
				case <-time.After(10 * time.Second):
					t.Fatal("a call hung after the node went down")
				}
				close(errc)
				for err := range errc {
					t.Errorf("call failed with %v", err)
				}
				h.mu.Lock()
				nd.Close()
				delete(h.nds, caller.id)
				h.mu.Unlock()
				waitFor(t, "caller goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
			})
		}
	}
}

func TestManyGroupsIndependent(t *testing.T) {
	h := newHarness(t, 1, 2)
	for i := 0; i < 8; i++ {
		g := fmt.Sprintf("g%d", i)
		if err := h.nds[1].Join(g); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := h.nds[2].Join(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		g := fmt.Sprintf("g%d", i)
		res, err := h.nds[2].Gcast(g, []byte(g))
		if err != nil || res.Fail {
			t.Fatalf("gcast %s: %v %+v", g, err, res)
		}
		wantSize := 1
		if i%2 == 0 {
			wantSize = 2
		}
		if res.GroupSize != wantSize {
			t.Fatalf("group %s size = %d, want %d", g, res.GroupSize, wantSize)
		}
	}
}

// memberProbe wraps a handler to record what Member answers at the moments
// the published view is ordered against: inside Install and the deliveries
// that follow it during a join, and inside Evict.
type memberProbe struct {
	*testHandler
	node          atomic.Pointer[Node]
	joined        atomic.Bool // set once Join has returned
	duringInstall []bool
	duringEvict   []bool
	earlyTail     int // deliveries made before the view was published
}

func (p *memberProbe) Install(group string, state []byte) {
	p.duringInstall = append(p.duringInstall, p.node.Load().Member(group))
	p.testHandler.Install(group, state)
}

func (p *memberProbe) Deliver(group string, origin transport.NodeID, payload []byte) ([]byte, bool) {
	if !p.joined.Load() && !p.node.Load().Member(group) {
		p.earlyTail++
	}
	return p.testHandler.Deliver(group, origin, payload)
}

func (p *memberProbe) Evict(group string) {
	p.duringEvict = append(p.duringEvict, p.node.Load().Member(group))
	p.testHandler.Evict(group)
}

// TestMemberPublishedOrdering pins the published-membership rule: Member
// turns true only after the snapshot install and the buffered-tail drain,
// is true by the time Join returns, and is false again before the handler
// is told to evict.
func TestMemberPublishedOrdering(t *testing.T) {
	h := newHarness(t, 1)
	caster := h.nds[1]
	if err := caster.Join("g"); err != nil {
		t.Fatal(err)
	}
	// Keep casts flowing while node 2 joins, so that its join has ordered
	// events to buffer behind the snapshot.
	stop := make(chan struct{})
	var casters sync.WaitGroup
	casters.Add(1)
	go func() {
		defer casters.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := caster.Gcast("g", []byte(fmt.Sprintf("m%d", i))); err != nil {
				return
			}
		}
	}()

	ep, err := h.net.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	probe := &memberProbe{testHandler: newTestHandler()}
	nd := NewNodeOpts(ep, probe, NodeOptions{})
	probe.node.Store(nd)
	t.Cleanup(nd.Close)

	for round := 0; round < 5; round++ {
		probe.joined.Store(false)
		if err := nd.Join("g"); err != nil {
			t.Fatal(err)
		}
		if !nd.Member("g") {
			t.Fatal("Member is false after Join returned")
		}
		probe.joined.Store(true)
		if err := nd.Leave("g"); err != nil {
			t.Fatal(err)
		}
		if nd.Member("g") {
			t.Fatal("Member is true after Leave returned")
		}
	}
	close(stop)
	casters.Wait()
	nd.Close() // orders the probe's loop-side writes before the reads below

	if len(probe.duringInstall) == 0 || len(probe.duringEvict) != 5 {
		t.Fatalf("%d installs, %d evicts; want at least one install and 5 evicts",
			len(probe.duringInstall), len(probe.duringEvict))
	}
	for _, m := range probe.duringInstall {
		if m {
			t.Fatal("Member was already true inside Install")
		}
	}
	for _, m := range probe.duringEvict {
		if m {
			t.Fatal("Member was still true inside Evict")
		}
	}
	t.Logf("%d buffered-tail deliveries ran before the view was published", probe.earlyTail)
}

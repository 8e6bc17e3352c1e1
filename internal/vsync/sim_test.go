package vsync

import (
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// The step simulator drives the real Node code with no goroutines: every
// node is built by newNode and stepped by the simulator itself, which owns
// every interleaving. The network is one FIFO per directed link; each step
// is one draw from a choice stream — deliver the head of a link (or a burst
// of heads bound for one node, settled together as one loop burst would),
// run a caller's command, fire a node's retry, or inject a FAULTS.md kind:
// duplicate or hold a link's head frame, crash with amnesia, or restart;
// the detector model (simConfig.detector) adds drops, one-way cuts and
// heals (with the detector events simnet synthesizes) and flaps. The stream
// is the adversary of Aspnes' asynchronous model: it picks which pending
// message is delivered next.
//
// A run is its list of choices, so a failing run replays exactly and
// shrinks by deleting and lowering choices (shrinkSim). The invariants are
// checked after every step (check), and once the schedule is exhausted
// the network is healed and run to quiet (quiesce), after which no call
// may still be pending.

// simGroups are the groups every run uses.
var simGroups = []string{"a", "b"}

// simItem is one entry of a link's FIFO: a frame, or a failure-detector
// event about the link's sender.
type simItem struct {
	kind    transport.ItemKind
	payload []byte
}

// simLink names one directed link.
type simLink struct{ from, to transport.NodeID }

// simEndpoint is a node's stepped attachment: sends append to the link's
// FIFO, and nothing is ever received through Recv.
type simEndpoint struct {
	s  *sim
	id transport.NodeID
}

func (e *simEndpoint) ID() transport.NodeID { return e.id }

func (e *simEndpoint) Send(to transport.NodeID, payload []byte) error {
	return e.SendOwned(to, append([]byte(nil), payload...))
}

func (e *simEndpoint) SendOwned(to transport.NodeID, payload []byte) error {
	e.s.send(e, to, payload)
	return nil
}

func (e *simEndpoint) Recv() <-chan transport.Item { return nil }

func (e *simEndpoint) Alive() []transport.NodeID { return e.s.aliveFor(e.id) }

func (e *simEndpoint) Close() error { return nil }

// simHandler is the replicated state machine: per group, the payloads
// delivered in order. Applying a payload twice is an invariant violation.
type simHandler struct {
	s     *sim
	id    transport.NodeID
	state map[string][]string
}

func (h *simHandler) Deliver(group string, _ transport.NodeID, payload []byte) ([]byte, bool) {
	p := string(payload)
	if slices.Contains(h.state[group], p) {
		h.s.fail("double-apply", "node %d applied %s to %s twice", h.id, p, group)
	}
	h.state[group] = append(h.state[group], p)
	return []byte(strconv.Itoa(len(h.state[group]))), false
}

func (h *simHandler) Snapshot(group string) []byte {
	return []byte(strings.Join(h.state[group], ","))
}

func (h *simHandler) Install(group string, state []byte) {
	h.state[group] = nil
	if len(state) > 0 {
		h.state[group] = strings.Split(string(state), ",")
	}
}

func (h *simHandler) Evict(group string) { delete(h.state, group) }

func (h *simHandler) ViewChange(string, []transport.NodeID) {}

func (h *simHandler) AppMessage(transport.NodeID, []byte) {}

// simCall is one caller's command, run on its node and awaiting resolution.
type simCall struct {
	p    *pendingReq
	what string
}

// simNode is one live incarnation.
type simNode struct {
	n     *Node
	ep    *simEndpoint
	h     *simHandler
	calls []*simCall
}

// choiceStream is the run's source of choices: a seeded generator, or a
// fixed list being replayed. Every value drawn is recorded, with the index
// each step's draws begin at.
type choiceStream struct {
	rng   *rand.Rand // nil while replaying
	fixed []uint64
	used  []uint64
	marks []int
}

// draw returns a choice in [0, n). A replayed list that runs out mid-step
// yields zeros.
func (c *choiceStream) draw(n int) int {
	var v uint64
	switch i := len(c.used); {
	case c.rng != nil:
		v = c.rng.Uint64N(uint64(n))
	case i < len(c.fixed):
		v = c.fixed[i]
	}
	c.used = append(c.used, v)
	return int(v % uint64(n))
}

// simConfig fixes what a seed chooses before its schedule: the ensemble
// size and the placement function.
type simConfig struct {
	nodes     int
	coord     CoordFn
	placement string
	steps     int // schedule length when generating
	// detector adds the faults that make one node's failure detector
	// disagree with another's: one-way cuts and heals, flaps, and drops
	// (closed by a detector edge). Without it a schedule injects crashes,
	// restarts, duplicates and reorders, which every detector sees alike.
	detector bool
}

func simConfigFor(seed uint64, detector bool) simConfig {
	cfg := simConfig{nodes: 3 + int(seed%2), coord: LowestLive, placement: "lowest", steps: 150, detector: detector}
	if seed%3 == 2 {
		cfg.coord, cfg.placement = testPolicy.CoordFn(), "rendezvous"
	}
	return cfg
}

// sim is one simulated ensemble.
type sim struct {
	cfg   simConfig
	d     *choiceStream
	o     *obs.Obs
	nodes []*simNode // by ID; nil while crashed
	links [][][]simItem
	cuts  map[simLink]bool
	inc   []uint64 // incarnations per ID
	casts int
	log   []string
	// steps counts schedule steps, total every step taken (setup and
	// quiesce included).
	steps, total int
	// err is the first violation, "kind: detail".
	err, errKind string
}

func newSim(cfg simConfig, d *choiceStream) *sim {
	s := &sim{
		cfg:   cfg,
		d:     d,
		o:     obs.Nop(),
		nodes: make([]*simNode, cfg.nodes+1),
		links: make([][][]simItem, cfg.nodes+1),
		cuts:  make(map[simLink]bool),
		inc:   make([]uint64, cfg.nodes+1),
	}
	for i := range s.links {
		s.links[i] = make([][]simItem, cfg.nodes+1)
	}
	// Placeholders first, so every node boots with the whole ensemble in
	// its view.
	for id := 1; id <= cfg.nodes; id++ {
		s.nodes[id] = &simNode{}
	}
	for id := 1; id <= cfg.nodes; id++ {
		s.boot(transport.NodeID(id))
	}
	// Setup: group a holds every node but the last, group b every node but
	// the first, so each node can join one group and leave the other.
	for id := 1; id <= cfg.nodes; id++ {
		sn := s.nodes[id]
		if id < cfg.nodes {
			s.issue(sn, tJoinReq, "a")
		}
		if id > 1 {
			s.issue(sn, tJoinReq, "b")
		}
		sn.n.settle()
		s.settleQuiet("setup")
	}
	s.log = append(s.log[:0], fmt.Sprintf("setup: %d nodes, %s placement; a = 1..%d, b = 2..%d",
		cfg.nodes, cfg.placement, cfg.nodes-1, cfg.nodes))
	return s
}

// boot starts an incarnation of id on a fresh endpoint. Its request IDs
// start at a value unique to the incarnation.
func (s *sim) boot(id transport.NodeID) {
	s.inc[id]++
	sn := &simNode{h: &simHandler{s: s, id: id, state: make(map[string][]string)}}
	sn.ep = &simEndpoint{s: s, id: id}
	s.nodes[id] = sn
	sn.n = newNode(sn.ep, sn.h, NodeOptions{Obs: s.o, Coord: s.cfg.coord}, uint64(id)<<48|s.inc[id]<<40)
	sn.n.settle()
}

func (s *sim) live(id transport.NodeID) bool { return s.nodes[id] != nil }

func (s *sim) liveIDs() []transport.NodeID {
	var out []transport.NodeID
	for id := 1; id < len(s.nodes); id++ {
		if s.nodes[id] != nil {
			out = append(out, transport.NodeID(id))
		}
	}
	return out
}

// aliveFor is what id's failure detector sees: itself, and every live peer
// whose link toward it is not cut.
func (s *sim) aliveFor(id transport.NodeID) []transport.NodeID {
	var out []transport.NodeID
	for _, p := range s.liveIDs() {
		if p == id || !s.cuts[simLink{p, id}] {
			out = append(out, p)
		}
	}
	return out
}

// send appends a frame to its link, unless the sender is a dead
// incarnation, the receiver is down or the link is cut.
func (s *sim) send(e *simEndpoint, to transport.NodeID, payload []byte) {
	if sn := s.nodes[e.id]; sn == nil || sn.ep != e || !s.live(to) || s.cuts[simLink{e.id, to}] {
		return
	}
	s.push(simLink{e.id, to}, simItem{kind: transport.KindMsg, payload: payload})
}

func (s *sim) push(l simLink, it simItem) {
	s.links[l.from][l.to] = append(s.links[l.from][l.to], it)
}

func (s *sim) pop(l simLink) simItem {
	q := s.links[l.from][l.to]
	it := q[0]
	s.links[l.from][l.to] = q[1:]
	return it
}

// busy lists the non-empty links, to one node if to is non-zero, whose
// head (when frameHead) is a frame.
func (s *sim) busy(to transport.NodeID, frameHead bool) []simLink {
	var out []simLink
	for f := 1; f < len(s.links); f++ {
		for t := 1; t < len(s.links); t++ {
			q := s.links[f][t]
			if len(q) == 0 || (to != 0 && transport.NodeID(t) != to) || (frameHead && q[0].kind != transport.KindMsg) {
				continue
			}
			out = append(out, simLink{transport.NodeID(f), transport.NodeID(t)})
		}
	}
	return out
}

func (s *sim) fail(kind, format string, args ...any) {
	if s.err == "" {
		s.errKind = kind
		s.err = kind + ": " + fmt.Sprintf(format, args...)
	}
}

func (s *sim) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}

// run plays the schedule, then heals and quiesces the network. A panic in
// node code is a violation like any other.
func (s *sim) run() {
	defer func() {
		if r := recover(); r != nil {
			s.fail("panic", "%v", r)
		}
	}()
	for s.err == "" && s.more() {
		s.d.marks = append(s.d.marks, len(s.d.used))
		s.step()
		s.steps++
		s.total++
		s.check(false)
	}
	if s.err == "" {
		s.quiesce()
	}
}

// more reports whether the schedule has another step.
func (s *sim) more() bool {
	if s.d.rng != nil {
		return s.steps < s.cfg.steps
	}
	return len(s.d.used) < len(s.d.fixed)
}

// step draws and applies one schedule step. Low values are the simple
// steps — deliveries first — so lowering a choice simplifies a schedule.
func (s *sim) step() {
	switch a := s.d.draw(100); {
	case a < 55:
		s.deliver()
	case a < 70:
		s.call()
	case a < 77:
		s.retry()
	case a < 81:
		if s.cfg.detector {
			s.dropHead()
		} else {
			s.deliver()
		}
	case a < 85:
		s.dupHead()
	case a < 89:
		s.holdHead()
	case a < 95 && !s.cfg.detector:
		s.deliver()
	case a < 92:
		s.cut()
	case a < 95:
		s.heal()
	case a < 97:
		s.crash()
	case a < 99:
		s.restart()
	case s.cfg.detector:
		s.flap()
	default:
		s.deliver()
	}
}

// burst draws how many inputs one loop burst absorbs: mostly one.
func (s *sim) burst() int { return max(1, s.d.draw(4)) }

func (s *sim) deliver() {
	ls := s.busy(0, false)
	if len(ls) == 0 {
		return
	}
	l := ls[s.d.draw(len(ls))]
	var parts []string
	for i, k := 0, s.burst(); i < k; i++ {
		if i > 0 {
			in := s.busy(l.to, false)
			if len(in) == 0 {
				break
			}
			l = in[s.d.draw(len(in))]
		}
		parts = append(parts, s.hand(l))
	}
	s.nodes[l.to].n.settle()
	s.logf("deliver %s", strings.Join(parts, " + "))
}

// hand gives a link's head to its receiver, describing it.
func (s *sim) hand(l simLink) string {
	it := s.pop(l)
	s.nodes[l.to].n.handleItem(transport.Item{Kind: it.kind, From: l.from, Payload: it.payload})
	return fmt.Sprintf("%d→%d %s", l.from, l.to, describeItem(it))
}

func describeItem(it simItem) string {
	switch it.kind {
	case transport.KindUp:
		return "up"
	case transport.KindDown:
		return "down"
	}
	w, err := decodeWire(it.payload)
	if err != nil {
		return "corrupt"
	}
	return describeWire(w)
}

func describeWire(w *wire) string {
	switch w.Type {
	case tBatch:
		parts := make([]string, len(w.Batch))
		for i := range w.Batch {
			parts[i] = describeWire(&w.Batch[i])
		}
		return "[" + strings.Join(parts, " ") + "]"
	case tOrderedRun:
		return fmt.Sprintf("run(%s %d..%d)", w.Group, w.Seq, w.Seq+uint64(len(w.Batch))-1)
	case tOrdered:
		ev := map[eventKind]string{evData: "data", evJoin: "join", evLeave: "leave", evDown: "down"}[w.Event]
		return fmt.Sprintf("ordered(%s %d %s %d)", w.Group, w.Seq, ev, w.Subject)
	case tSyncInfo:
		names := slices.Sorted(maps.Keys(w.Infos))
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s:%d", name, w.Infos[name])
		}
		return fmt.Sprintf("syncinfo(%s live %v)", strings.Join(parts, " "), idsFromWire(w))
	case tCastReq, tJoinReq, tLeaveReq, tAck, tState, tResync, tRestate:
		return fmt.Sprintf("%s(%s)", w.Type, w.Group)
	}
	return w.Type.String()
}

// call runs a burst of caller commands on one node.
func (s *sim) call() {
	live := s.liveIDs()
	sn := s.nodes[live[s.d.draw(len(live))]]
	var parts []string
	for i, k := 0, s.burst(); i < k; i++ {
		t := tCastReq
		switch s.d.draw(10) {
		case 7, 8:
			t = tJoinReq
		case 9:
			t = tLeaveReq
		}
		g := simGroups[s.d.draw(len(simGroups))]
		if t != tCastReq && slices.ContainsFunc(sn.calls, func(c *simCall) bool {
			return c.p.w.Group == g && c.p.w.Type != tCastReq && len(c.p.done) == 0
		}) {
			continue // one membership change per group at a time, as core's callers keep
		}
		parts = append(parts, s.issue(sn, t, g))
	}
	if len(parts) == 0 {
		return
	}
	sn.n.settle()
	s.logf("call @%d %s", sn.ep.id, strings.Join(parts, " + "))
}

// issue runs one caller command on a node's loop, as run does for a queued
// command, and tracks the call until it resolves.
func (s *sim) issue(sn *simNode, t msgType, group string) string {
	var p *pendingReq
	what := fmt.Sprintf("%s %s", map[msgType]string{tCastReq: "cast", tJoinReq: "join", tLeaveReq: "leave"}[t], group)
	if t == tCastReq {
		s.casts++
		payload := fmt.Sprintf("c%d", s.casts)
		p = &pendingReq{w: wire{Type: tCastReq, Group: group, Payload: []byte(payload)}, done: make(chan struct{}, 1)}
		what += " " + payload
	} else {
		p = newReq(t, group)
	}
	sn.calls = append(sn.calls, &simCall{p: p, what: what})
	sn.n.run(command{call: p})
	return what
}

func (s *sim) retry() {
	ws := s.waiting()
	if len(ws) == 0 {
		return
	}
	sn := ws[s.d.draw(len(ws))]
	sn.n.retrySync()
	sn.n.settle()
	s.logf("retry @%d", sn.ep.id)
}

// dropHead loses a link's head frame. A loss is survivable only once a
// membership event closes it (FAULTS.md §3): the sender's detector sees the
// receiver go down and come back, as a writer whose connection reset does.
func (s *sim) dropHead() {
	ls := s.busy(0, true)
	if len(ls) == 0 {
		return
	}
	l := ls[s.d.draw(len(ls))]
	s.logf("drop %d→%d %s", l.from, l.to, describeItem(s.pop(l)))
	if back := (simLink{l.to, l.from}); s.live(l.from) && !s.cuts[back] {
		s.push(back, simItem{kind: transport.KindDown})
		s.push(back, simItem{kind: transport.KindUp})
	}
}

func (s *sim) dupHead() {
	ls := s.busy(0, true)
	if len(ls) == 0 {
		return
	}
	l := ls[s.d.draw(len(ls))]
	q := s.links[l.from][l.to]
	s.links[l.from][l.to] = slices.Insert(q, 1, q[0])
	s.logf("dup %d→%d %s", l.from, l.to, describeItem(q[0]))
}

// holdHead lets the frame behind a link's head frame overtake it: the
// delay fault, which reorders a link.
func (s *sim) holdHead() {
	var ls []simLink
	for _, l := range s.busy(0, true) {
		if q := s.links[l.from][l.to]; len(q) > 1 && q[1].kind == transport.KindMsg {
			ls = append(ls, l)
		}
	}
	if len(ls) == 0 {
		return
	}
	l := ls[s.d.draw(len(ls))]
	q := s.links[l.from][l.to]
	q[0], q[1] = q[1], q[0]
	s.logf("hold %d→%d %s", l.from, l.to, describeItem(q[1]))
}

// cut severs one direction: later frames on it are lost, and the receiver
// sees the sender go down.
func (s *sim) cut() {
	live := s.liveIDs()
	from, to := live[s.d.draw(len(live))], live[s.d.draw(len(live))]
	l := simLink{from, to}
	if from == to || s.cuts[l] {
		return
	}
	s.cuts[l] = true
	s.push(l, simItem{kind: transport.KindDown})
	s.logf("cut %d→%d", from, to)
}

func (s *sim) heal() {
	if ls := s.cutLinks(); len(ls) > 0 {
		s.healLink(ls[s.d.draw(len(ls))])
	}
}

// cutLinks lists the cut links in a fixed order.
func (s *sim) cutLinks() []simLink {
	ls := slices.Collect(maps.Keys(s.cuts))
	slices.SortFunc(ls, func(a, b simLink) int {
		if a.from != b.from {
			return int(a.from) - int(b.from)
		}
		return int(a.to) - int(b.to)
	})
	return ls
}

func (s *sim) healLink(l simLink) {
	delete(s.cuts, l)
	if s.live(l.from) && s.live(l.to) {
		s.push(l, simItem{kind: transport.KindUp})
	}
	s.logf("heal %d→%d", l.from, l.to)
}

// crash stops a node with amnesia: frames to it are lost, and every peer
// that hears it sees it go down after the frames it already sent.
func (s *sim) crash() {
	live := s.liveIDs()
	if len(live) < 2 {
		return
	}
	s.crashNode(live[s.d.draw(len(live))])
}

func (s *sim) crashNode(id transport.NodeID) {
	s.nodes[id] = nil
	for p := 1; p < len(s.links); p++ {
		s.links[p][id] = nil
		if s.live(transport.NodeID(p)) && !s.cuts[simLink{id, transport.NodeID(p)}] {
			s.push(simLink{id, transport.NodeID(p)}, simItem{kind: transport.KindDown})
		}
	}
	s.logf("crash %d", id)
}

// restart boots a crashed node afresh; it and its peers see each other come
// up across every link that is not cut.
func (s *sim) restart() {
	var down []transport.NodeID
	for id := 1; id < len(s.nodes); id++ {
		if s.nodes[id] == nil {
			down = append(down, transport.NodeID(id))
		}
	}
	if len(down) == 0 {
		return
	}
	id := down[s.d.draw(len(down))]
	for _, p := range s.liveIDs() {
		if !s.cuts[simLink{id, p}] {
			s.push(simLink{id, p}, simItem{kind: transport.KindUp})
		}
		if !s.cuts[simLink{p, id}] {
			s.push(simLink{p, id}, simItem{kind: transport.KindUp})
		}
	}
	s.boot(id)
	s.logf("restart %d", id)
}

// flap makes every peer that hears a node see it go down and come straight
// back; the node itself notices nothing.
func (s *sim) flap() {
	live := s.liveIDs()
	id := live[s.d.draw(len(live))]
	for _, p := range live {
		if l := (simLink{id, p}); p != id && !s.cuts[l] {
			s.push(l, simItem{kind: transport.KindDown})
			s.push(l, simItem{kind: transport.KindUp})
		}
	}
	s.logf("flap %d", id)
}

// quietLimit bounds the steps quiesce may take before the network counts
// as never going quiet.
const quietLimit = 3000

// quiesce heals every cut, then delivers every link head in a fixed order
// and fires retries while wait sets are non-empty, until nothing is in
// flight. Then no call on a live node may be pending, and every group must
// have converged.
func (s *sim) quiesce() {
	for _, l := range s.cutLinks() {
		s.healLink(l)
	}
	s.settleQuiet("quiesce")
	if s.err != "" {
		return
	}
	for _, id := range s.liveIDs() {
		for _, c := range s.nodes[id].calls {
			if len(c.p.done) == 0 {
				s.fail("pending", "node %d: %s still pending once the network is quiet", id, c.what)
				return
			}
		}
	}
	s.check(true)
}

// settleQuiet runs the network to quiet without drawing choices.
func (s *sim) settleQuiet(phase string) {
	for i := 0; ; i++ {
		if i == quietLimit {
			s.fail("no-quiet", "%s: the network is still busy after %d steps", phase, quietLimit)
			return
		}
		if ls := s.busy(0, false); len(ls) > 0 {
			l := ls[0]
			d := s.hand(l)
			s.nodes[l.to].n.settle()
			s.logf("%s: deliver %s", phase, d)
		} else if ws := s.waiting(); len(ws) > 0 {
			sn := ws[0]
			sn.n.retrySync()
			sn.n.settle()
			s.logf("%s: retry @%d", phase, sn.ep.id)
		} else {
			return
		}
		s.total++
		if s.check(false); s.err != "" {
			return
		}
	}
}

// waiting lists the live nodes whose wait set is not empty.
func (s *sim) waiting() []*simNode {
	var ws []*simNode
	for _, id := range s.liveIDs() {
		if cs := s.nodes[id].n.cs; cs != nil && len(cs.wait) > 0 {
			ws = append(ws, s.nodes[id])
		}
	}
	return ws
}

// check asserts the invariants over the members each live sequencer counts
// for a group and that follow it (their view names it the group's
// sequencer): their delivered logs are prefixes of one another, and members
// at equal delivered sequence hold equal state. A member its sequencer no
// longer counts — evicted by a flap or a cut it has not heard of — is on a
// divergent series that the sequencer restates once it hears from it.
// quiet adds convergence: every active member follows a sequencer that
// counts it, and all of a group's members have delivered the same prefix.
func (s *sim) check(quiet bool) {
	for _, sn := range s.nodes {
		if sn == nil {
			continue
		}
		// Drop resolved calls.
		sn.calls = slices.DeleteFunc(sn.calls, func(c *simCall) bool { return len(c.p.done) > 0 })
	}
	if s.err != "" {
		return
	}
	for _, g := range simGroups {
		for _, c := range s.liveIDs() {
			cs := s.nodes[c].n.cs
			if cs == nil || cs.groups[g] == nil {
				continue
			}
			var ms []transport.NodeID
			for _, m := range cs.groups[g].members {
				if s.follows(m, g) == c {
					ms = append(ms, m)
				}
			}
			for i, a := range ms {
				for _, b := range ms[i+1:] {
					la, lb := s.nodes[a].h.state[g], s.nodes[b].h.state[g]
					ga, gb := s.nodes[a].n.groups[g].last, s.nodes[b].n.groups[g].last
					switch {
					case !isPrefix(la, lb) && !isPrefix(lb, la):
						s.fail("order", "%s: members %d %v and %d %v of sequencer %d disagree", g, a, la, b, lb, c)
					case ga == gb && !slices.Equal(la, lb):
						s.fail("state", "%s: members %d and %d at sequence %d hold %v and %v", g, a, b, ga, la, lb)
					case quiet && ga != gb:
						s.fail("diverged", "%s: quiet, yet members %d and %d of sequencer %d are at %d and %d", g, a, b, c, ga, gb)
					}
				}
			}
		}
		if !quiet {
			continue
		}
		for _, m := range s.liveIDs() {
			if mg := s.nodes[m].n.groups[g]; mg == nil || !mg.active {
				continue
			}
			c := s.follows(m, g)
			if sc := s.nodes[c]; sc == nil || sc.n.cs == nil || sc.n.cs.groups[g] == nil || !containsID(sc.n.cs.groups[g].members, m) {
				s.fail("diverged", "%s: quiet, yet active member %d is not counted by its sequencer %d", g, m, c)
			}
		}
	}
}

// follows returns the sequencer m's view names for g if m is an active
// member of g, else 0. It calls the placement function directly: coordOf's
// cache feeds the next edge's reaction, which a check must not touch.
func (s *sim) follows(m transport.NodeID, g string) transport.NodeID {
	sn := s.nodes[m]
	if sn == nil {
		return 0
	}
	if mg := sn.n.groups[g]; mg == nil || !mg.active {
		return 0
	}
	return sn.n.coordFn(g, sn.n.liveSorted)
}

func isPrefix(a, b []string) bool { return len(a) <= len(b) && slices.Equal(a, b[:len(a)]) }

// hash digests the step log, the determinism check's fingerprint.
func (s *sim) hash() uint64 {
	h := fnv.New64a()
	for _, line := range s.log {
		_, _ = h.Write([]byte(line))
		_, _ = h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// runSeed generates and runs one seed's schedule.
func runSeed(seed uint64) *sim {
	d := &choiceStream{rng: rand.New(rand.NewPCG(seed, 0x5eed))}
	s := newSim(simConfigFor(seed, false), d)
	s.run()
	return s
}

// replaySim runs a fixed choice list under a seed's configuration.
func replaySim(cfg simConfig, choices []uint64) *sim {
	s := newSim(cfg, &choiceStream{fixed: choices})
	s.run()
	return s
}

// shrinkBudget bounds the replays one shrink may spend.
const shrinkBudget = 1500

// shrinkSim reduces a failing run's choices to a smaller list that still
// fails the same way: it deletes whole steps, largest chunks first, then
// lowers single choices toward zero, and repeats until neither helps.
func shrinkSim(cfg simConfig, failed *sim) *sim {
	best := failed
	runs := 0
	try := func(cand []uint64) bool {
		if runs >= shrinkBudget {
			return false
		}
		runs++
		s := replaySim(cfg, cand)
		if s.errKind != best.errKind {
			return false
		}
		best = s
		return true
	}
	for improved := true; improved && runs < shrinkBudget; {
		improved = false
		for size := 8; size >= 1; size /= 2 {
			for i := len(best.d.marks) - size; i >= 0; i-- {
				if i+size > len(best.d.marks) {
					continue
				}
				used, marks := best.d.used, best.d.marks
				end := len(used)
				if i+size < len(marks) {
					end = marks[i+size]
				}
				if try(slices.Concat(used[:marks[i]], used[end:])) {
					improved = true
				}
			}
		}
		for i := 0; i < len(best.d.used); i++ {
			v := best.d.used[i]
			for _, lower := range []uint64{0, v / 2, v - 1} {
				if lower >= v {
					continue
				}
				cand := slices.Clone(best.d.used)
				cand[i] = lower
				if try(cand) {
					improved = true
					break
				}
			}
		}
	}
	return best
}

// report renders a shrunk failure as a step list a human can read, with
// the choices that replay it.
func (s *sim) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%d steps, choices %#v\n", s.err, s.steps, s.d.used)
	quiet := 0
	for _, line := range s.log {
		if strings.HasPrefix(line, "quiesce: deliver") || strings.HasPrefix(line, "quiesce: retry") {
			quiet++
			continue
		}
		fmt.Fprintf(&b, "  %s\n", line)
	}
	if quiet > 0 {
		fmt.Fprintf(&b, "  quiesce: %d deliveries and retries\n", quiet)
	}
	return b.String()
}

var simSeeds = flag.Int("sim.seeds", 200, "how many simulator seeds, from 1, TestSimSeeds runs (fewer under -race unless set)")

// raceSimSeeds is TestSimSeeds' default under the race detector, which
// slows the simulator about tenfold.
const raceSimSeeds = 20

// TestSimSeeds runs a range of generated schedules through the simulator.
// A failing seed is shrunk and reported as a step list; its subtest
// (-run 'TestSimSeeds/seed=N') replays it exactly.
func TestSimSeeds(t *testing.T) {
	n := *simSeeds
	if raceEnabled && !flagSet("sim.seeds") {
		n = raceSimSeeds
	}
	start, steps := time.Now(), 0
	for seed := uint64(1); seed <= uint64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s := runSeed(seed)
			steps += s.total
			if s.err != "" {
				t.Fatalf("seed %d (%d nodes, %s placement, %d steps) failed; shrunk:\n%s",
					seed, s.cfg.nodes, s.cfg.placement, s.steps, shrinkSim(s.cfg, s).report())
			}
		})
	}
	el := time.Since(start)
	t.Logf("%d seeds, %d steps in %v: %.0f steps/s", n, steps, el.Round(time.Millisecond), float64(steps)/el.Seconds())
}

func flagSet(name string) (set bool) {
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// TestSimDeterministic: one seed yields the same step log, to the byte, on
// every run.
func TestSimDeterministic(t *testing.T) {
	const seed, runs = 7, 50
	want := runSeed(seed)
	for i := 1; i < runs; i++ {
		if got := runSeed(seed); got.hash() != want.hash() {
			t.Fatalf("run %d: step-log hash %x, first run %x", i, got.hash(), want.hash())
		}
	}
	t.Logf("seed %d: %d steps, step-log hash %x", seed, want.total, want.hash())
}

// simCase is a shrunk schedule kept as a test: the seed fixes its
// configuration, the choices its steps.
type simCase struct {
	name     string
	seed     uint64
	detector bool
	choices  []uint64
}

func (c simCase) replay() *sim { return replaySim(simConfigFor(c.seed, c.detector), c.choices) }

// simRegressions are the shrunk schedules of the bugs the simulator found,
// each failing before its fix (DESIGN.md, "vsync keeps only what a schedule
// can reach").
var simRegressions = []simCase{
	// A join queued behind a recovery, from an incarnation that crashed and
	// restarted before the replay, admitted a member that never asked.
	{"stale-join-of-restarted-node", 185, false, []uint64{0x37, 0x0, 0x0, 0x0, 0x1, 0x51, 0x0, 0x0, 0x0, 0x0, 0x5f, 0x1, 0x0, 0x2, 0x2, 0x0, 0x5f, 0x2, 0x0, 0x0, 0x2, 0x0, 0x37, 0x0, 0x2, 0x7, 0x1, 0x0, 0x0, 0x61, 0x0, 0x0, 0x1, 0x2, 0x0, 0x0, 0x4, 0x2, 0x0, 0x5f, 0x0, 0x38, 0x0, 0x0, 0x0, 0x1}},
	// A joiner admitted again (its donor died) starts from the new join, so
	// the casts ordered after its first join waited on its acks forever.
	{"rejoin-skips-awaited-casts", 85, false, []uint64{0x5f, 0x0, 0x0, 0x0, 0x0, 0x5f, 0x1, 0x61, 0x0, 0x0, 0x1, 0x0, 0x0, 0x1, 0x0, 0x0, 0x2b, 0x0, 0x0, 0x0, 0x2, 0x0, 0x0, 0x1, 0x2, 0x0, 0x0, 0x1, 0x0, 0x0, 0x0, 0x0, 0x37, 0x2, 0x0, 0x7, 0x0, 0x38, 0x0, 0x0, 0x0, 0x0, 0x0, 0x1, 0x0, 0x0, 0x1, 0x3, 0x0, 0x0, 0x5f, 0x1}},
	// The sequencer named a donor the joiner had already seen die; the
	// joiner waited for its snapshot forever.
	{"donor-dead-before-named", 679, false, []uint64{0x39, 0x0, 0x3, 0x0, 0x0, 0x0, 0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x5f, 0x2, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x61, 0x0, 0x0, 0x1, 0x0, 0x0, 0x1, 0x0, 0x0, 0x1, 0x2, 0x0, 0x0, 0x0, 0x0, 0x37, 0x2, 0x2, 0x0, 0x0, 0x7, 0x1, 0x5f, 0x1, 0x0, 0x0, 0x2, 0x0, 0x5f, 0x2, 0x0, 0x0, 0x2, 0x0}},
}

func TestSimRegressions(t *testing.T) {
	for _, c := range simRegressions {
		t.Run(c.name, func(t *testing.T) {
			if s := c.replay(); s.err != "" {
				t.Fatalf("%s", s.report())
			}
		})
	}
}

// TestSimPreCoordCap fills the ahead-of-view stash: node 3 sees the
// sequencer 1 crash before node 2 does, and casts to group b, which its view
// places on 2 and 2's view still places on 1. 2 stashes preCoordMax casts and
// fails the rest back at once — dropped, they waited for a membership edge
// at 3 that never came — and replays the stash once it sees the crash.
func TestSimPreCoordCap(t *testing.T) {
	const extra = 3
	s := newSim(simConfig{nodes: 3, coord: LowestLive, placement: "lowest"}, &choiceStream{})
	s.crashNode(1)
	n2, n3 := s.nodes[2], s.nodes[3]
	s.hand(simLink{1, 3})
	n3.n.settle()
	for i := 0; i < preCoordMax+extra; i++ {
		s.issue(n3, tCastReq, "b")
	}
	calls := slices.Clone(n3.calls)
	n3.n.settle()
	for len(s.links[3][2]) > 0 { // 3's report, then its casts
		s.hand(simLink{3, 2})
	}
	n2.n.settle()
	if hwm, refused := n2.n.gPreCoordHWM.Value(), n2.n.cPreCoordRefused.Value(); hwm != preCoordMax || refused != extra {
		t.Fatalf("stash high-water %d, refused %d; want %d and %d", hwm, refused, preCoordMax, extra)
	}
	s.settleQuiet("quiesce")
	if s.err != "" {
		t.Fatal(s.err)
	}
	failed := 0
	for _, c := range calls {
		if len(c.p.done) == 0 {
			t.Fatalf("%s still pending once the network is quiet", c.what)
		}
		if c.p.res.Fail {
			failed++
		}
	}
	if failed != extra {
		t.Fatalf("%d casts failed back, want %d", failed, extra)
	}
}

// simKnownGaps are shrunk schedules the protocol still fails, each with the
// violation it shows (CHANGES.md, FOUND lines). The test pins them: once a
// fix makes one pass, it moves to simRegressions.
var simKnownGaps = []struct {
	simCase
	kind string
}{
	// A one-way cut from the sequencer 2 to member 1 loses the run 2 sends
	// it; 1 sees 2 go down and come back, 2 sees nothing and keeps counting
	// 1, so the gather waits on 1 forever. Flaps and drops of a sequencer's
	// frames fail the same way: healing them needs an epoch on the series
	// (ROADMAP item 4).
	{simCase{"sequencer-dip", 8, true, []uint64{0x37, 0x0, 0x3, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x59, 0x1, 0x0, 0x0, 0x0, 0x0}}, "pending"},
	// A leave sent while the link toward the sequencer is cut is lost; the
	// sender sees no membership edge of its own, so nothing sends it again.
	{simCase{"leave-lost-on-cut-link", 13, true, []uint64{0x59, 0x1, 0x0, 0x37, 0x1, 0x0, 0x9, 0x0}}, "pending"},
	// A leave from a member of a group whose sequencer restarted is queued
	// behind the new incarnation's recovery, and a cast to the group then
	// waits forever.
	{simCase{"restart-then-leave", 316, false, []uint64{0x5f, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x2, 0x0, 0x5f, 0x0, 0x61, 0x0, 0x0, 0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x37, 0x1, 0x3, 0x0, 0x0, 0x0, 0x0, 0x9, 0x1, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x2, 0x0, 0x37, 0x0, 0x0, 0x0, 0x1}}, "pending"},
	// A member that joined through the sequencer 2 while 1 was down is not
	// counted by 1's rebuilt record once 1 restarts and 2 crashes.
	{simCase{"restart-then-join", 656, false, []uint64{0x5f, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x37, 0x1, 0x2, 0x0, 0x0, 0x7, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x61, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0, 0x5f, 0x1, 0x0, 0x1, 0x0, 0x0, 0x1, 0x2, 0x1}}, "diverged"},
}

func TestSimKnownGaps(t *testing.T) {
	for _, g := range simKnownGaps {
		t.Run(g.name, func(t *testing.T) {
			s := g.replay()
			if s.errKind != g.kind {
				t.Fatalf("no longer fails with %s (got %q): if fixed, move it to simRegressions\n%s", g.kind, s.err, s.report())
			}
			t.Logf("%s", s.report())
		})
	}
}

// TestSimKnownGapDedupWindow pins a known gap built step by step rather
// than from a choice list: a membership edge re-sends every pending cast
// (refreshPlacement), while a member's dedup window keeps only the last
// maxDeliveredCache deliveries per origin. Node 3 has one cast more than
// that pending on group b when it sees node 2 flap; node 2 has applied them
// all, forgot the first, and applies it again from the re-send. Healing it
// needs a per-origin delivered floor on the wire (ROADMAP items 4 and 8);
// once fixed, move it to the regressions.
func TestSimKnownGapDedupWindow(t *testing.T) {
	s := newSim(simConfig{nodes: 3, coord: LowestLive, placement: "lowest"}, &choiceStream{})
	n1, n3 := s.nodes[1], s.nodes[3]
	for i := 0; i < maxDeliveredCache+1; i++ {
		s.issue(n3, tCastReq, "b") // b = {2, 3}, sequenced by 1
	}
	n3.n.settle()
	for len(s.links[3][1]) > 0 {
		s.hand(simLink{3, 1})
	}
	n1.n.settle()
	// The runs reach both members; their acks stay in flight, so 3's casts
	// are still pending at the edge.
	for _, to := range []transport.NodeID{2, 3} {
		for len(s.links[1][to]) > 0 {
			s.hand(simLink{1, to})
		}
		s.nodes[to].n.settle()
	}
	s.push(simLink{2, 3}, simItem{kind: transport.KindDown})
	s.push(simLink{2, 3}, simItem{kind: transport.KindUp})
	s.settleQuiet("flap")
	if s.errKind != "double-apply" {
		t.Fatalf("no longer fails with double-apply (got %q): if fixed, move it to the regressions\n%s", s.err, s.report())
	}
	t.Logf("%s", s.err)
}

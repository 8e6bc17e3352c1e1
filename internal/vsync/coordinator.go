package vsync

import (
	"maps"
	"slices"
	"sync"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// recordOwnership emits one ownership edge (obs.KindOwnership) into the
// node's event timeline, where internal/obs/flight folds it back into the
// per-group ownership history. Purely an observer: nothing emitted here
// feeds back into placement.
func (n *Node) recordOwnership(group, kind string, owner transport.NodeID, takeover time.Duration) {
	n.o.Emit(obs.KindOwnership, obs.KV("group", group), obs.KV("epoch", n.liveEpoch),
		obs.KV("owner", owner), obs.KV("kind", kind), obs.KV("takeover_s", takeover.Seconds()))
}

// coordState is the sequencing state of the groups the placement function
// maps to this node. It is created by the node's first takeover recovery
// and rebuilt from survivors after a previous owner's crash.
type coordState struct {
	groups map[string]*coordGroup
	// wait is the one set of peers this node is waiting on for a report
	// that counts: a newcomer on Up, every live peer during a takeover
	// recovery, a claimant just sent tRestate. The loop re-sends tSync to
	// each every syncRetry (placed.go); a Down removes the peer.
	wait       map[transport.NodeID]bool
	recovering bool
	// reports holds the running recovery's counted reports, each peer's
	// merged by per-group maximum (fold).
	reports map[transport.NodeID]map[string]uint64
	// resynced remembers, per rebuilt group and lagging claimant, the donor
	// already asked to resync it, so a recovery pass re-sends a snapshot
	// only when the donor changed; every membership edge clears it.
	resynced map[resyncKey]transport.NodeID
	// recoveryStart stamps when the survivor-quorum wait began; the gap to
	// finishRecovery is the takeover duration recorded per rebuilt group
	// (vsync.takeover.seconds.<group>, and the takeover ownership event).
	recoveryStart time.Time
	queued        []queuedReq
	// dirty lists groups with staged casts awaiting sequencing; the loop
	// drains it once per burst (flushCoord), so every cast that arrived in
	// the burst shares one sequence-range allocation and one fan-out run.
	dirty []*coordGroup
}

// coordGroup is the coordinator's authoritative record for one group.
//
// members is copy-on-write: every membership change installs a freshly
// built slice and never mutates the old one, so the member views captured
// by in-flight pendingCasts stay index-stable for their bitmask acks.
type coordGroup struct {
	name    string
	members []transport.NodeID
	nextSeq uint64
	// Per-group observability (resolved once at record creation): ordering
	// latency and backlog keyed by group name, so a sharded cluster's
	// saturation profile stays attributable per class even though many
	// groups share one machine's aggregate stage.order histogram.
	hOrder   *obs.Histogram
	gBacklog *obs.Gauge
	// pending holds response gathering per sequence number in a ring
	// buffer keyed by seq: puts are monotonically increasing, removals
	// advance the base past completed casts, and steady state neither
	// allocates nor churns map buckets.
	pending pendingRing
	// staged buffers this burst's tCastReq wires (and their arrival times)
	// until flushCoord assigns the contiguous sequence range.
	staged   []*wire
	stagedAt []time.Time
}

// pendingCast tracks response gathering for one ordered data event. The
// struct is pooled (pcPool); waiting is a bitmask over the members slice
// captured at sequencing time, so the ack hot path does no map work and
// no allocation.
type pendingCast struct {
	origin    transport.NodeID
	reqID     uint64
	members   []transport.NodeID // group view at sequencing time (shared, COW)
	waiting   []uint64           // bit i set ⇔ members[i] has not acked
	remaining int
	resp      []byte
	fail      bool
	size      int
	// marked: the run carried the completion mark; direct: the marked member answered the caller.
	marked, direct bool
	// Tracing state (zero when the cast is untraced): the "order" span
	// minted at sequencing time, recorded when the gather completes.
	group  string
	trace  uint64
	parent uint64
	span   uint64
	start  time.Time
	bytes  int
}

// pcPool recycles pendingCast structs (and their bitmask backing arrays)
// across casts, keeping the sequencing hot path allocation-free.
var pcPool = sync.Pool{New: func() any { return new(pendingCast) }}

// ackFrom clears the member's waiting bit, reporting false for a node that
// is not in the gather set or already acked.
func (pc *pendingCast) ackFrom(id transport.NodeID) bool {
	for i, m := range pc.members {
		if m != id {
			continue
		}
		word, bit := i>>6, uint64(1)<<(uint(i)&63)
		if pc.waiting[word]&bit == 0 {
			return false
		}
		pc.waiting[word] &^= bit
		pc.remaining--
		return true
	}
	return false
}

// pendingRing is a power-of-two ring of pending casts keyed by sequence
// number. Sequences are inserted in increasing order; slots for sequence
// numbers that never carried a data cast (membership events) stay nil and
// the base simply advances past them.
type pendingRing struct {
	base uint64 // lowest seq the ring may still hold
	next uint64 // one past the highest seq ever stored
	buf  []*pendingCast
}

func (r *pendingRing) empty() bool { return r.base == r.next }

func (r *pendingRing) put(seq uint64, pc *pendingCast) {
	if r.empty() {
		r.base, r.next = seq, seq
	}
	for len(r.buf) == 0 || seq-r.base >= uint64(len(r.buf)) {
		r.grow()
	}
	r.buf[seq&uint64(len(r.buf)-1)] = pc
	if seq >= r.next {
		r.next = seq + 1
	}
}

func (r *pendingRing) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*pendingCast, n)
	for s := r.base; s < r.next; s++ {
		nb[s&uint64(n-1)] = r.buf[s&uint64(len(r.buf)-1)]
	}
	r.buf = nb
}

func (r *pendingRing) get(seq uint64) *pendingCast {
	if seq < r.base || seq >= r.next {
		return nil
	}
	return r.buf[seq&uint64(len(r.buf)-1)]
}

// del empties the slot of a stored sequence number.
func (r *pendingRing) del(seq uint64) {
	r.buf[seq&uint64(len(r.buf)-1)] = nil
	for r.base < r.next && r.buf[r.base&uint64(len(r.buf)-1)] == nil {
		r.base++
	}
}

// resyncKey names one lagging claimant of one group a recovery rebuilds.
type resyncKey struct {
	group string
	node  transport.NodeID
}

type queuedReq struct {
	from transport.NodeID
	w    *wire
}

// preCoordMax bounds the casts in the not-yet-coordinator request stash
// (Node.preCoord). The stash only grows during the short window between a
// peer observing the old coordinator's death and this node observing it;
// past the cap, a cast is failed back to its caller (stashPreCoord).
const preCoordMax = 4096

// addIDCopy returns ids plus id, building a new slice when a change is
// needed (coordinator-side membership is copy-on-write; see coordGroup).
func addIDCopy(ids []transport.NodeID, id transport.NodeID) []transport.NodeID {
	if containsID(ids, id) {
		return ids
	}
	return append(slices.Clip(ids), id)
}

// removeIDCopy returns a new slice holding ids minus id, which ids must
// contain.
func removeIDCopy(ids []transport.NodeID, id transport.NodeID) []transport.NodeID {
	i := slices.Index(ids, id)
	return slices.Concat(ids[:i], ids[i+1:])
}

// coordSyncInfo takes one report, a tSync answer or an unsolicited nudge.
// Unless it passes the view check (viewAgrees) it is dropped, and a waited-on
// sender stays waiting. One that counts takes its sender out of the wait
// set, starts the epoch's recovery if it names a group unsequenced here,
// feeds a running recovery, and is merged against the groups we sequence.
func (n *Node) coordSyncInfo(from transport.NodeID, w *wire) {
	if !n.viewAgrees(w) {
		return
	}
	for name := range w.Infos {
		if n.unsequenced(name) {
			n.ensureRecovery() // a no-op once this epoch's recovery ran
			break
		}
	}
	cs := n.cs
	if cs == nil {
		return
	}
	delete(cs.wait, from)
	if cs.recovering {
		cs.fold(from, w.Infos)
	}
	n.mergeReport(from, w.Infos)
	if cs.recovering && len(cs.wait) == 0 {
		n.finishRecovery()
	}
}

// fold merges one counted report into the running recovery. A second
// report from the same peer merges into the first by per-group maximum, so
// no claim is lost.
func (cs *coordState) fold(from transport.NodeID, infos map[string]uint64) {
	r := cs.reports[from]
	if r == nil {
		r = make(map[string]uint64, len(infos))
		cs.reports[from] = r
	}
	for name, last := range infos {
		r[name] = max(r[name], last)
	}
}

// mergeReport reconciles a counted report with the groups this node
// sequences (groups without a record are a recovery's to rebuild):
//
//   - a claim for a group with no current members is adopted (the claimant
//     is the last holder of that state — discarding it would lose data);
//   - a claim from a node we do not count as a member, or whose delivery
//     counter runs ahead of the group's sequence, comes from a divergent
//     series (bootstrap split or post-eviction flap): the claimant is told
//     to wipe and rejoin, receiving fresh state from a current member, and
//     is waited on until a report of it no longer claims the old series.
func (n *Node) mergeReport(from transport.NodeID, infos map[string]uint64) {
	cs := n.cs
	for _, name := range slices.Sorted(maps.Keys(infos)) {
		last := infos[name]
		if n.coordOf(name) != n.self {
			continue // another owner's group; its coordinator reconciles it
		}
		cg := cs.groups[name]
		if cg == nil {
			// A running recovery rebuilds it from the full quorum; once this
			// epoch's recovery ran, the group is fresh and its first request
			// creates it.
			continue
		}
		if len(cg.members) == 0 {
			cg.members = []transport.NodeID{from}
			cg.nextSeq = last + 1
			continue
		}
		if containsID(cg.members, from) && last < cg.nextSeq {
			continue // consistent member, possibly catching up
		}
		if containsID(cg.members, from) {
			// Divergent series from a node we still count: stop counting
			// it before telling it to wipe, or response gathering would
			// wait forever on its acks.
			n.evictMember(cg, from)
		}
		n.send(from, &wire{Type: tRestate, Group: name})
		n.await(from)
	}
}

// orderMembership assigns the group's next sequence number to one
// membership event and fans it out.
func (n *Node) orderMembership(g *coordGroup, ev *wire, recipients []transport.NodeID) {
	ev.Type, ev.Group, ev.Seq = tOrdered, g.name, g.nextSeq
	g.nextSeq++
	for _, m := range recipients {
		n.send(m, ev)
	}
}

// evictMember removes a member coordinator-side, notifying the remaining
// members and unblocking pending casts, without requiring the subject to
// process the ordered event (it crashed, or its series has diverged).
func (n *Node) evictMember(g *coordGroup, id transport.NodeID) {
	g.members = removeIDCopy(g.members, id)
	n.orderMembership(g, &wire{Event: evDown, Subject: nid(id)}, g.members)
	n.dropFromPending(g, id)
}

// finishRecovery is a recovery pass, run whenever the wait set empties or
// our own state catches up. It rebuilds each unsequenced group the reports
// (ours taken now) name: members are the live member claimants, the next
// sequence follows the highest one delivered. A claimant behind it is
// resynced from the most advanced one and waited on; the recovery finishes
// only once every claimant has caught up, so no rebuilt series starts ahead
// of a member, and a donor that dies first is replaced at the next pass.
func (n *Node) finishRecovery() {
	cs := n.cs
	cs.fold(n.self, n.ownSyncInfos())
	type claim struct {
		node transport.NodeID
		last uint64
	}
	byGroup := make(map[string][]claim)
	for _, node := range slices.Sorted(maps.Keys(cs.reports)) {
		for name, last := range cs.reports[node] {
			if n.unsequenced(name) {
				byGroup[name] = append(byGroup[name], claim{node, last})
			}
		}
	}
	rebuilt := make([]*coordGroup, 0, len(byGroup))
	behind := false
	for _, name := range slices.Sorted(maps.Keys(byGroup)) {
		claims := byGroup[name]
		g := n.newCoordGroup(name)
		var donor transport.NodeID
		var target uint64
		for _, c := range claims {
			g.members = addIDCopy(g.members, c.node)
			if c.last >= target {
				target, donor = c.last, c.node
			}
		}
		g.nextSeq = target + 1
		rebuilt = append(rebuilt, g)
		for _, c := range claims {
			if c.last == target {
				continue
			}
			behind = true
			k := resyncKey{name, c.node}
			if cs.resynced[k] != donor {
				cs.resynced[k] = donor
				n.send(donor, &wire{Type: tResync, Group: name, Subject: nid(c.node)})
			}
			if c.node != n.self {
				cs.wait[c.node] = true // asked again at the next retry tick
			}
		}
	}
	if behind {
		return
	}
	cs.recovering = false
	n.recoveredEpoch = n.liveEpoch
	cs.reports = nil
	clear(cs.resynced)
	// Takeover duration: quorum wait through state rebuild.
	takeover := time.Since(cs.recoveryStart)
	for _, g := range rebuilt {
		cs.groups[g.name] = g
		n.o.Histogram(n.o.Series("vsync.takeover.seconds.{group}", g.name)).Observe(takeover.Seconds())
		n.recordOwnership(g.name, obs.OwnTakeover, n.self, takeover)
	}
	n.syncCoordGroups()
	queued := cs.queued
	cs.queued = nil
	for _, q := range queued {
		n.coordRequest(q.from, q.w)
	}
}

// newCoordGroup allocates a coordinator record with its per-group
// observability handles.
func (n *Node) newCoordGroup(name string) *coordGroup {
	return &coordGroup{
		name:     name,
		nextSeq:  1,
		hOrder:   n.o.Histogram(n.o.Series("vsync.order.seconds.{group}", name)),
		gBacklog: n.o.Gauge(n.o.Series("vsync.coord.backlog.{group}", name)),
	}
}

// coordGroupFor returns (creating if needed) the coordinator record for a
// group.
func (n *Node) coordGroupFor(name string) *coordGroup {
	g, ok := n.cs.groups[name]
	if !ok {
		g = n.newCoordGroup(name)
		n.cs.groups[name] = g
		n.syncCoordGroups()
		n.recordOwnership(name, obs.OwnFresh, n.self, 0)
	}
	return g
}

// coordRequest routes a client request (cast, join, or leave): stash when
// the group maps elsewhere (the sender's detector may be ahead of ours), run
// the epoch's takeover recovery before sequencing any group we have no
// record of and queue behind it, and dispatch otherwise — a group we
// already sequence never waits for a recovery.
func (n *Node) coordRequest(from transport.NodeID, w *wire) {
	if n.coordOf(w.Group) != n.self {
		n.stashPreCoord(from, w)
		return
	}
	if n.unsequenced(w.Group) {
		// A no-op when this epoch's recovery already ran: a group its quorum
		// did not report is provably fresh.
		n.ensureRecovery()
		if cs := n.cs; cs.recovering {
			cs.queued = append(cs.queued, queuedReq{from: from, w: w})
			return
		}
	}
	switch w.Type {
	case tCastReq:
		n.coordCast(w)
	case tJoinReq:
		n.coordJoin(w)
	case tLeaveReq:
		n.coordLeave(w)
	}
}

// stashPreCoord keeps a request for a group that maps elsewhere until the
// next membership edge (Node.preCoord). A cast that finds the stash full is
// failed back to its caller, as coordCast fails a cast to an empty group:
// dropped, it would wait for a membership edge at its caller, and a caller
// whose view is already current may never see one. A join or leave is always
// kept; a caller has at most one outstanding per group.
func (n *Node) stashPreCoord(from transport.NodeID, w *wire) {
	if w.Type == tCastReq && len(n.preCoord) >= preCoordMax {
		n.cPreCoordRefused.Inc()
		n.sendReply(tid(w.Origin), w.ReqID, nil, true, 0)
		return
	}
	n.preCoord = append(n.preCoord, queuedReq{from: from, w: w})
	if d := int64(len(n.preCoord)); d > n.gPreCoordHWM.Value() {
		n.gPreCoordHWM.Set(d)
	}
}

// coordCast stages one cast request for sequencing. Sequence numbers are
// not assigned here: the loop calls flushCoord once per burst, so every
// cast the burst drained for the same group shares one contiguous range
// and one fan-out run (the §3.3 amortization applied to ordering).
func (n *Node) coordCast(w *wire) {
	g, ok := n.cs.groups[w.Group]
	if !ok || len(g.members) == 0 {
		n.sendReply(tid(w.Origin), w.ReqID, nil, true, 0)
		return
	}
	if len(g.staged) == 0 {
		n.cs.dirty = append(n.cs.dirty, g)
	}
	g.staged = append(g.staged, w)
	// The cast's enqueue time: the order stage (and the order span of a
	// traced request) starts here, not at sequence assignment, so staging
	// latency cannot hide from the coordinated-omission-safe stage clocks.
	// Coarse-clock site: one stamp per cast on the sequencing hot path.
	g.stagedAt = append(g.stagedAt, obs.CoarseNow())
	n.gCoordBacklog.Add(1)
	g.gBacklog.Add(1)
}

// flushCoord assigns sequence ranges to every group with staged casts.
// The loop calls it after each burst, before the outbox flush, so the runs
// it emits ride in the same frames as the burst's other traffic.
func (n *Node) flushCoord() {
	cs := n.cs
	if cs == nil || len(cs.dirty) == 0 {
		return
	}
	dirty := cs.dirty
	cs.dirty = cs.dirty[:0]
	for i, g := range dirty {
		n.sequenceStaged(g)
		dirty[i] = nil
	}
}

// sequenceStaged allocates one contiguous sequence range for a group's
// staged casts and fans them out as a single tOrderedRun per member.
func (n *Node) sequenceStaged(g *coordGroup) {
	k := len(g.staged)
	if k == 0 {
		return
	}
	if len(g.members) == 0 {
		// The group emptied between staging and flush (members crashed or
		// left within the burst): fail the casts back to their origins.
		for i, w := range g.staged {
			n.sendReply(tid(w.Origin), w.ReqID, nil, true, 0)
			n.gCoordBacklog.Add(-1)
			g.gBacklog.Add(-1)
			g.staged[i] = nil
		}
		g.staged = g.staged[:0]
		g.stagedAt = g.stagedAt[:0]
		return
	}
	first := g.nextSeq
	g.nextSeq += uint64(k)
	run := getPooledWire()
	run.Type = tOrderedRun
	run.Group = g.name
	run.Seq = first
	run.Event = evData
	if n.oneApplyLeft(g, first) {
		run.Size = len(g.members)
	}
	run.Batch = run.Batch[:0]
	for i, w := range g.staged {
		seq := first + uint64(i)
		pc := n.newPendingCast(g, w, g.stagedAt[i])
		pc.marked = run.Size != 0
		g.pending.put(seq, pc)
		run.Batch = append(run.Batch, wire{
			Type: tOrdered, Group: g.name, Seq: seq, Event: evData,
			ReqID: w.ReqID, Origin: w.Origin, Payload: w.Payload,
			Trace: w.Trace, Span: pc.span,
		})
		g.staged[i] = nil
	}
	g.staged = g.staged[:0]
	g.stagedAt = g.stagedAt[:0]
	run.refs = int32(len(g.members))
	n.cRunSends.Inc()
	n.cRunCasts.Add(int64(k))
	n.hRunOcc.Observe(float64(k))
	for _, m := range g.members {
		n.send(m, run)
	}
}

// oneApplyLeft reports whether exactly one member's apply of the run starting
// at first will be outstanding when the run leaves this machine: a sole member
// that is not this sequencer, or one of two whose other is this sequencer,
// caught up, which applies in settle (PROTOCOL.md, "Completing a gcast").
func (n *Node) oneApplyLeft(g *coordGroup, first uint64) bool {
	if len(g.members) == 1 {
		return g.members[0] != n.self
	}
	mg := n.groups[g.name]
	return len(g.members) == 2 && containsID(g.members, n.self) &&
		mg != nil && mg.active && mg.last+1 == first
}

// newPendingCast draws a pooled gather record for one staged cast, with
// the waiting bitmask covering the group's current member view.
func (n *Node) newPendingCast(g *coordGroup, w *wire, at time.Time) *pendingCast {
	pc := pcPool.Get().(*pendingCast)
	k := len(g.members)
	pc.origin = tid(w.Origin)
	pc.reqID = w.ReqID
	pc.members = g.members
	words := (k + 63) / 64
	if cap(pc.waiting) < words {
		pc.waiting = make([]uint64, words)
	}
	pc.waiting = pc.waiting[:words]
	for i := range pc.waiting {
		pc.waiting[i] = ^uint64(0)
	}
	if rem := uint(k) & 63; rem != 0 {
		pc.waiting[words-1] = 1<<rem - 1
	}
	pc.remaining = k
	pc.resp = nil
	pc.fail = true
	pc.size = k
	pc.marked, pc.direct = false, false
	pc.group, pc.trace, pc.parent, pc.span, pc.bytes = "", 0, 0, 0, 0
	pc.start = at
	if w.Trace != 0 {
		pc.group, pc.trace, pc.parent = g.name, w.Trace, w.Span
		pc.span = obs.NextID()
		pc.bytes = len(w.Payload)
	}
	return pc
}

// putPendingCast recycles a completed gather record, dropping references
// into frame buffers and member views first.
func putPendingCast(pc *pendingCast) {
	pc.members = nil
	pc.resp = nil
	pc.group = ""
	pcPool.Put(pc)
}

// sendReply stages a pooled tReply wire to the request's origin.
func (n *Node) sendReply(to transport.NodeID, reqID uint64, payload []byte, fail bool, size int) {
	w := getPooledWire()
	w.Type = tReply
	w.ReqID = reqID
	w.Payload = payload
	w.Fail = fail
	w.Size = size
	w.refs = 1
	n.send(to, w)
}

// dropMembershipRequests forgets the joins and leaves a peer that went down
// left stashed or queued here. Replayed later, a join would admit a corpse —
// or a restarted incarnation that never asked — and every gather would wait
// on it; a leave would evict that incarnation. The peer's casts stay: their
// duplicates are suppressed and their replies ignored.
func (n *Node) dropMembershipRequests(id transport.NodeID) {
	stale := func(q queuedReq) bool { return q.from == id && q.w.Type != tCastReq }
	n.preCoord = slices.DeleteFunc(n.preCoord, stale)
	if n.cs != nil {
		n.cs.queued = slices.DeleteFunc(n.cs.queued, stale)
	}
}

func (n *Node) coordJoin(w *wire) {
	subject := tid(w.Subject)
	g := n.coordGroupFor(w.Group)
	var donor transport.NodeID
	for _, m := range g.members {
		if m != subject {
			donor = m
			break
		}
	}
	g.members = addIDCopy(g.members, subject)
	n.orderMembership(g, &wire{
		Event: evJoin, Subject: w.Subject, Donor: nid(donor), Payload: idsToWire(g.members),
	}, g.members)
}

func (n *Node) coordLeave(w *wire) {
	g, ok := n.cs.groups[w.Group]
	subject := tid(w.Subject)
	if !ok || !containsID(g.members, subject) {
		// Unknown membership (e.g. lost across a recovery): tell the
		// client directly; it cleans up locally on this reply.
		n.send(tid(w.Origin), &wire{Type: tReply, ReqID: w.ReqID})
		return
	}
	// The pre-removal view is the recipient set; copy-on-write makes it
	// free to keep while the group advances.
	recipients := g.members
	g.members = removeIDCopy(g.members, subject)
	n.orderMembership(g, &wire{Event: evLeave, Subject: w.Subject}, recipients)
	// Evictions may complete pending casts that were waiting on the
	// departed member.
	n.dropFromPending(g, subject)
}

// coordAck records one member's response to an ordered data event.
func (n *Node) coordAck(from transport.NodeID, w *wire) {
	cs := n.cs
	if cs == nil {
		return
	}
	g, ok := cs.groups[w.Group]
	if !ok {
		return
	}
	pc := g.pending.get(w.Seq)
	if pc == nil || !pc.ackFrom(from) {
		return
	}
	if !w.Fail {
		if pc.fail {
			pc.resp = w.Payload
			pc.fail = false
		}
		// The marked member has answered the caller itself, unless the
		// caller is this sequencer, whose answer is this ack.
		pc.direct = pc.direct || pc.marked && from != n.self && pc.origin != n.self
	}
	if pc.remaining == 0 {
		n.finishCast(g, w.Seq, pc)
	}
}

func (n *Node) finishCast(g *coordGroup, seq uint64, pc *pendingCast) {
	g.pending.del(seq)
	n.gCoordBacklog.Add(-1)
	g.gBacklog.Add(-1)
	// Order stage: staging to full ack quorum, the coordinator's share
	// of the operation's critical path — aggregate and keyed per group.
	// pc.start came from the coarse clock at staging time, so elapsed is
	// measured against the same clock.
	elapsed := obs.CoarseSince(pc.start).Seconds()
	n.hStageOrder.Observe(elapsed)
	g.hOrder.Observe(elapsed)
	if pc.trace != 0 {
		n.o.Spans().Record(obs.Span{
			Trace: pc.trace, ID: pc.span, Parent: pc.parent,
			Machine: nid(n.self), Name: "order", Group: pc.group,
			Start: pc.start, Bytes: pc.bytes, RespBytes: len(pc.resp),
			GroupSize: pc.size, Fail: pc.fail,
		})
	}
	if !pc.direct {
		n.cDoneGathered.Inc()
		n.sendReply(pc.origin, pc.reqID, pc.resp, pc.fail, pc.size)
	}
	putPendingCast(pc)
}

// coordNodeDown stops waiting on a crashed node, evicts it from every group
// this node sequences — a running recovery does not hold that up — and
// unblocks response gathering that was waiting on it. The edge's
// refreshPlacement then re-queries a running recovery's quorum.
func (n *Node) coordNodeDown(dead transport.NodeID) {
	cs := n.cs
	delete(cs.wait, dead)
	delete(cs.reports, dead) // a later incarnation reports afresh
	for _, name := range slices.Sorted(maps.Keys(cs.groups)) {
		g := cs.groups[name]
		if containsID(g.members, dead) {
			n.evictMember(g, dead)
		} else {
			n.dropFromPending(g, dead)
		}
	}
}

// dropFromPending removes a node from every pending cast's waiting set,
// finishing casts that become complete.
func (n *Node) dropFromPending(g *coordGroup, id transport.NodeID) {
	for s, e := g.pending.base, g.pending.next; s < e; s++ {
		pc := g.pending.get(s)
		if pc == nil {
			continue
		}
		if pc.ackFrom(id) && pc.remaining == 0 {
			n.finishCast(g, s, pc)
		}
	}
}

func containsID(ids []transport.NodeID, id transport.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

package vsync

import (
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
	groups     map[string]*coordGroup
	recovering bool
	syncWait   map[transport.NodeID]bool
	reports    map[transport.NodeID]map[string]syncInfo
	// claims holds coordinator claims pushed with tClaim while a recovery
	// runs (group → claimant → last assigned sequence); finishRecovery
	// merges them with the claims embedded in the reports.
	claims map[string]map[transport.NodeID]uint64
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

func (r *pendingRing) del(seq uint64) {
	if seq < r.base || seq >= r.next {
		return
	}
	r.buf[seq&uint64(len(r.buf)-1)] = nil
	for r.base < r.next && r.buf[r.base&uint64(len(r.buf)-1)] == nil {
		r.base++
	}
}

type queuedReq struct {
	from transport.NodeID
	w    *wire
}

// preCoordMax bounds the not-yet-coordinator request stash (Node.preCoord).
// The stash only grows during the short window between a peer observing the
// old coordinator's death and this node observing it; past the cap, excess
// requests are dropped and resolved by the sender's next coordinator change.
const preCoordMax = 4096

// addIDCopy returns ids plus id, building a new slice when a change is
// needed (coordinator-side membership is copy-on-write; see coordGroup).
func addIDCopy(ids []transport.NodeID, id transport.NodeID) []transport.NodeID {
	if containsID(ids, id) {
		return ids
	}
	out := make([]transport.NodeID, len(ids)+1)
	copy(out, ids)
	out[len(ids)] = id
	return out
}

// removeIDCopy returns ids minus id, building a new slice when a change is
// needed.
func removeIDCopy(ids []transport.NodeID, id transport.NodeID) []transport.NodeID {
	for i, x := range ids {
		if x != id {
			continue
		}
		out := make([]transport.NodeID, 0, len(ids)-1)
		out = append(out, ids[:i]...)
		return append(out, ids[i+1:]...)
	}
	return ids
}

// coordSyncInfo records a node's group report: during recovery it counts
// toward the survivor quorum; otherwise it is an unsolicited report from a
// newly discovered node, merged against the established state.
func (n *Node) coordSyncInfo(from transport.NodeID, w *wire) {
	cs := n.cs
	if cs == nil {
		return
	}
	if cs.recovering && cs.syncWait[from] {
		cs.reports[from] = w.Infos
		delete(cs.syncWait, from)
		if len(cs.syncWait) == 0 {
			n.finishRecovery()
		}
		return
	}
	if cs.recovering {
		// A report from outside the recovery quorum: fold it in as an
		// extra claim set; finishRecovery filters by liveness anyway.
		cs.reports[from] = w.Infos
		return
	}
	n.mergeReport(from, w.Infos)
}

// mergeReport reconciles an unsolicited membership report with the
// established group state:
//
//   - a claim for a group with no current members is adopted (the claimant
//     is the last holder of that state — discarding it would lose data);
//   - a claim from a node we do not count as a member, or whose delivery
//     counter runs ahead of the group's sequence, comes from a divergent
//     series (bootstrap split or post-eviction flap): the claimant is told
//     to wipe and rejoin, receiving fresh state from a current member.
func (n *Node) mergeReport(from transport.NodeID, infos map[string]syncInfo) {
	cs := n.cs
	for name, info := range infos {
		if !info.Member {
			continue
		}
		if n.coordOf(name) != n.self {
			continue // another owner's group; its coordinator reconciles it
		}
		cg := cs.groups[name]
		if cg == nil || len(cg.members) == 0 {
			if n.recoveredEpoch != n.liveEpoch {
				// An unknown group that maps to us in a view we have not
				// recovered must go through the full quorum, not
				// single-report adoption — other members may hold higher
				// sequences. This reply becomes the sender's recovery report.
				n.ensureRecovery()
				if n.cs.recovering {
					n.cs.reports[from] = infos
					delete(n.cs.syncWait, from)
					if len(n.cs.syncWait) == 0 {
						n.finishRecovery()
					}
				}
				return
			}
			if cg == nil {
				cg = n.newCoordGroup(name)
				cs.groups[name] = cg
				n.syncCoordGroups()
				// Adopting the last holder's state is a handoff, not a
				// crash takeover: no recovery quorum ran for it.
				n.recordOwnership(name, obs.OwnHandoff, n.self, 0)
			}
			cg.members = []transport.NodeID{from}
			cg.nextSeq = info.Last + 1
			if info.Coord && info.CoordLast >= cg.nextSeq {
				// The claimant also sequenced the group (an abdicator that
				// was its own member): start past everything it assigned.
				// Safe with a single member — it delivers its own tail.
				cg.nextSeq = info.CoordLast + 1
			}
			continue
		}
		if containsID(cg.members, from) && info.Last < cg.nextSeq {
			continue // consistent member, possibly catching up
		}
		if containsID(cg.members, from) {
			// Divergent series from a node we still count: stop counting
			// it before telling it to wipe, or response gathering would
			// wait forever on its acks.
			n.evictMember(cg, from)
		}
		n.send(from, &wire{Type: tRestate, Group: name})
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

// finishRecovery merges survivor reports into fresh sequencing state,
// resynchronizes members that missed deliveries during the failover, and
// replays queued requests. Only groups that map to this node are rebuilt
// (each owner recovers its own), groups already under our sequencing keep
// our authoritative record, and coordinator claims — from
// reports and pushed tClaims — raise the rebuilt next sequence past any
// range the previous sequencer assigned.
func (n *Node) finishRecovery() {
	cs := n.cs
	cs.recovering = false
	n.recoveredEpoch = n.liveEpoch
	// Takeover duration: quorum wait through state rebuild. Zero when the
	// state was seeded without a recovery (solo bootstrap).
	var takeover time.Duration
	if !cs.recoveryStart.IsZero() {
		takeover = time.Since(cs.recoveryStart)
		cs.recoveryStart = time.Time{}
	}
	type claim struct {
		node transport.NodeID
		last uint64
	}
	byGroup := make(map[string][]claim)
	coordLast := make(map[string]map[transport.NodeID]uint64)
	record := func(name string, node transport.NodeID, last uint64) {
		gm := coordLast[name]
		if gm == nil {
			gm = make(map[transport.NodeID]uint64)
			coordLast[name] = gm
		}
		if last > gm[node] {
			gm[node] = last
		}
	}
	for node, infos := range cs.reports {
		if !n.live[node] {
			continue
		}
		for name, info := range infos {
			if info.Member {
				byGroup[name] = append(byGroup[name], claim{node: node, last: info.Last})
			}
			if info.Coord {
				record(name, node, info.CoordLast)
			}
		}
	}
	for name, gm := range cs.claims {
		for node, last := range gm {
			if n.live[node] {
				record(name, node, last)
			}
		}
	}
	cs.claims = nil
	for name, claims := range byGroup {
		if n.coordOf(name) != n.self {
			continue // that group's owner runs its own recovery
		}
		if cs.groups[name] != nil {
			continue // already sequencing it; our record is authoritative
		}
		g := n.newCoordGroup(name)
		var donor transport.NodeID
		var maxLast uint64
		for _, c := range claims {
			g.members = addIDCopy(g.members, c.node)
			if c.last >= maxLast {
				maxLast = c.last
				donor = c.node
			}
		}
		// A coordinator claim counts only when the claimant is itself a live
		// member: it alone is guaranteed to deliver its own tail, so it can
		// donate the range (g.last, claim] to the others. A claim from a
		// non-member is ignored safely — no live member delivered anything
		// past maxLast, so those sequence numbers are free to reassign.
		target := maxLast
		for node, last := range coordLast[name] {
			if last > target && containsID(g.members, node) {
				target, donor = last, node
			}
		}
		g.nextSeq = target + 1
		cs.groups[name] = g
		n.o.Histogram(n.o.Series("vsync.takeover.seconds.{group}", name)).Observe(takeover.Seconds())
		n.recordOwnership(name, obs.OwnTakeover, n.self, takeover)
		for _, c := range claims {
			if c.last < target {
				// UpTo is the donation floor: the donor defers the snapshot
				// until its own deliveries reach it (donorResync).
				n.send(donor, &wire{Type: tResync, Group: name, Subject: nid(c.node), UpTo: target})
			}
		}
	}
	n.syncCoordGroups()
	queued := cs.queued
	cs.queued = nil
	for _, q := range queued {
		n.coordRequest(q.from, q.w)
	}
}

// newCoordGroup allocates a coordinator record with its per-group
// observability handles. Any abdication claim we retained for the name dies
// here: taking (back) ownership supersedes whatever we last handed off.
func (n *Node) newCoordGroup(name string) *coordGroup {
	delete(n.abdicated, name)
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
// record of, queue while recovering, and dispatch otherwise.
func (n *Node) coordRequest(from transport.NodeID, w *wire) {
	if n.coordOf(w.Group) != n.self {
		if len(n.preCoord) < preCoordMax {
			n.preCoord = append(n.preCoord, queuedReq{from: from, w: w})
		}
		return
	}
	if n.cs == nil || (!n.cs.recovering && n.cs.groups[w.Group] == nil) {
		// A no-op when this epoch's recovery already ran: a group its quorum
		// did not report is provably fresh.
		n.ensureRecovery()
	}
	cs := n.cs
	if cs.recovering {
		cs.queued = append(cs.queued, queuedReq{from: from, w: w})
		return
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

func (n *Node) coordJoin(w *wire) {
	g := n.coordGroupFor(w.Group)
	subject := tid(w.Subject)
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

// coordNodeDown evicts a crashed node from every group and unblocks
// response gathering that was waiting on it.
func (n *Node) coordNodeDown(dead transport.NodeID) {
	cs := n.cs
	if cs.recovering {
		delete(cs.syncWait, dead)
		if len(cs.syncWait) == 0 {
			n.finishRecovery()
			// fall through: the dead node may also appear in rebuilt groups
		} else {
			return
		}
	}
	for _, g := range cs.groups {
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

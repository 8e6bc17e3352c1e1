package vsync

import (
	"maps"
	"slices"
	"strings"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// Coordinator placement: each group's sequencer is derived per group from
// the observer's live set by the node's CoordFn. This file holds the
// membership reactions — abdication, takeover recovery, and the one report
// (tSyncInfo) that carries memberships and sequence ranges across a move,
// asked for again until it counts. The normative protocol is PROTOCOL.md,
// "Coordinator placement and takeover"; the sharding placement function
// lives in internal/placement, the constant one is LowestLive.

// syncRetry is how often a coordinator re-sends tSync to every peer in its
// wait set (coordState.wait); DESIGN.md, "vsync reconciles until it
// converges", says why 30 ms.
const syncRetry = 30 * time.Millisecond

// refreshPlacement carries out the placement consequences of a membership
// edge: hand off groups that no longer map to us, start (or re-query) the
// takeover recovery when evidence says a group now maps to us, send our
// report to every new owner of a group we belong to or just abdicated,
// replay the ahead-of-view request stash, and re-aim pending client
// requests.
func (n *Node) refreshPlacement(prev map[string]transport.NodeID) {
	// Rebalance accounting: a class moved iff its write group's owner
	// changed across the edge (wg and rg move together, so counting wg
	// alone counts classes once). prev holds the groups resolved in the
	// previous epoch — exactly the ones whose movement is observable here.
	for name, prevOwner := range prev {
		if strings.HasPrefix(name, "wg/") && n.coordOf(name) != prevOwner {
			n.cMovedClasses.Inc()
		}
	}
	// Abdications first: a group we keep sequencing after it moved away
	// would race the new owner's recovery.
	nudge := make(map[transport.NodeID]bool)
	if n.cs != nil {
		for _, name := range slices.Sorted(maps.Keys(n.cs.groups)) {
			if owner := n.coordOf(name); owner != n.self {
				n.abdicateGroup(name, n.cs.groups[name], owner)
				nudge[owner] = true
			}
		}
		n.syncCoordGroups()
	}
	if n.cs != nil && n.cs.recovering {
		n.requery() // reports counted under the old view may not be final
	} else {
		// Takeover evidence from our own membership.
		for name := range n.groups {
			if n.unsequenced(name) {
				n.ensureRecovery()
				break
			}
		}
	}
	// Our report to the new owner of every group we belong to: it teaches
	// an owner that has never seen the group to recover it first.
	for name, g := range n.groups {
		owner := n.coordOf(name)
		if owner == n.self || !g.active {
			continue
		}
		if prevOwner, ok := prev[name]; !ok || prevOwner != owner {
			nudge[owner] = true
		}
	}
	for _, owner := range slices.Sorted(maps.Keys(nudge)) {
		n.report(owner)
	}
	// Replay stashed requests that raced ahead of our old view; entries for
	// groups owned elsewhere are dropped — the sender observes the same
	// edge and retransmits to the owner itself.
	stash := n.preCoord
	n.preCoord = nil
	for _, q := range stash {
		if n.coordOf(q.w.Group) == n.self {
			n.coordRequest(q.from, q.w)
		}
	}
	// Re-send unresolved requests: joins and leaves when the owner changed, casts
	// always — only this node can miss a marked member's direct reply.
	for _, id := range slices.Sorted(maps.Keys(n.pending)) {
		p := n.pending[id]
		owner := n.coordOf(p.w.Group)
		if prevOwner, ok := prev[p.w.Group]; ok && prevOwner == owner && p.w.Type != tCastReq {
			continue
		}
		p.retransmitted = true // a stash may now hold &p.w past the reply: never recycled
		n.send(owner, &p.w)
	}
}

// unsequenced reports whether a group maps to this node in its current view
// but has no coordinator record here — what only a recovery may create.
func (n *Node) unsequenced(name string) bool {
	return n.coordOf(name) == n.self && (n.cs == nil || n.cs.groups[name] == nil)
}

// abdicateGroup hands one group's sequencing off to its new owner: the
// record is dropped, and staged and in-flight casts are discarded without
// reply (each client observes the same membership edge and retransmits to
// the new owner; the per-origin dedup cache makes the retry at-most-once).
func (n *Node) abdicateGroup(name string, g *coordGroup, newOwner transport.NodeID) {
	delete(n.cs.groups, name)
	last := g.nextSeq - 1
	for i := range g.staged {
		n.gCoordBacklog.Add(-1)
		g.gBacklog.Add(-1)
		g.staged[i] = nil
	}
	g.staged = g.staged[:0]
	g.stagedAt = g.stagedAt[:0]
	for s, e := g.pending.base, g.pending.next; s < e; s++ {
		if pc := g.pending.get(s); pc != nil {
			g.pending.del(s)
			n.gCoordBacklog.Add(-1)
			g.gBacklog.Add(-1)
			putPendingCast(pc)
		}
	}
	n.cCoordMove.Inc()
	n.recordOwnership(name, obs.OwnAbdicate, newOwner, 0)
	n.o.Emit("group-abdicate",
		obs.KV("group", name), obs.KV("to", newOwner), obs.KV("last", last))
}

// ensureRecovery starts the one takeover recovery a node runs per
// membership epoch: every live peer joins the wait set, and nothing new is
// sequenced for groups outside cs.groups until each has sent a report that
// counts. One recovery per epoch suffices — a group the quorum did not
// report is provably fresh, so later unknown groups in the same epoch are
// created at sequence 1 without asking again. A no-op while a recovery runs
// or once one finished in this epoch.
func (n *Node) ensureRecovery() {
	if n.cs == nil {
		n.cs = &coordState{
			groups:   make(map[string]*coordGroup),
			wait:     make(map[transport.NodeID]bool),
			resynced: make(map[resyncKey]transport.NodeID),
		}
	}
	cs := n.cs
	if cs.recovering || n.recoveredEpoch == n.liveEpoch {
		return
	}
	cs.recovering = true
	cs.recoveryStart = time.Now()
	cs.reports = make(map[transport.NodeID]map[string]uint64, len(n.live))
	n.o.Emit("takeover-recovery", obs.KV("epoch", n.liveEpoch), obs.KV("quorum", len(n.live)-1))
	n.requery()
}

// requery puts every live peer in the wait set, so the running recovery
// finishes only on reports checked against the current view (resyncs too
// are asked for again), and runs its next pass at once if nobody is left.
func (n *Node) requery() {
	clear(n.cs.resynced)
	for _, id := range slices.Sorted(maps.Keys(n.live)) {
		n.await(id)
	}
	if len(n.cs.wait) == 0 {
		n.finishRecovery()
	}
}

// await puts a live peer in the wait set and queries it. The loop re-sends
// the query every syncRetry until a report from the peer counts
// (coordSyncInfo) or the peer goes down (coordNodeDown).
func (n *Node) await(id transport.NodeID) {
	if id == n.self || !n.live[id] || n.cs.wait[id] {
		return
	}
	n.cs.wait[id] = true
	n.send(id, &wire{Type: tSync})
}

// retrySync re-sends tSync to every peer in the wait set, once per syncRetry
// tick.
func (n *Node) retrySync() {
	for _, id := range slices.Sorted(maps.Keys(n.cs.wait)) {
		n.send(id, &wire{Type: tSync})
	}
}

// retryTick is the channel of the wait set's retry ticker, which runs only
// while the set is non-empty: an empty set neither wakes the loop nor sends
// anything.
func (n *Node) retryTick() <-chan time.Time {
	if n.cs == nil || len(n.cs.wait) == 0 {
		if n.retry != nil {
			n.retry.Stop()
			n.retry = nil
		}
		return nil
	}
	if n.retry == nil {
		n.retry = time.NewTicker(syncRetry)
	}
	return n.retry.C
}

// report queues this node's one report — its memberships with their
// delivered sequence, and its live set — for a peer. settle sends it once
// this burst's self-addressed events are applied, so a sequencer's report
// covers everything it sequenced to itself.
func (n *Node) report(to transport.NodeID) {
	if !slices.Contains(n.reportTo, to) {
		n.reportTo = append(n.reportTo, to)
	}
}

// sendReports sends the queued reports (settle).
func (n *Node) sendReports() {
	if len(n.reportTo) == 0 {
		return
	}
	infos, live := n.ownSyncInfos(), idsToWire(n.liveSorted)
	for _, to := range n.reportTo {
		n.send(to, &wire{Type: tSyncInfo, Infos: infos, Payload: live})
	}
	n.reportTo = n.reportTo[:0]
}

// viewAgrees is the view check. A report counts only if its sender's live
// set holds no node ours lacks — it has seen every Down we have, so nothing
// a dead node sent can still change its state — and every group it lists
// that maps to this node in our view also maps here under its live set.
// Such a reporter already rejects the group's previous sequencer
// (memberOrdered), so the deliveries it reports are final: a rebuilt series
// cannot restart at a sequence number it already applied.
func (n *Node) viewAgrees(w *wire) bool {
	theirs := idsFromWire(w)
	if len(theirs) == 0 {
		return false
	}
	for _, id := range theirs {
		if !n.live[id] {
			return false
		}
	}
	for name := range w.Infos {
		if n.coordOf(name) == n.self && n.coordFn(name, theirs) != n.self {
			return false
		}
	}
	return true
}

// ownSyncInfos assembles this node's claim set: every group it is an active
// member of, with the last sequence it delivered there.
func (n *Node) ownSyncInfos() map[string]uint64 {
	infos := make(map[string]uint64, len(n.groups))
	for name, g := range n.groups {
		if g.active {
			infos[name] = g.last
		}
	}
	return infos
}

// syncCoordGroups publishes how many groups this node currently sequences —
// the per-machine spread the placement cap bounds.
func (n *Node) syncCoordGroups() {
	n.gCoordGroups.Set(int64(len(n.cs.groups)))
}

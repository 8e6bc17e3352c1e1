package vsync

import (
	"strings"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// Coordinator placement: each group's sequencer is derived per group from
// the observer's live set by the node's CoordFn. This file holds the
// membership reactions — abdication, takeover recovery, and the claim
// traffic that carries sequence ranges across a move. The normative
// protocol is PROTOCOL.md, "Coordinator placement and takeover"; the
// sharding placement function lives in internal/placement, the constant
// one is LowestLive.

// refreshPlacement carries out the placement consequences of a membership
// edge: hand off groups that no longer map to us, start a takeover recovery
// when evidence says a group now maps to us, nudge the new owners of groups
// we belong to, replay the pre-takeover request stash, and re-aim pending
// client requests.
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
	if n.cs != nil {
		for name, g := range n.cs.groups {
			if owner := n.coordOf(name); owner != n.self {
				n.abdicateGroup(name, g, owner)
			}
		}
		n.syncCoordGroups()
	}
	// Takeover evidence from our own membership: a group we belong to that
	// maps to us and is not under our sequencing needs a full-quorum
	// recovery before we may sequence it.
	for name := range n.groups {
		if n.coordOf(name) == n.self && (n.cs == nil || n.cs.groups[name] == nil) {
			n.ensureRecovery()
			break
		}
	}
	// Replay ordered events that raced ahead of our old view: a sequencer
	// that saw its predecessor die before we did is the coordinator now.
	held := n.preOrder
	n.preOrder = nil
	for _, q := range held {
		if n.coordOf(q.w.Group) == q.from {
			n.memberOrdered(q.from, q.w)
		}
	}
	// Nudge the (possibly new) owner of every group we belong to whose
	// coordinator moved: a member claim teaches an owner that has never
	// seen the group to recover it before sequencing.
	for name, g := range n.groups {
		owner := n.coordOf(name)
		if owner == n.self || !g.active {
			continue
		}
		if prevOwner, ok := prev[name]; ok && prevOwner == owner {
			continue
		}
		n.send(owner, &wire{Type: tClaim, Infos: map[string]syncInfo{
			name: {Member: true, Last: g.last},
		}})
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
	for _, p := range n.pending {
		owner := n.coordOf(p.group)
		if prevOwner, ok := prev[p.group]; ok && prevOwner == owner && p.w.Type != tCastReq {
			continue
		}
		p.retransmitted = true
		n.send(owner, p.w)
	}
}

// abdicateGroup hands one group's sequencing off to its new owner: the
// record is dropped, staged and in-flight casts are discarded without reply
// (each client observes the same membership edge and retransmits to the new
// owner; the per-origin dedup cache makes the retry at-most-once), the
// final assigned sequence is retained for recovery replies, and a claim is
// pushed to the new owner so it learns the range even before it asks.
func (n *Node) abdicateGroup(name string, g *coordGroup, newOwner transport.NodeID) {
	delete(n.cs.groups, name)
	last := g.nextSeq - 1
	n.abdicated[name] = last
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
	if newOwner != 0 && newOwner != n.self {
		n.send(newOwner, &wire{Type: tClaim, Infos: map[string]syncInfo{
			name: {Coord: true, CoordLast: last},
		}})
	}
	n.cCoordMove.Inc()
	n.recordOwnership(name, obs.OwnAbdicate, newOwner, 0)
	n.o.Emit("group-abdicate",
		obs.KV("group", name), obs.KV("to", newOwner), obs.KV("last", last))
}

// ensureRecovery starts (or extends) the one takeover recovery a node runs
// per membership epoch: interrogate every live peer with
// tSync and sequence nothing new for groups outside cs.groups until the
// full quorum has answered. One recovery per epoch suffices — a group the
// quorum did not report is provably fresh, so later unknown groups in the
// same epoch are created at sequence 1 without asking again.
func (n *Node) ensureRecovery() {
	if n.cs == nil {
		n.cs = &coordState{groups: make(map[string]*coordGroup)}
	}
	cs := n.cs
	starting := !cs.recovering
	if starting {
		if n.recoveredEpoch == n.liveEpoch {
			return
		}
		cs.recovering = true
		cs.recoveryStart = time.Now()
		cs.syncWait = make(map[transport.NodeID]bool, len(n.live))
		cs.reports = map[transport.NodeID]map[string]syncInfo{n.self: n.ownSyncInfos()}
	}
	// Ask every live peer not asked yet: all of them at the start, the
	// newcomers when a membership edge lands mid-recovery, so the finished
	// state reflects the current view.
	for id := range n.live {
		if _, have := cs.reports[id]; !have && !cs.syncWait[id] {
			cs.syncWait[id] = true
			n.send(id, &wire{Type: tSync})
		}
	}
	if starting {
		n.o.Emit("takeover-recovery", obs.KV("epoch", n.liveEpoch), obs.KV("quorum", len(cs.syncWait)))
		if len(cs.syncWait) == 0 {
			n.finishRecovery()
		}
	}
}

// coordClaim handles an unsolicited placement claim (tClaim): a member
// nudge or an abdicator's final-sequence handoff for a group that maps to
// us. Claims are evidence that the group predates this view — they trigger
// (or feed) the epoch's takeover recovery. A claim arriving after the
// recovery finished can only flag a conflict; the stale-sequencer member
// checks and restate already contain that window.
func (n *Node) coordClaim(from transport.NodeID, w *wire) {
	for name, info := range w.Infos {
		if n.coordOf(name) != n.self {
			continue
		}
		if info.Coord {
			n.cClaimCoord.Inc()
		}
		cs := n.cs
		if cs == nil || (!cs.recovering && cs.groups[name] == nil) {
			if n.recoveredEpoch == n.liveEpoch {
				continue // proven fresh this epoch; nothing to recover
			}
			n.ensureRecovery()
			cs = n.cs
		}
		if cs.recovering {
			if info.Coord {
				n.recordClaim(name, from, info.CoordLast)
			}
			continue
		}
		if g := cs.groups[name]; g != nil && info.Coord && info.CoordLast >= g.nextSeq {
			n.o.Emit("claim-conflict",
				obs.KV("group", name), obs.KV("from", from),
				obs.KV("claim", info.CoordLast), obs.KV("next", g.nextSeq))
		}
	}
}

// recordClaim folds one pushed coordinator claim into the running recovery.
// Pushed claims matter when the abdicator's reply was consumed before its
// handoff decision: the max over report claims and pushed claims decides
// the rebuilt group's next sequence (finishRecovery).
func (n *Node) recordClaim(name string, from transport.NodeID, last uint64) {
	cs := n.cs
	if cs.claims == nil {
		cs.claims = make(map[string]map[transport.NodeID]uint64)
	}
	gm := cs.claims[name]
	if gm == nil {
		gm = make(map[transport.NodeID]uint64)
		cs.claims[name] = gm
	}
	if last > gm[from] {
		gm[from] = last
	}
}

// ownSyncInfos assembles this node's full claim set: active memberships,
// current coordinatorships, and retained abdication claims. It is both the
// tSyncInfo reply body and the self-report seeding our own recoveries.
func (n *Node) ownSyncInfos() map[string]syncInfo {
	infos := make(map[string]syncInfo, len(n.groups)+len(n.abdicated))
	for name, g := range n.groups {
		if g.active {
			infos[name] = syncInfo{Member: true, Last: g.last}
		}
	}
	if n.cs != nil && !n.cs.recovering {
		for name, g := range n.cs.groups {
			si := infos[name]
			si.Coord, si.CoordLast = true, g.nextSeq-1
			infos[name] = si
		}
	}
	for name, last := range n.abdicated {
		si := infos[name]
		if !si.Coord || last > si.CoordLast {
			si.Coord = true
			si.CoordLast = last
			infos[name] = si
		}
	}
	return infos
}

// syncCoordGroups publishes how many groups this node currently sequences —
// the per-machine spread the placement cap bounds.
func (n *Node) syncCoordGroups() {
	if n.cs == nil {
		n.gCoordGroups.Set(0)
		return
	}
	n.gCoordGroups.Set(int64(len(n.cs.groups)))
}

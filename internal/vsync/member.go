package vsync

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"paso/internal/obs"
	"paso/internal/transport"
)

// memberOrdered handles a sequenced event from the coordinator.
func (n *Node) memberOrdered(from transport.NodeID, w *wire) {
	if from != n.coordOf(w.Group) && from != n.self {
		// Not this group's coordinator in our view: never apply — two
		// sequencers could assign conflicting sequence numbers during a
		// failover or migration window. A new sequencer cannot be ahead of
		// our view: its recovery counted our report only once we named it
		// (viewAgrees), so this is a deposed one.
		return
	}
	g, ok := n.groups[w.Group]
	if !ok {
		return // not a member (left, or stale broadcast)
	}
	if !g.active {
		// Joiner: buffer everything until the donor's snapshot installs;
		// our own join into an empty group has no donor and activates now.
		switch subject := tid(w.Subject); {
		case w.Event == evJoin && subject == n.self:
			g.members = idsFromWire(w)
			if w.Donor == 0 {
				n.activate(g, w.Seq)
				return
			}
			g.donor = tid(w.Donor)
		case w.Event == evDown && subject == g.donor:
			// The sequencer evicted our donor, which may have died before our
			// own detector would tell us (or after it already had): ask again.
			n.memberPeerEdge(subject)
		}
		g.buffer[w.Seq] = n.held(from, w)
		return
	}
	if w.Seq <= g.last {
		return // duplicate
	}
	if w.Seq != g.last+1 {
		g.buffer[w.Seq] = n.held(from, w) // a gap: wait for the predecessors
		return
	}
	g.last++
	n.apply(g, from, w)
	n.drain(g, from)
}

// held returns the wire to keep in a member buffer past this dispatch: a copy
// of one this node sent itself, which its sender recycles (a pooled run).
func (n *Node) held(from transport.NodeID, w *wire) *wire {
	if from != n.self {
		return w
	}
	cp := *w
	return &cp
}

// memberOrderedRun handles a contiguous run of sequenced data events: each
// sub-event is an ordinary tOrdered envelope (sequence Seq+i, materialized
// by the decoder), so buffering, dedup, and recovery treat a run exactly
// like the equivalent sequence of single events.
func (n *Node) memberOrderedRun(from transport.NodeID, w *wire) {
	for i := range w.Batch {
		n.memberOrdered(from, &w.Batch[i])
	}
}

// drain applies buffered events in sequence order.
func (n *Node) drain(g *memberState, orderer transport.NodeID) {
	for {
		w, ok := g.buffer[g.last+1]
		if !ok {
			break
		}
		delete(g.buffer, g.last+1)
		g.last++
		n.apply(g, orderer, w)
	}
}

// apply processes one in-order event on an active member.
func (n *Node) apply(g *memberState, orderer transport.NodeID, w *wire) {
	switch w.Event {
	case evData:
		// Coarse-clock site: per-delivery stage attribution, ms scale.
		dstart := obs.CoarseNow()
		resp, fail, dup := n.deliverOnce(g, w)
		n.hStageDeliver.Observe(obs.CoarseSince(dstart).Seconds())
		if w.Trace != 0 {
			note := ""
			if dup {
				note = "dup-suppressed"
			}
			n.o.Spans().Record(obs.Span{
				Trace: w.Trace, ID: obs.NextID(), Parent: w.Span,
				Machine: nid(n.self), Name: "deliver", Group: g.name,
				Start: dstart, Bytes: len(w.Payload), RespBytes: len(resp),
				Fail: fail, Note: note,
			})
		}
		// The completion mark: this apply was the last outstanding, so a non-fail
		// response is the gathered one and goes straight to the caller (a sequencer
		// reads it off the ack) — first, so a crash in between leaves the ack unsent.
		// The sequencer then retires the cast without reading the ack's payload
		// (coordAck's direct), so the ack carries the verdict only.
		ackPayload := resp
		if origin := tid(w.Origin); w.Size != 0 && !fail && orderer != n.self && origin != orderer {
			if origin == n.self {
				n.cDoneLocal.Inc()
			} else {
				n.cDoneDirect.Inc()
			}
			n.sendReply(origin, w.ReqID, resp, false, w.Size)
			ackPayload = nil
		}
		ack := getPooledWire()
		ack.Type = tAck
		ack.Group = g.name
		ack.Seq = w.Seq
		ack.ReqID = w.ReqID
		ack.Origin = w.Origin
		ack.Payload = ackPayload
		ack.Fail = fail
		ack.refs = 1
		n.send(orderer, ack)
	case evJoin:
		subject := tid(w.Subject)
		old := append([]transport.NodeID(nil), g.members...)
		g.members = addID(g.members, subject)
		if tid(w.Donor) == n.self && subject != n.self {
			n.sendSnapshot(g, subject)
		}
		n.emitViewChange(g, "join", subject, old)
		n.h.ViewChange(g.name, append([]transport.NodeID(nil), g.members...))
	case evLeave:
		subject := tid(w.Subject)
		old := append([]transport.NodeID(nil), g.members...)
		g.members = removeID(g.members, subject)
		n.emitViewChange(g, "leave", subject, old)
		if subject == n.self {
			n.setActive(g.name, false)
			n.h.Evict(g.name)
			delete(n.groups, g.name)
			n.resolveLocal(g.name, tLeaveReq)
			return
		}
		n.h.ViewChange(g.name, append([]transport.NodeID(nil), g.members...))
	case evDown:
		subject := tid(w.Subject)
		old := append([]transport.NodeID(nil), g.members...)
		g.members = removeID(g.members, subject)
		n.emitViewChange(g, "down", subject, old)
		n.h.ViewChange(g.name, append([]transport.NodeID(nil), g.members...))
	}
}

// emitViewChange records an ordered membership event with the old and new
// membership, so a live /trace shows exactly how each view evolved.
func (n *Node) emitViewChange(g *memberState, event string, subject transport.NodeID, old []transport.NodeID) {
	n.o.Emit("view-change",
		obs.KV("group", g.name),
		obs.KV("event", event),
		obs.KV("subject", subject),
		obs.KV("old", fmt.Sprint(old)),
		obs.KV("new", fmt.Sprint(g.members)))
}

// deliverOnce invokes the handler unless the (origin, reqID) pair was
// already delivered, in which case the cached response is replayed and dup
// reports the suppression.
func (n *Node) deliverOnce(g *memberState, w *wire) (resp []byte, fail, dup bool) {
	r := g.delivered[w.Origin]
	if r == nil {
		r = &deliveredRing{slot: make(map[uint64]int)}
		g.delivered[w.Origin] = r
	}
	if i, ok := r.slot[w.ReqID]; ok {
		return r.buf[i].Resp, r.buf[i].Fail, true
	}
	resp, fail = n.h.Deliver(g.name, tid(w.Origin), w.Payload)
	r.add(deliveredEntry{ReqID: w.ReqID, Resp: resp, Fail: fail})
	return resp, fail, false
}

// deliveredRing is one origin's duplicate-suppression window: its last
// maxDeliveredCache deliveries, oldest overwritten first, indexed by request id.
type deliveredRing struct {
	buf  []deliveredEntry // grows to maxDeliveredCache, then wraps at head
	head int              // the oldest entry once the ring is full
	slot map[uint64]int   // request id → position in buf
}

func (r *deliveredRing) add(e deliveredEntry) {
	i := len(r.buf)
	if i < maxDeliveredCache {
		r.buf = append(r.buf, e)
	} else {
		i = r.head
		delete(r.slot, r.buf[i].ReqID)
		r.buf[i] = e
		r.head = (i + 1) % maxDeliveredCache
	}
	r.slot[e.ReqID] = i
}

// sendSnapshot ships this member's state for the group to a joiner or
// laggard. The snapshot reflects exactly the deliveries up to g.last and
// carries the dedup cache so the receiver's duplicate decisions match ours.
func (n *Node) sendSnapshot(g *memberState, to transport.NodeID) {
	env := &snapshotEnvelope{
		App:       n.h.Snapshot(g.name),
		Delivered: make(map[uint64][]deliveredEntry, len(g.delivered)),
	}
	for origin, r := range g.delivered { // oldest first
		env.Delivered[origin] = slices.Concat(r.buf[r.head:], r.buf[:r.head])
	}
	payload := encodeSnapshot(env)
	n.cStateSent.Add(int64(len(payload)))
	n.o.Emit("state-transfer",
		obs.KV("group", g.name),
		obs.KV("to", to),
		obs.KV("bytes", len(payload)))
	n.send(to, &wire{
		Type:    tState,
		Group:   g.name,
		Payload: payload,
		UpTo:    g.last,
	})
}

// memberState_ handles an incoming state snapshot (the underscore avoids
// colliding with the memberState type).
func (n *Node) memberState_(from transport.NodeID, w *wire) {
	g, ok := n.groups[w.Group]
	if !ok {
		return
	}
	if g.active && w.UpTo <= g.last {
		return // stale snapshot
	}
	env, err := decodeSnapshot(w.Payload)
	if err != nil {
		return
	}
	n.h.Install(g.name, env.App)
	g.delivered = make(map[uint64]*deliveredRing, len(env.Delivered))
	for origin, entries := range env.Delivered {
		r := &deliveredRing{slot: make(map[uint64]int, len(entries))}
		for _, e := range entries {
			r.add(e)
		}
		g.delivered[origin] = r
	}
	n.prune(g, w.UpTo) // everything at or before UpTo is reflected in the snapshot
	if !g.active {
		n.activate(g, w.UpTo)
		return
	}
	g.last = w.UpTo
	n.drain(g, n.coordOf(g.name))
	if cs := n.cs; cs != nil && cs.recovering && len(cs.wait) == 0 {
		n.finishRecovery() // the recovery may be waiting on exactly this resync
	}
}

// activate completes a join: the member starts delivering from seq+1.
func (n *Node) activate(g *memberState, upTo uint64) {
	g.active = true
	g.last = upTo
	n.prune(g, upTo)
	n.h.ViewChange(g.name, append([]transport.NodeID(nil), g.members...))
	n.drain(g, n.coordOf(g.name))
	if n.groups[g.name] == g { // the drained tail may hold our own leave
		n.setActive(g.name, true)
	}
	// Resolve the join last, so a caller returning from Join finds Member
	// already true.
	n.resolveLocal(g.name, tJoinReq)
}

// prune drops the buffered events at or before upTo, which a snapshot or a
// donorless join covers. A data event among them is acked to the sequencer,
// failed: the installed state holds it, or no member does, and either way no
// gather may wait for an apply this member will never make.
func (n *Node) prune(g *memberState, upTo uint64) {
	for _, seq := range slices.Sorted(maps.Keys(g.buffer)) {
		if seq > upTo {
			break
		}
		if w := g.buffer[seq]; w.Event == evData {
			n.send(n.coordOf(g.name), &wire{Type: tAck, Group: g.name, Seq: seq, ReqID: w.ReqID, Origin: w.Origin, Fail: true})
		}
		delete(g.buffer, seq)
	}
}

// memberRestate handles a coordinator verdict that our membership of a
// group comes from a divergent sequence series (bootstrap split brain or a
// failure-detector flap that evicted us unseen): wipe the local state and
// rejoin from scratch, receiving a fresh snapshot from a current member.
func (n *Node) memberRestate(from transport.NodeID, w *wire) {
	if from != n.coordOf(w.Group) {
		return // only the group's current coordinator may restate us
	}
	g, ok := n.groups[w.Group]
	if !ok {
		return
	}
	if g.active {
		n.setActive(g.name, false)
		n.h.Evict(g.name)
	}
	delete(n.groups, w.Group)
	// Rejoin with a fire-and-forget pending request: retransmission on
	// coordinator change works as for any client request, and resolution
	// happens locally at activation. Nobody waits on the record; its done
	// channel is buffered, so resolution never blocks the loop.
	n.startRequest(newReq(tJoinReq, w.Group))
}

// donorResync handles a recovering coordinator's instruction to push state
// to a member that missed deliveries during a failover. We reported the
// highest delivered sequence, so the snapshot covers the rebuilt series'
// start.
func (n *Node) donorResync(w *wire) {
	if g, ok := n.groups[w.Group]; ok && g.active {
		n.sendSnapshot(g, tid(w.Subject))
	}
}

// memberPeerEdge re-requests every join still waiting on a snapshot from a
// peer whose liveness just changed: after its Down the coordinator picks
// another donor; after its Up — a link healed — the snapshot it sent while
// the link was cut comes again.
func (n *Node) memberPeerEdge(peer transport.NodeID) {
	for _, id := range slices.Sorted(maps.Keys(n.pending)) {
		p := n.pending[id]
		if g := n.groups[p.w.Group]; p.w.Type == tJoinReq && g != nil && !g.active && g.donor == peer {
			n.send(n.coordOf(p.w.Group), &p.w)
		}
	}
}

// idsFromWire extracts the membership list carried by a join event. The
// coordinator embeds it in Payload as varints to give the joiner its
// initial view; the payload's own length prefix delimits the list. A
// truncated varint ends the list early — harmless, since a garbled frame
// is already rejected by the envelope decoder upstream.
func idsFromWire(w *wire) []transport.NodeID {
	out := make([]transport.NodeID, 0, len(w.Payload))
	for b := w.Payload; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, transport.NodeID(v))
		b = b[n:]
	}
	return out
}

// idsToWire serializes a membership list for a join event. Node IDs are
// small integers, so the varint list costs ~1 byte per member instead of 8.
func idsToWire(ids []transport.NodeID) []byte {
	out := make([]byte, 0, 2*len(ids))
	for _, id := range ids {
		out = binary.AppendUvarint(out, uint64(id))
	}
	return out
}

func addID(ids []transport.NodeID, id transport.NodeID) []transport.NodeID {
	for _, x := range ids {
		if x == id {
			return ids
		}
	}
	return append(ids, id)
}

func removeID(ids []transport.NodeID, id transport.NodeID) []transport.NodeID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

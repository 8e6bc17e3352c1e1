package vsync

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"sort"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// This file implements epoch-fenced leased reads (PROTOCOL.md, "Leased
// reads"): a direct point-to-point request/response path that bypasses the
// sequencer entirely. While the view is stable, every active member of a
// group holds an implicit read lease keyed by the view epoch — a hash of
// the failure detector's live set, identical on every node that sees the
// same view. A client stamps its epoch on a tLeaseRead; the serving member
// answers from local state only when its own epoch matches, and any
// membership edge on either side fences the exchange, forcing the client
// back onto the ordered-gcast path. Safety rests on the engine's write
// discipline: a completed write was acknowledged by every live group
// member, so an epoch-matched member's local state reflects it.

// LeaseReader is the optional Handler extension behind the leased-read
// fast path. When the handler implements it, the node answers tLeaseRead
// requests for groups it actively belongs to by calling LeaseRead from the
// event loop; like every Handler method it must not block and must not
// call back into the node. Handlers that do not implement the interface
// simply fence every lease request, so the feature is invisible to them.
type LeaseReader interface {
	// LeaseRead serves one leased read from local state. payload aliases
	// the transport receive frame (immutable; may be retained), exactly
	// like Handler.Deliver's payload. fail marks a local miss; the reply
	// still counts as served, the fence flag is reserved for epoch and
	// membership mismatches.
	LeaseRead(group string, payload []byte) (resp []byte, fail bool)
}

// Lease errors. Both mean "fall back to the ordered path"; they are
// distinct so callers can count fences and timeouts separately.
var (
	// ErrLeaseFenced reports that a view epoch changed between issuing a
	// leased read and resolving it, or that the server refused it (not a
	// member, epoch mismatch, no LeaseReader). The answer, if any, was
	// discarded unread.
	ErrLeaseFenced = errors.New("vsync: leased read fenced by view change")
	// ErrLeaseTimeout reports that a leased read received no reply in time
	// (the target crashed before the failure detector noticed, or the
	// reply was lost).
	ErrLeaseTimeout = errors.New("vsync: leased read timed out")
)

// LeaseResult is a successfully served leased read.
type LeaseResult struct {
	// Payload is the serving member's response, immutable like
	// Result.Payload: a caller may alias it.
	Payload []byte
	// Seq is the server's delivered sequence number for the group at
	// answer time — the ordered prefix the answer reflects.
	Seq uint64
	// Epoch is the view epoch the exchange was fenced on.
	Epoch uint64
	// GroupSize is the server's membership size for the group.
	GroupSize int
}

// liveView is the atomically published snapshot of the failure detector's
// live set: the sorted membership and its epoch hash. One pointer holds
// both so readers never observe an epoch paired with another view's ids.
type liveView struct {
	epoch uint64
	ids   []transport.NodeID
}

// viewEpochOf hashes a sorted live set into a view epoch (FNV-64a over the
// little-endian ids). Unlike the loop-local liveEpoch counter — which
// counts membership edges each node happens to observe — the hash is a
// pure function of the membership, so two nodes with equal live views
// always carry equal epochs and a client/server epoch comparison is
// meaningful across machines.
func viewEpochOf(sorted []transport.NodeID) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range sorted {
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// publishView recomputes and atomically publishes the live view and fences
// every pending leased read (their epoch is now stale). Called from
// liveChanged on every membership edge, including the constructor's
// initial view.
func (n *Node) publishView() {
	ids := make([]transport.NodeID, 0, len(n.live))
	for id := range n.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n.view.Store(&liveView{epoch: viewEpochOf(ids), ids: ids})
	n.fenceLeases()
}

// fenceLeases fails every pending leased read with ErrLeaseFenced. An
// answer still in flight under the old epoch may describe a store that is
// about to diverge (a write completing against the shrunken membership),
// so it must not be trusted; the client falls back to the ordered path.
func (n *Node) fenceLeases() {
	if len(n.leases) == 0 {
		return
	}
	for id, p := range n.leases {
		delete(n.leases, id)
		n.cLeaseFenced.Inc()
		p.err = ErrLeaseFenced
		p.done <- struct{}{}
	}
}

// ViewEpoch returns the node's current view epoch: a hash of the failure
// detector's live set, equal on every node observing the same view. It is
// readable from any goroutine without crossing the event loop.
func (n *Node) ViewEpoch() uint64 { return n.view.Load().epoch }

// LiveView returns the current live set (sorted, shared — callers must not
// mutate it) together with the view epoch it hashes to. Unlike Alive it
// does not cross the event loop, so it is cheap enough for per-operation
// use (the leased-read target selection).
func (n *Node) LiveView() ([]transport.NodeID, uint64) {
	v := n.view.Load()
	return v.ids, v.epoch
}

// LeaseRead sends one epoch-fenced direct read for a group to a peer
// believed to be an active member, bypassing the sequencer, and waits for
// the reply. It fails with ErrLeaseFenced when the view epoch moves on
// either side of the exchange, and with ErrLeaseTimeout when no reply
// lands within timeout; both mean the caller must retry on the ordered
// gcast path. The fallback contract is one-sided: a fenced or timed-out
// leased read performed no write anywhere, so retrying is always safe.
func (n *Node) LeaseRead(group string, to transport.NodeID, payload []byte, timeout time.Duration) (LeaseResult, error) {
	p := getReq()
	p.w = wire{Type: tLeaseRead, Group: group, Origin: nid(n.self), UpTo: n.ViewEpoch(), Payload: payload}
	p.to = to
	if !n.enqueue(command{call: p}) || !n.waitLease(p, timeout) {
		return LeaseResult{}, ErrClosed
	}
	res := LeaseResult{Payload: p.res.Payload, Seq: p.seq, Epoch: p.w.UpTo, GroupSize: p.res.GroupSize}
	err := p.err
	putReq(p) // the loop sent a pooled copy of p.w, never p.w itself
	if err != nil {
		return LeaseResult{}, err
	}
	return res, nil
}

// waitLease waits, as wait does, for the loop to resolve a queued leased
// read, and expires it after timeout on the record's own timer: the loop
// drops it with ErrLeaseTimeout unless a reply or fence resolved it first.
// A reset timer delivers no tick left from the record's previous call (Go
// 1.23 timer semantics).
func (n *Node) waitLease(p *pendingReq, timeout time.Duration) bool {
	if p.timer == nil {
		p.timer = time.NewTimer(timeout)
	} else {
		p.timer.Reset(timeout)
	}
	defer p.timer.Stop()
	select {
	case <-p.done:
		return true
	case <-n.done:
		return false
	case <-p.timer.C:
	}
	// The queue is FIFO, so the loop has run startLease by now.
	if !n.query(func() {
		if n.leases[p.w.ReqID] == p {
			delete(n.leases, p.w.ReqID)
			p.err = ErrLeaseTimeout
			p.done <- struct{}{}
		}
	}) {
		return false
	}
	<-p.done
	return true
}

// startLease registers a queued leased read and sends it, unless a
// membership edge between the caller's epoch read and now already fenced it.
func (n *Node) startLease(p *pendingReq) {
	if n.ViewEpoch() != p.w.UpTo {
		n.cLeaseFenced.Inc()
		p.err = ErrLeaseFenced
		p.done <- struct{}{}
		return
	}
	n.reqSeq++
	p.w.ReqID = n.reqSeq
	n.leases[p.w.ReqID] = p
	// A pooled copy, recycled once encoded: a fence can resolve the call
	// (and its caller reuse the record) before this burst's frames leave.
	w := getPooledWire()
	w.Type, w.Group, w.ReqID, w.Origin = tLeaseRead, p.w.Group, p.w.ReqID, p.w.Origin
	w.UpTo, w.Payload = p.w.UpTo, p.w.Payload
	w.refs = 1
	n.send(p.to, w)
}

// serveLeaseRead answers one tLeaseRead on the event loop. The lease
// holds only when this node is an active member of the group, its view
// epoch equals the client's, and the handler can serve local reads;
// otherwise the reply carries the fence flag and the server's epoch so
// the client can tell a fence from a miss. A served reply stamps the
// group's delivered sequence and membership size.
func (n *Node) serveLeaseRead(from transport.NodeID, w *wire) {
	reply := getPooledWire()
	reply.Type, reply.Group, reply.ReqID, reply.refs = tLeaseReply, w.Group, w.ReqID, 1
	epoch := n.ViewEpoch()
	reply.UpTo = epoch
	g, member := n.groups[w.Group]
	lr, canServe := n.h.(LeaseReader)
	if !canServe || !member || !g.active || w.UpTo != epoch {
		reply.Fail = true
		n.cLeaseRefused.Inc()
		n.send(from, reply)
		return
	}
	start := obs.CoarseNow()
	resp, _ := lr.LeaseRead(w.Group, w.Payload)
	n.hStageLease.Observe(obs.CoarseSince(start).Seconds())
	reply.Payload = resp
	reply.Seq = g.last
	reply.Size = len(g.members)
	n.cLeaseServed.Inc()
	n.send(from, reply)
}

// leaseReply resolves a pending leased read on the event loop. The reply
// is trusted only when the server served it (no fence flag) under exactly
// the epoch the request was issued in, and that epoch is still current
// here — three comparisons that together implement the lease's fencing
// rule on the client side.
func (n *Node) leaseReply(w *wire) {
	p, ok := n.leases[w.ReqID]
	if !ok {
		return // timed out, fenced, or duplicate
	}
	delete(n.leases, w.ReqID)
	if epoch := p.w.UpTo; w.Fail || w.UpTo != epoch || n.ViewEpoch() != epoch {
		n.cLeaseFenced.Inc()
		p.err = ErrLeaseFenced
	} else {
		p.res = Result{Payload: w.Payload, GroupSize: w.Size}
		p.seq = w.Seq
	}
	p.done <- struct{}{}
}

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

// pendingLease is a client-side leased read awaiting its reply or a fence.
type pendingLease struct {
	ch    chan leaseOutcome
	epoch uint64
}

// leaseOutcome resolves one pending leased read.
type leaseOutcome struct {
	res LeaseResult
	err error
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
		p.ch <- leaseOutcome{err: ErrLeaseFenced}
	}
}

// ViewEpoch returns the node's current view epoch: a hash of the failure
// detector's live set, equal on every node observing the same view. It is
// readable from any goroutine without crossing the event loop.
func (n *Node) ViewEpoch() uint64 {
	if v := n.view.Load(); v != nil {
		return v.epoch
	}
	return 0
}

// LiveView returns the current live set (sorted, shared — callers must not
// mutate it) together with the view epoch it hashes to. Unlike Alive it
// does not cross the event loop, so it is cheap enough for per-operation
// use (the leased-read target selection).
func (n *Node) LiveView() ([]transport.NodeID, uint64) {
	if v := n.view.Load(); v != nil {
		return v.ids, v.epoch
	}
	return nil, 0
}

// LeaseRead sends one epoch-fenced direct read for a group to a peer
// believed to be an active member, bypassing the sequencer, and waits for
// the reply. It fails with ErrLeaseFenced when the view epoch moves on
// either side of the exchange, and with ErrLeaseTimeout when no reply
// lands within timeout; both mean the caller must retry on the ordered
// gcast path. The fallback contract is one-sided: a fenced or timed-out
// leased read performed no write anywhere, so retrying is always safe.
func (n *Node) LeaseRead(group string, to transport.NodeID, payload []byte, timeout time.Duration) (LeaseResult, error) {
	epoch := n.ViewEpoch()
	ch := make(chan leaseOutcome, 1)
	var reqID uint64
	ok := n.do(func() {
		// Re-check on the loop: a membership edge between the caller's
		// epoch read and the loop picking the command up must fence before
		// anything is sent.
		if v := n.view.Load(); v == nil || v.epoch != epoch {
			n.cLeaseFenced.Inc()
			ch <- leaseOutcome{err: ErrLeaseFenced}
			return
		}
		n.reqSeq++
		reqID = n.reqSeq
		n.leases[reqID] = &pendingLease{ch: ch, epoch: epoch}
		n.send(to, &wire{
			Type:    tLeaseRead,
			Group:   group,
			ReqID:   reqID,
			Origin:  nid(n.self),
			UpTo:    epoch,
			Payload: payload,
		})
	})
	if !ok {
		return LeaseResult{}, ErrClosed
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.res, out.err
	case <-timer.C:
		// Deregister best-effort; a reply racing the timer resolves into
		// the buffered channel and is discarded with the pendingLease.
		n.do(func() { delete(n.leases, reqID) })
		return LeaseResult{}, ErrLeaseTimeout
	case <-n.done:
		return LeaseResult{}, ErrClosed
	}
}

// serveLeaseRead answers one tLeaseRead on the event loop. The lease
// holds only when this node is an active member of the group, its view
// epoch equals the client's, and the handler can serve local reads;
// otherwise the reply carries the fence flag and the server's epoch so
// the client can tell a fence from a miss. A served reply stamps the
// group's delivered sequence and membership size.
func (n *Node) serveLeaseRead(from transport.NodeID, w *wire) {
	reply := &wire{Type: tLeaseReply, Group: w.Group, ReqID: w.ReqID}
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
	if w.Fail || w.UpTo != p.epoch || n.ViewEpoch() != p.epoch {
		n.cLeaseFenced.Inc()
		p.ch <- leaseOutcome{err: ErrLeaseFenced}
		return
	}
	p.ch <- leaseOutcome{res: LeaseResult{
		Payload:   w.Payload,
		Seq:       w.Seq,
		Epoch:     w.UpTo,
		GroupSize: w.Size,
	}}
}

package vsync

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// Handler receives group events on behalf of the application (the memory
// server). All methods are invoked from the node's event loop; they must
// not block and must not call back into Node methods that cross the loop
// (doing so would deadlock) — SendApp and the published views (Member,
// LiveView, ViewEpoch) are the exceptions.
type Handler interface {
	// Deliver processes one totally ordered gcast payload and returns the
	// member's response. fail=true marks a "fail" response; the gatherer
	// prefers non-fail responses (paper §3.2: one response is returned).
	//
	// Ownership: payload aliases the transport's receive frame (for a local
	// cast, the slice given to Gcast), immutable and never reused. The
	// handler may therefore retain payload (or sub-slices of it)
	// indefinitely without copying; release is by garbage collection when
	// the last retained slice is dropped. See DESIGN.md, "Delivery
	// buffer ownership".
	Deliver(group string, origin transport.NodeID, payload []byte) (resp []byte, fail bool)
	// Snapshot serializes the member's state for the group, used as the
	// g-join state transfer (paper §4.2).
	Snapshot(group string) []byte
	// Install replaces the member's state for the group with a snapshot.
	Install(group string, state []byte)
	// Evict tells the handler to erase its state for the group after a
	// voluntary leave (paper §4.2: servers erase information on g-leave).
	Evict(group string)
	// ViewChange reports the new membership after any ordered membership
	// event for a group this node belongs to.
	ViewChange(group string, members []transport.NodeID)
	// AppMessage receives a point-to-point payload sent with SendApp,
	// outside any group ordering (used for marker wakeups, §4.3).
	AppMessage(from transport.NodeID, payload []byte)
}

// Result is the outcome of a Gcast: the single gathered response, the fail
// flag, and the group size at ordering time (piggybacked per §5.1 so
// clients can learn |F(C)| cheaply).
type Result struct {
	Payload   []byte
	Fail      bool
	GroupSize int
}

// ErrClosed is returned by API calls on a closed (or crashed) node.
var ErrClosed = errors.New("vsync: node closed")

// maxDeliveredCache bounds the per-origin duplicate-suppression cache.
// Retransmissions happen promptly after coordinator changes, so only a
// small recent window is needed.
const maxDeliveredCache = 256

// Node is one machine's attachment to the group layer. All state is owned
// by a single event-loop goroutine; public methods communicate with the
// loop through a command channel.
type Node struct {
	ep   transport.Endpoint
	h    Handler
	self transport.NodeID
	// owned is non-nil when the endpoint supports pooled-buffer sends
	// (both bundled transports do): encoded frames then cycle through the
	// transport buffer pool instead of being allocated per message.
	owned transport.OwnedSender
	// dec decodes incoming frames, interning group names. Loop-owned.
	dec wireDecoder

	cmds chan func()
	stop chan struct{}
	done chan struct{}

	// Loop-owned state below; never touched outside the loop.
	live    map[transport.NodeID]bool
	reqSeq  uint64
	pending map[uint64]*pendingReq
	groups  map[string]*memberState
	cs      *coordState // non-nil once this node has sequenced (or recovered) any group
	// Every group's coordinator is derived from the live set by coordFn.
	// coordCache memoizes coordFn per group and is invalidated on every
	// membership edge; liveSorted is the derivation input; liveEpoch counts
	// edges and recoveredEpoch marks the last epoch a full takeover recovery
	// completed in (placed.go); abdicated retains this node's final sequence
	// claims for groups it handed off, reported during other owners'
	// recoveries so sequence ranges survive the move.
	coordFn        CoordFn
	coordCache     map[string]transport.NodeID
	liveSorted     []transport.NodeID
	liveEpoch      uint64
	recoveredEpoch uint64
	abdicated      map[string]uint64
	// leases holds the pending leased reads issued by this node, keyed by
	// request ID. Loop-owned; fenced wholesale on every membership edge
	// (fenceLeases) because their epoch is stale the moment the live set
	// moves.
	leases map[uint64]*pendingLease
	// view atomically publishes the failure detector's live set and its
	// epoch hash (publishView), so the leased-read path can read both
	// off-loop without a command round-trip.
	view atomic.Pointer[liveView]
	// active atomically publishes the set of groups this node is an active
	// member of, so Member answers off-loop like LiveView does. Copy-on-write;
	// setActive holds the ordering rule against Handler.Install and Evict.
	active atomic.Pointer[map[string]bool]
	// preCoord stashes client requests for groups that do not (yet) map to
	// this node. A client whose failure detector runs ahead of ours sends
	// here before we have processed the old coordinator's death; dropping
	// such a request would strand the client forever, because it retransmits
	// only on a membership *edge* of its own and its view is already correct.
	// Replayed by refreshPlacement on the next membership edge, discarded
	// when the group resolves to another node (that client's own coordinator
	// change covers the retransmission then).
	preCoord []queuedReq
	// preOrder is the member-side twin of preCoord: ordered events from a
	// sequencer our view does not (yet) name the group's coordinator
	// (memberOrdered). Lives for one membership edge.
	preOrder []queuedReq

	// Outgoing frames are staged here and flushed once per loop burst:
	// messages bound for the same peer coalesce into one tBatch frame, so
	// a burst of k ordered events costs one frame's α instead of k (§3.3).
	// The slices are reused across bursts.
	outbox      map[transport.NodeID][]*wire
	outboxOrder []transport.NodeID
	// selfq holds the wires this node addressed to itself (its own request,
	// the sequencer's copy of a run, its own ack and reply): no codec, no
	// transport — settle dispatches them before the burst's frames leave.
	selfq    []*wire
	resolved bool // this burst answered a caller, so the loop yields once
	// Observability handles (resolved once at construction).
	o           *obs.Obs
	cGcast      *obs.Counter
	cGcastFail  *obs.Counter
	hGcastLat   *obs.Histogram
	cViewChange *obs.Counter
	cCoordMove  *obs.Counter
	cStateSent  *obs.Counter
	cStateRecv  *obs.Counter
	cBatchSends *obs.Counter
	cBatchMsgs  *obs.Counter
	hBatchOcc   *obs.Histogram
	cWireReject *obs.Counter
	// Which rule completed each cast (PROTOCOL.md, "Completing a gcast").
	cDoneLocal    *obs.Counter
	cDoneDirect   *obs.Counter
	cDoneGathered *obs.Counter
	// Per-stage latency attribution (see obs.StageOrderNames): time a
	// gcast waits for the event loop, and time spent encoding frames.
	hStageClientQ *obs.Histogram
	hStageEncode  *obs.Histogram
	hStageDeliver *obs.Histogram
	hStageOrder   *obs.Histogram
	gCoordBacklog *obs.Gauge
	gCoordGroups  *obs.Gauge
	// Batched-ordering counters: runs emitted, casts they carried, and
	// the per-run occupancy distribution (casts per seq range).
	cRunSends *obs.Counter
	cRunCasts *obs.Counter
	hRunOcc   *obs.Histogram
	// hFrame records encoded frame bytes per message type (indexed by
	// msgType), the measured |m| of the §3.3 cost model.
	hFrame [tMaxType + 1]*obs.Histogram
	// Leased-read accounting: requests this node served, requests it
	// refused as server (fence flag sent), and client-side fences
	// (epoch moved or the server refused); plus the serve-side stage
	// histogram.
	cLeaseServed  *obs.Counter
	cLeaseRefused *obs.Counter
	cLeaseFenced  *obs.Counter
	hStageLease   *obs.Histogram
	// Placement churn accounting: claims gathered during recovery, claim
	// conflicts resolved by epoch, and classes whose owner moved across a
	// live-set change.
	cClaimMember   *obs.Counter
	cClaimCoord    *obs.Counter
	cClaimConflict *obs.Counter
	cMovedClasses  *obs.Counter
}

// wirePool recycles the wires the hot path mints per operation — the
// coordinator's runs and replies and the members' acks. A pooled wire
// carries refs = number of destinations it is staged to; the encode for the
// last of them recycles it (releaseWire). Staging and encoding both happen
// on the event loop, so refs needs no synchronization.
var wirePool = sync.Pool{New: func() any { return new(wire) }}

func getPooledWire() *wire { return wirePool.Get().(*wire) }

// releaseWire drops one staging reference. Unpooled wires (refs zero —
// membership events, client requests, recovery traffic) are left to the
// garbage collector.
func releaseWire(w *wire) {
	if w.refs == 0 {
		return
	}
	if w.refs--; w.refs != 0 {
		return
	}
	// Reset, keeping the Batch backing array but dropping every payload
	// reference it pins (payloads alias transport recv frames).
	batch := w.Batch
	clear(batch)
	*w = wire{}
	w.Batch = batch[:0]
	wirePool.Put(w)
}

// pendingReq is a client-side request awaiting resolution.
type pendingReq struct {
	w  *wire
	ch chan Result
	// group is set for join/leave requests, resolved by local events
	// rather than a tReply.
	group string
	// Tracing state (zero when the request is untraced): the span minted
	// for this request, its parent, start time, payload size, and whether
	// the request was ever retransmitted to a new coordinator.
	trace         uint64
	parent        uint64
	span          uint64
	start         time.Time
	bytes         int
	retransmitted bool
}

// memberState is this node's view of a group it belongs to (or is joining).
type memberState struct {
	name      string
	members   []transport.NodeID
	last      uint64
	active    bool
	donor     transport.NodeID // awaited state donor while inactive
	buffer    map[uint64]*wire // out-of-order / pre-activation ordered events
	delivered map[uint64]*deliveredRing
	donations []donation // resyncs deferred until our deliveries reach a floor
}

// donation is a deferred state donation: a recovery named us donor but our
// own delivered sequence had not yet reached the rebuilt series' floor
// (donorResync, flushDonations).
type donation struct {
	to    transport.NodeID
	floor uint64
}

// CoordFn derives the coordinator of a group from the observer's live
// machine set, sorted ascending and never empty (PROTOCOL.md, "Coordinator
// placement and takeover"). It must be a pure function of its arguments —
// every node with the same live view has to compute the same owner — and
// must be safe for concurrent use (every node's event loop calls the shared
// function). internal/placement provides the sharding implementation;
// LowestLive is the default.
type CoordFn func(group string, live []transport.NodeID) transport.NodeID

// LowestLive is the constant placement function: every group is sequenced
// by the lowest-ID live node, so one machine orders everything.
func LowestLive(_ string, live []transport.NodeID) transport.NodeID { return live[0] }

// NodeOptions configures optional node behavior for NewNodeOpts.
type NodeOptions struct {
	// Obs is the observability sink; nil records into a throwaway sink.
	// Ownership edges (fresh creation, takeover with its recovery
	// duration, handoff, abdication) land in its event ring.
	Obs *obs.Obs
	// Coord derives each group's sequencer from the live set; nil means
	// LowestLive.
	Coord CoordFn
}

// NewNode attaches a node to the group layer and starts its event loop.
// The handler h receives deliveries; see Handler for the reentrancy rule.
func NewNode(ep transport.Endpoint, h Handler) *Node {
	return NewNodeOpts(ep, h, NodeOptions{})
}

// NewNodeOpts is NewNode with an observability sink (gcast counts and
// latencies, view-change and ownership events, state-transfer bytes) and a
// placement function.
func NewNodeOpts(ep transport.Endpoint, h Handler, opts NodeOptions) *Node {
	o := opts.Obs
	if o == nil {
		o = obs.Nop()
	}
	place := opts.Coord
	if place == nil {
		place = LowestLive
	}
	n := &Node{
		ep:        ep,
		h:         h,
		self:      ep.ID(),
		cmds:      make(chan func()),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		live:      make(map[transport.NodeID]bool),
		pending:   make(map[uint64]*pendingReq),
		leases:    make(map[uint64]*pendingLease),
		groups:    make(map[string]*memberState),
		coordFn:   place,
		abdicated: make(map[string]uint64),
		outbox:    make(map[transport.NodeID][]*wire),

		o:           o,
		cGcast:      o.Counter("vsync.gcast.total"),
		cGcastFail:  o.Counter("vsync.gcast.fail"),
		hGcastLat:   o.Histogram("vsync.gcast.latency.seconds"),
		cViewChange: o.Counter("vsync.view.changes"),
		cCoordMove:  o.Counter("vsync.coord.changes"),
		cStateSent:  o.Counter("vsync.state.bytes.sent"),
		cStateRecv:  o.Counter("vsync.state.bytes.recv"),
		cBatchSends: o.Counter("vsync.batch.sends"),
		cBatchMsgs:  o.Counter("vsync.batch.msgs"),
		hBatchOcc:   o.Histogram("vsync.batch.occupancy"),
		cWireReject: o.Counter("vsync.wire.rejects"),

		hStageClientQ: o.Histogram(obs.StageClientQueue),
		hStageEncode:  o.Histogram(obs.StageEncode),
		hStageDeliver: o.Histogram(obs.StageDeliver),
		hStageOrder:   o.Histogram(obs.StageOrder),
		gCoordBacklog: o.Gauge("vsync.coord.backlog"),
		gCoordGroups:  o.Gauge("vsync.coord.groups"),
		cRunSends:     o.Counter("vsync.order.runs"),
		cRunCasts:     o.Counter("vsync.order.run.casts"),
		hRunOcc:       o.Histogram("vsync.order.run.occupancy"),
		cDoneLocal:    o.Counter("vsync.cast.completed.local"),
		cDoneDirect:   o.Counter("vsync.cast.completed.direct"),
		cDoneGathered: o.Counter("vsync.cast.completed.gathered"),

		cClaimMember:   o.Counter("vsync.claims.member"),
		cClaimCoord:    o.Counter("vsync.claims.coord"),
		cClaimConflict: o.Counter("vsync.claims.conflict"),
		cMovedClasses:  o.Counter("placement.moved.classes"),

		cLeaseServed:  o.Counter("vsync.lease.served"),
		cLeaseRefused: o.Counter("vsync.lease.refused"),
		cLeaseFenced:  o.Counter("vsync.lease.fenced"),
		hStageLease:   o.Histogram(obs.StageLeaseServe),
	}
	n.owned, _ = ep.(transport.OwnedSender)
	for t := tCastReq; t <= tMaxType; t++ {
		n.hFrame[t] = o.Histogram(o.Series("vsync.frame.bytes.{type}", t.String()))
	}
	// Request IDs must not collide across incarnations of the same node ID
	// (a restarted machine's early requests would otherwise be swallowed
	// by surviving members' duplicate-suppression caches). Starting the
	// counter at a random point makes collisions vanishingly unlikely even
	// when snapshots carry caches across the restart.
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		n.reqSeq = binary.LittleEndian.Uint64(seed[:])
	}
	for _, id := range ep.Alive() {
		n.live[id] = true
	}
	n.live[n.self] = true
	n.active.Store(&map[string]bool{})
	n.liveChanged()
	go n.loop()
	return n
}

// ID returns the node's transport identity.
func (n *Node) ID() transport.NodeID { return n.self }

// Close shuts the node down. Pending calls fail with ErrClosed. The
// underlying endpoint is left to the caller (the cluster layer crashes or
// closes it).
func (n *Node) Close() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
}

// do runs f on the event loop, returning false if the node is closed.
func (n *Node) do(f func()) bool {
	select {
	case n.cmds <- f:
		return true
	case <-n.done:
		return false
	}
}

// Gcast broadcasts payload to the group and returns the gathered response.
// An empty or unknown group yields a fail Result, mirroring the paper's
// read returning fail when no server holds a match.
//
// Failure contract: Gcast blocks until the request resolves or the node
// closes (ErrClosed) — there is no timeout. If the coordinator crashes
// mid-broadcast the request is retransmitted to its successor after
// recovery (every membership edge re-sends unresolved casts); the per-origin
// dedup cache makes the retry at-most-once, so the payload is applied exactly
// once on every surviving member even when the response was lost with the old
// coordinator. Members that crash while the broadcast is in flight are dropped
// from the gather set; the call completes against the survivors. The payload
// must not be modified afterwards: a member on this machine is handed the
// caller's slice and may retain it (Handler.Deliver).
func (n *Node) Gcast(group string, payload []byte) (Result, error) {
	return n.GcastTraced(group, payload, 0, 0)
}

// GcastTraced is Gcast carrying a tracing context: trace is the operation's
// trace ID and parent the caller's span (normally the primitive's root
// span). The node mints a "gcast" span for the request, embeds the IDs in
// the wire envelope so the coordinator and members can parent their own
// spans on it, and records the span into its Obs span store when the
// request resolves. A zero trace disables all of it — Gcast(g, p) is
// exactly GcastTraced(g, p, 0, 0).
func (n *Node) GcastTraced(group string, payload []byte, trace, parent uint64) (Result, error) {
	// Coarse-clock site: client-queue wait and end-to-end gcast latency
	// are queue-crossing measurements (ms scale under load), so the cached
	// clock's ≤250µs staleness is invisible while the per-op time.Now pair
	// it replaces was a measurable slice of the saturation profile.
	start := obs.CoarseNow()
	ch := make(chan Result, 1)
	ok := n.do(func() {
		// Client-queue stage: from the caller handing the request to the
		// node until the event loop picks it up. Under saturation this is
		// the first queue to grow.
		n.hStageClientQ.Observe(obs.CoarseSince(start).Seconds())
		n.startRequest(tCastReq, group, payload, ch, trace, parent)
	})
	if !ok {
		return Result{}, ErrClosed
	}
	select {
	case r := <-ch:
		n.cGcast.Inc()
		if r.Fail {
			n.cGcastFail.Inc()
		}
		n.hGcastLat.Observe(obs.CoarseSince(start).Seconds())
		return r, nil
	case <-n.done:
		return Result{}, ErrClosed
	}
}

// Join makes this node a member of the group, blocking until the state
// transfer completes and the member is active (paper §4.2: no group
// communication is processed by the joiner until the transfer finishes).
// Joining a group this node is already an active member of is a no-op.
// Like Gcast, Join survives a coordinator crash by retransmission: the
// successor re-orders the request, duplicate orderings are suppressed,
// and the recovery's laggard-resync path re-issues the state snapshot.
func (n *Node) Join(group string) error { return n.changeMembership(tJoinReq, group) }

// Leave removes this node from the group, blocking until the ordered leave
// event is delivered. The handler's Evict is invoked to erase group state.
// Leaving a group this node is not in is a no-op. A crash-eviction racing
// the leave resolves it the same way: the member is gone either path.
func (n *Node) Leave(group string) error { return n.changeMembership(tLeaveReq, group) }

// changeMembership issues a join or leave unless it would be a no-op, and
// waits for the local event that resolves it.
func (n *Node) changeMembership(t msgType, group string) error {
	ch := make(chan Result, 1)
	if !n.do(func() {
		g, exists := n.groups[group]
		if (t == tJoinReq && exists && g.active) || (t == tLeaveReq && !exists) {
			ch <- Result{}
			return
		}
		n.startRequest(t, group, nil, ch, 0, 0)
	}) {
		return ErrClosed
	}
	select {
	case <-ch:
		return nil
	case <-n.done:
		return ErrClosed
	}
}

// query runs f on the event loop and waits for it to finish, reporting
// false — f's results are then not to be used — if the node closed first.
func (n *Node) query(f func()) bool {
	ch := make(chan struct{})
	if !n.do(func() { f(); close(ch) }) {
		return false
	}
	select {
	case <-ch:
		return true
	case <-n.done:
		return false
	}
}

// Member reports whether this node is an active member of the group. It
// reads the published view and never crosses the event loop, so it is cheap
// enough for every local read; like any membership test made outside the
// loop, an ordered leave can overtake the answer (PROTOCOL.md, "Guarantees").
func (n *Node) Member(group string) bool {
	return (*n.active.Load())[group]
}

// setActive publishes one group's active-membership bit. Loop-only. The
// ordering rule: a group is published only once the handler holds its
// complete state (after the snapshot install and the buffered-tail drain in
// activate) and withdrawn before every Handler.Evict — an off-loop reader
// that sees "member" finds the state or, at worst, the handler's own
// "evicted" answer, never a half-installed replica.
func (n *Node) setActive(group string, on bool) {
	next := maps.Clone(*n.active.Load())
	if on {
		next[group] = true
	} else {
		delete(next, group)
	}
	n.active.Store(&next)
}

// Members returns the local membership view of a group this node belongs
// to, or nil.
func (n *Node) Members(group string) []transport.NodeID {
	var res []transport.NodeID
	if !n.query(func() {
		if g, exists := n.groups[group]; exists {
			res = append(res, g.members...)
		}
	}) {
		return nil
	}
	return res
}

// Sequenced returns the membership this node's sequencer holds for a group
// — the authoritative list gcasts to it are gathered from — and whether this
// node sequences the group at all (false while a takeover recovery is still
// rebuilding the record).
func (n *Node) Sequenced(group string) (members []transport.NodeID, ok bool) {
	if !n.query(func() {
		if n.cs != nil && !n.cs.recovering {
			if g := n.cs.groups[group]; g != nil {
				members, ok = append(members, g.members...), true
			}
		}
	}) {
		return nil, false
	}
	return members, ok
}

// --- event loop ---

// maxLoopBurst bounds how many already-pending commands and transport
// items one loop iteration absorbs before flushing the outbox. It caps
// both latency (a flush is never deferred past this many steps) and the
// size of any one coalesced batch.
const maxLoopBurst = 64

func (n *Node) loop() {
	defer close(n.done)
	defer n.failAllPending()
	defer n.active.Store(&map[string]bool{}) // a closed node is a member of nothing
	for {
		// Settle before blocking: frames staged by the burst (or by
		// initialization, before the loop starts) must not wait for an event.
		n.settle()
		if n.resolved {
			// The callers just answered are queued behind this goroutine, which
			// under load never parks: yield, and their next requests join the burst.
			n.resolved = false
			runtime.Gosched()
		}
		select {
		case <-n.stop:
			return
		case f := <-n.cmds:
			f()
		case it, ok := <-n.ep.Recv():
			if !ok {
				return // transport crashed under us
			}
			n.handleItem(it)
		}
		// Opportunistic burst: absorb whatever is already pending so the
		// resulting frames coalesce per destination into one tBatch.
	burst:
		for i := 0; i < maxLoopBurst; i++ {
			select {
			case f := <-n.cmds:
				f()
			case it, ok := <-n.ep.Recv():
				if !ok {
					n.settle()
					return
				}
				n.handleItem(it)
			default:
				break burst
			}
		}
	}
}

// settle finishes a burst: self-addressed wires are dispatched in send order
// (the receiver sees the sender's wire, not a decoded copy, and a pooled one is
// recycled on return — what is kept is copied, see held), staged casts share
// one seq-range allocation, and the two alternate until neither feeds the
// other. Only then do the burst's frames leave, so a sequencer that is a member
// has applied an event before any other member can receive it (PROTOCOL.md,
// "Completing a gcast").
func (n *Node) settle() {
	for {
		for i := 0; i < len(n.selfq); i++ {
			w := n.selfq[i]
			n.selfq[i] = nil
			n.dispatch(n.self, w)
			releaseWire(w)
		}
		n.selfq = n.selfq[:0]
		n.flushCoord()
		if len(n.selfq) == 0 {
			break
		}
	}
	n.flushOutbox()
}

// flushOutbox encodes and transmits every staged per-destination frame
// group — one bare frame or a coalesced tBatch — and releases the pooled
// wires. A goroutine per destination in between measured as no gain on two
// CPUs and cost every leg a hand-off (DESIGN.md, "Hand-off-free hot paths").
func (n *Node) flushOutbox() {
	for _, to := range n.outboxOrder {
		ws := n.outbox[to]
		// A send fails only on a closed endpoint; the loop exits soon then.
		if len(ws) == 1 {
			_ = n.sendNow(to, ws[0])
		} else {
			n.cBatchSends.Inc()
			n.cBatchMsgs.Add(int64(len(ws)))
			n.hBatchOcc.Observe(float64(len(ws)))
			// One tBatch frame, with no intermediate tBatch wire.
			encStart := time.Now()
			_ = n.transmit(to, tBatch, encodeWireBatch(ws), encStart)
		}
		for _, w := range ws {
			releaseWire(w)
		}
		clear(ws) // drop the wire references; the slice is reused
		n.outbox[to] = ws[:0]
	}
	n.outboxOrder = n.outboxOrder[:0]
}

func (n *Node) failAllPending() {
	for _, p := range n.pending {
		if p.trace != 0 {
			p.retransmitted = false // the note below explains the outcome instead
			n.o.Spans().Record(obs.Span{
				Trace: p.trace, ID: p.span, Parent: p.parent,
				Machine: nid(n.self), Name: "gcast", Group: p.group,
				Start: p.start, Bytes: p.bytes, Fail: true, Note: "node closed",
			})
		}
		p.ch <- Result{Fail: true}
	}
	n.pending = nil
}

// recordReqSpan records a traced request's client-side span at resolution.
// local: the reply came from this machine, so no reply hop was sent — which
// the §3.3 audit prices (obs.Assemble).
func (n *Node) recordReqSpan(p *pendingReq, resp []byte, fail bool, size int, local bool) {
	if p.trace == 0 {
		return
	}
	note := ""
	if p.retransmitted {
		note = "retransmit"
	} else if local {
		note = "local-reply"
	}
	n.o.Spans().Record(obs.Span{
		Trace: p.trace, ID: p.span, Parent: p.parent,
		Machine: nid(n.self), Name: "gcast", Group: p.group,
		Start: p.start, Bytes: p.bytes, RespBytes: len(resp),
		GroupSize: size, Fail: fail, Note: note,
	})
}

func (n *Node) handleItem(it transport.Item) {
	switch it.Kind {
	case transport.KindUp:
		n.live[it.From] = true
		n.liveChanged()
		if n.cs != nil && it.From != n.self {
			// Interrogate the newcomer: it may carry group memberships
			// from a time we could not see it — a bootstrap where every
			// node briefly coordinated alone, or a spurious eviction by a
			// flapping failure detector. Its report is merged in
			// coordSyncInfo: unknown groups are adopted, divergent
			// memberships are told to wipe and rejoin.
			n.send(it.From, &wire{Type: tSync})
		}
	case transport.KindDown:
		delete(n.live, it.From)
		if n.cs != nil {
			n.coordNodeDown(it.From)
		}
		n.memberNodeDown(it.From)
		// Note: the origin's duplicate-suppression entries are kept. A
		// Down may be a failure-detector flap — the node can still be
		// alive and may retransmit in-flight requests when it observes a
		// coordinator change, and clearing here would turn those
		// retransmissions into double deliveries. Cross-incarnation ID
		// collisions are prevented by the randomized request-ID start
		// instead, and the per-origin cache is bounded.
		n.liveChanged()
	case transport.KindMsg:
		w, err := n.dec.decode(it.Payload)
		if err != nil {
			// Reject at the transport boundary: a version mismatch (a peer
			// on the old codec or a future format) and a corrupt frame are
			// both dropped, as a real NIC would drop a bad checksum — but
			// counted and logged so a mixed-version cluster is visible.
			n.cWireReject.Inc()
			n.o.Emit("wire-reject", obs.KV("from", it.From), obs.KV("err", err.Error()))
			return
		}
		n.dispatch(it.From, w)
	}
}

func (n *Node) dispatch(from transport.NodeID, w *wire) {
	switch w.Type {
	case tCastReq, tJoinReq, tLeaveReq:
		n.coordRequest(from, w)
	case tOrdered:
		n.memberOrdered(from, w)
	case tOrderedRun:
		n.memberOrderedRun(from, w)
	case tAck:
		n.coordAck(from, w)
	case tReply:
		n.clientReply(from, w)
	case tState:
		n.memberState_(from, w)
	case tSync:
		n.replySync(from)
	case tSyncInfo:
		n.coordSyncInfo(from, w)
	case tResync:
		n.donorResync(w)
	case tRestate:
		n.memberRestate(from, w)
	case tClaim:
		n.coordClaim(from, w)
	case tLeaseRead:
		n.serveLeaseRead(from, w)
	case tLeaseReply:
		n.leaseReply(w)
	case tApp:
		n.h.AppMessage(from, w.Payload)
	case tBatch:
		// Unpack in send order: per-sender FIFO within the batch matches
		// what separate frames would have delivered.
		for i := range w.Batch {
			n.dispatch(from, &w.Batch[i])
		}
	}
}

// SendApp transmits an application payload directly to a peer, outside any
// group. Unlike the other methods it is safe to call from Handler callbacks
// (it does not go through the event loop; the encoder and the pooled send
// path are safe for concurrent use).
func (n *Node) SendApp(to transport.NodeID, payload []byte) error {
	return n.sendNow(to, &wire{Type: tApp, Payload: payload})
}

// send stages a wire message for the destination; the loop flushes the
// outbox after each burst, coalescing same-destination messages into one
// frame; one to this node itself is queued for settle to dispatch. Only
// loop-owned code (and pre-loop initialization) may call it.
func (n *Node) send(to transport.NodeID, w *wire) {
	if to == n.self {
		n.selfq = append(n.selfq, w)
		return
	}
	ws := n.outbox[to]
	if len(ws) == 0 {
		n.outboxOrder = append(n.outboxOrder, to)
	}
	n.outbox[to] = append(ws, w)
}

// sendNow encodes w into a pooled buffer and hands it to the transport.
func (n *Node) sendNow(to transport.NodeID, w *wire) error {
	encStart := time.Now()
	return n.transmit(to, w.Type, encodeWire(w), encStart)
}

// transmit hands one encoded frame to the transport, transferring buffer
// ownership when the endpoint supports it. The frame's encoded size is
// recorded per message type — the actual |m| that the §3.3 msg-cost model
// prices.
func (n *Node) transmit(to transport.NodeID, t msgType, buf []byte, encStart time.Time) error {
	n.hStageEncode.Observe(time.Since(encStart).Seconds())
	if h := n.hFrame[t]; h != nil {
		h.Observe(float64(len(buf)))
	}
	if n.owned != nil {
		return n.owned.SendOwned(to, buf)
	}
	return n.ep.Send(to, buf)
}

// liveChanged reacts to any membership edge (including the constructor's
// initial view): the per-group coordinator cache is rebuilt for the new
// epoch and placement moves are carried out (refreshPlacement, placed.go).
func (n *Node) liveChanged() {
	// Publish the new view and fence pending leased reads first: the epoch
	// must be current before any lease traffic staged by this edge's
	// processing can observe it.
	n.publishView()
	n.liveEpoch++
	prev := n.coordCache
	n.coordCache = make(map[string]transport.NodeID, len(prev)+1)
	n.liveSorted = n.view.Load().ids // shared with off-loop readers; never mutated
	n.refreshPlacement(prev)
}

// coordOf resolves the coordinator of one group under this node's current
// view: the placement function's answer, memoized per membership epoch.
func (n *Node) coordOf(group string) transport.NodeID {
	if c, ok := n.coordCache[group]; ok {
		return c
	}
	c := n.coordFn(group, n.liveSorted)
	if c == 0 {
		c = n.liveSorted[0] // a group the function cannot place: never route to the zero node
	}
	n.coordCache[group] = c
	return c
}

// startRequest registers a pending client request and sends it to the
// coordinator. A non-zero trace mints the request's span and embeds the
// tracing header in the wire envelope.
func (n *Node) startRequest(t msgType, group string, payload []byte, ch chan Result, trace, parent uint64) {
	n.reqSeq++
	w := &wire{
		Type:    t,
		Group:   group,
		ReqID:   n.reqSeq,
		Origin:  nid(n.self),
		Subject: nid(n.self),
		Payload: payload,
	}
	p := &pendingReq{w: w, ch: ch, group: group}
	if trace != 0 {
		p.trace, p.parent = trace, parent
		p.span = obs.NextID()
		p.start = time.Now()
		p.bytes = len(payload)
		w.Trace, w.Span = trace, p.span
	}
	n.pending[w.ReqID] = p
	if t == tJoinReq {
		// Pre-create the member record so ordered events can be buffered
		// before activation. Joining also accepts the group's current
		// sequence series, so any abdication claim we retained for it from
		// an earlier coordinatorship is obsolete (a stale claim above the
		// live series would poison a later recovery).
		delete(n.abdicated, group)
		if _, exists := n.groups[group]; !exists {
			n.groups[group] = newMemberState(group)
		}
	}
	n.send(n.coordOf(group), w)
}

// clientReply resolves a pending request from the first reply to arrive: the
// sequencer's gathered one or the marked member's direct one.
func (n *Node) clientReply(from transport.NodeID, w *wire) {
	p, ok := n.pending[w.ReqID]
	if !ok {
		return // duplicate: a retransmission's reply, or the slower of the two repliers
	}
	delete(n.pending, w.ReqID)
	n.recordReqSpan(p, w.Payload, w.Fail, w.Size, from == n.self)
	if p.w.Type == tLeaveReq {
		// The coordinator resolved the leave without an ordered event
		// (membership record lost across a recovery); erase local state
		// here instead.
		if _, exists := n.groups[p.group]; exists {
			n.setActive(p.group, false)
			n.h.Evict(p.group)
			delete(n.groups, p.group)
		}
	}
	p.ch <- Result{Payload: w.Payload, Fail: w.Fail, GroupSize: w.Size}
	n.resolved = true
}

// resolveLocal resolves pending join/leave requests for a group, driven by
// locally observed membership events rather than coordinator replies.
func (n *Node) resolveLocal(group string, t msgType) {
	for id, p := range n.pending {
		if p.group == group && p.w.Type == t {
			delete(n.pending, id)
			p.ch <- Result{}
		}
	}
}

func newMemberState(name string) *memberState {
	return &memberState{
		name:      name,
		buffer:    make(map[uint64]*wire),
		delivered: make(map[uint64]*deliveredRing),
	}
}

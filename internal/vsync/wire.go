// Package vsync implements the virtually synchronous process-group layer
// the PASO system is built on (paper §3.2), modeled on ISIS: named groups,
// g-join and g-leave with state transfer, and a reliable, totally ordered
// gcast whose members' responses are gathered into a single reply.
//
// Guarantees provided (the ones §3.2 requires):
//
//   - gcast messages to a group are delivered to all its members in a single
//     total order, FIFO per sender;
//   - g-join and g-leave events are ordered within the same total order, so
//     all members see messages and membership changes in the same sequence;
//   - a joiner receives a state snapshot from a current member reflecting
//     exactly the deliveries ordered before its join, and buffers later
//     messages until the snapshot is installed;
//   - a crashed member is evicted from all its groups by an ordered event.
//
// Each group has one coordinator that sequences it, derived per group from
// the observer's live set by a placement function (NodeOptions.Coord; see
// PROTOCOL.md "Coordinator placement and takeover"). The default,
// LowestLive, maps every group to the lowest-ID live node — one system-wide
// sequencer; internal/placement spreads independent groups over different
// machines so they sequence concurrently. Ordering state lost when a
// coordinator crashes or a group migrates is rebuilt by querying survivors;
// members that missed deliveries
// during the failover window are resynchronized by state transfer. Duplicate
// suppression uses per-origin request IDs, so client retransmission after a
// coordinator change is safe.
//
// Divergent histories are reconciled by the coordinator interrogating every
// newly discovered node (tSync on Up, re-sent until a report counts): group
// claims for classes with no current members are adopted; claims from a
// divergent sequence series — a bootstrap where nodes briefly coordinated
// alone before their failure detectors converged, or a member evicted by a
// detector flap it never saw — are answered with tRestate, making the
// claimant wipe that group and rejoin with a fresh state transfer. Split-brain sides that lose the merge
// discard their divergent writes; at bootstrap the groups are empty, and
// post-flap the surviving series is the one the coordinator kept ordering.
package vsync

import (
	"paso/internal/transport"
)

// msgType discriminates protocol messages.
type msgType uint8

const (
	tCastReq    msgType = iota + 1 // client → coordinator: order this payload
	tJoinReq                       // client → coordinator: add me to group
	tLeaveReq                      // client → coordinator: remove me
	tOrdered                       // coordinator → members: sequenced event
	tAck                           // member → coordinator: processed + response
	tReply                         // coordinator → client: gathered response
	tState                         // donor → joiner/laggard: state snapshot
	tSync                          // coordinator → node: report your groups (retried until the report counts)
	tSyncInfo                      // node → coordinator: my group facts and live set (reply or nudge)
	tResync                        // coordinator → donor: push state to laggard
	tApp                           // application point-to-point message
	tRestate                       // coordinator → member: your series diverged; wipe and rejoin
	tBatch                         // container: several messages coalesced into one frame
	tOrderedRun                    // coordinator → members: contiguous run of sequenced data events
	_                              // 15: unassigned; the decoder rejects it
	tLeaseRead                     // client → group member: epoch-fenced direct read (bypasses the sequencer)
	tLeaseReply                    // group member → client: leased-read answer or fence
)

// tMaxType is the highest assigned message type; per-type tables (frame
// histograms, validity checks) are sized by it. Keep it on the last constant.
const tMaxType = tLeaseReply

// typeNames names the assigned message types, for metric names and
// diagnostics.
var typeNames = [...]string{
	tCastReq: "castreq", tJoinReq: "joinreq", tLeaveReq: "leavereq", tOrdered: "ordered",
	tAck: "ack", tReply: "reply", tState: "state", tSync: "sync", tSyncInfo: "syncinfo",
	tResync: "resync", tApp: "app", tRestate: "restate", tBatch: "batch",
	tOrderedRun: "orderedrun", tLeaseRead: "leaseread", tLeaseReply: "leasereply",
}

// String names the message type, or "invalid".
func (t msgType) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return "invalid"
}

// assigned reports whether t is a message type of this wire version.
func (t msgType) assigned() bool { return t.String() != "invalid" }

// eventKind discriminates sequenced events inside tOrdered.
type eventKind uint8

const (
	evData  eventKind = iota + 1 // application gcast payload
	evJoin                       // Subject joins, Donor supplies state
	evLeave                      // Subject leaves voluntarily
	evDown                       // Subject evicted after a crash
)

// wire is the single on-the-wire message envelope. One struct for all
// message types keeps the protocol code simple; unused fields are zero and
// cost one byte each under the varint codec (codec.go).
type wire struct {
	Type    msgType
	Group   string
	ReqID   uint64
	Origin  uint64 // requesting node for casts; reply destination
	Seq     uint64
	Event   eventKind
	Subject uint64 // joining/leaving/evicted node
	Donor   uint64 // state donor for joins/resyncs
	Payload []byte
	Fail    bool
	// Size is |group| at ordering time, piggybacked on replies. Non-zero on a
	// tOrderedRun and its events it is the completion mark (the receiver's apply
	// is the last outstanding), carried in the run's two spare flag bits.
	Size int
	// UpTo is the sequence a state transfer reflects; the lease
	// messages (tLeaseRead/tLeaseReply) reuse it to carry the sender's view
	// epoch instead (lease.go), so the fence travels in the existing
	// envelope with zero codec changes.
	UpTo uint64
	// Trace and Span are the tracing header (PROTOCOL.md "Trace header"):
	// Trace is the operation's trace ID, Span the sender-side span the
	// receiver should parent its own span on (the client's gcast span in
	// tCastReq, the coordinator's order span in tOrdered). Both are zero —
	// each costing a single varint byte on the wire — when the originating
	// primitive was not traced.
	Trace uint64
	Span  uint64
	// Infos is a tSyncInfo report's body: every group the sender is an
	// active member of, with the last sequence number it delivered there. The
	// report's Payload carries the sender's sorted live set, encoded like an
	// evJoin member list.
	Infos map[string]uint64
	// Batch carries the coalesced messages of a tBatch frame, in send
	// order. The receiver dispatches them in sequence, so per-destination
	// FIFO — and with it the total order of tOrdered events — is exactly
	// what an unbatched send would have produced; only the per-frame α
	// cost is amortized (§3.3).
	//
	// For tOrderedRun, Batch holds the run's data events: sub-event i is a
	// tOrdered/evData envelope with sequence Seq+i. On the wire the run
	// encodes the shared group and first sequence number once, then only
	// each event's reqID/origin/trace/span/payload (codec.go) — the
	// seq-range form of the §3.3 amortization, applied to the sequencer's
	// own header instead of the frame header.
	Batch []wire

	// refs is sender-side state, never encoded: the number of destinations
	// a pooled wire (coordinator runs and replies, member acks) is staged
	// to. The loop decrements it after each destination's encode and
	// recycles the wire at zero (releaseWire, node.go). Zero means the wire
	// is not pooled and is left to the garbage collector.
	refs int32
}

// snapshotEnvelope is what a donor actually ships: the application state
// plus the vsync-level duplicate-suppression cache. Transferring the cache
// keeps a resynchronized replica's dedup decisions identical to its
// donor's, so a later re-ordered duplicate is skipped by both.
type snapshotEnvelope struct {
	App       []byte
	Delivered map[uint64][]deliveredEntry // origin → recent entries
}

// deliveredEntry caches the response produced for a delivered request so a
// duplicate ordering can be acknowledged without re-executing it.
type deliveredEntry struct {
	ReqID uint64
	Resp  []byte
	Fail  bool
}

// nid converts a transport node ID for wire embedding.
func nid(id transport.NodeID) uint64 { return uint64(id) }

// tid converts back.
func tid(v uint64) transport.NodeID { return transport.NodeID(v) }

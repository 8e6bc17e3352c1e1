package obs

import "time"

// Event is one entry in the event ring: a protocol-level happening worth
// auditing live — a view change with its old and new membership, an
// adaptive policy join/leave with the counter value that triggered it, a
// peer going up or down, a group changing sequencer.
type Event struct {
	// Seq numbers events monotonically from process start; gaps after the
	// ring wraps tell a reader how much history was lost.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`
	// Attrs hold the event's key/value details, base (per-machine)
	// attributes first.
	Attrs []Attr `json:"attrs,omitempty"`
}

// KindOwnership is the event kind of an ownership edge: a node starting or
// stopping to sequence a group. vsync emits one per edge with the attributes
// group, epoch (the live epoch of the edge), owner, kind (one of the Own*
// values below) and takeover_s (the recovery duration, takeover edges only);
// internal/obs/flight folds them back into the per-group ownership timeline.
const KindOwnership = "ownership"

// Ownership edge kinds, the kind attribute of a KindOwnership event.
const (
	// OwnFresh: the group was created (or first placed) on this owner —
	// no previous coordinator existed.
	OwnFresh = "fresh"
	// OwnTakeover: the owner finished a takeover recovery after the
	// previous coordinator left the live set; takeover_s records how long
	// the group had no working sequencer.
	OwnTakeover = "takeover"
	// OwnHandoff: the owner adopted the group from its last holder without
	// a recovery quorum.
	OwnHandoff = "handoff"
	// OwnAbdicate: the emitting machine gave the group up because the
	// placement function moved it elsewhere; owner is the new coordinator
	// the abdication aimed at.
	OwnAbdicate = "abdicate"
)

package flight

import (
	"sync"
	"time"

	"paso/internal/transport"
)

// OwnershipKind classifies one entry of the placement audit trail.
const (
	// OwnFresh: the group was created (or first placed) on this owner —
	// no previous coordinator existed.
	OwnFresh = "fresh"
	// OwnTakeover: the owner finished a takeover recovery after the
	// previous coordinator left the live set; TakeoverSeconds records how
	// long the group had no working sequencer.
	OwnTakeover = "takeover"
	// OwnHandoff: an orderly tClaim handoff from a live abdicating
	// coordinator (no recovery needed).
	OwnHandoff = "handoff"
	// OwnAbdicate: the recording machine gave the group up because the
	// placement function moved it elsewhere. Owner is the new coordinator
	// the abdication aimed at.
	OwnAbdicate = "abdicate"
)

// OwnershipEvent is one edge of a group's ownership timeline, as observed
// by one machine. Seq orders events on the recording machine; Epoch is the
// vsync live-epoch under which the edge happened, which is what aligns
// timelines across machines.
type OwnershipEvent struct {
	Seq   uint64           `json:"seq"`
	Time  time.Time        `json:"time"`
	Group string           `json:"group"`
	Epoch uint64           `json:"epoch"`
	Owner transport.NodeID `json:"owner"`
	Kind  string           `json:"kind"`
	// TakeoverSeconds is how long the takeover recovery ran (zero for
	// other kinds).
	TakeoverSeconds float64 `json:"takeover_seconds,omitempty"`
}

// AuditTrail is a bounded ring of ownership events — the placement and
// rebalance history of the groups this machine participates in. vsync's
// sequencers record into it through the vsync.PlacementAudit interface;
// bundles and the /placement endpoint read it. It is an observer: nothing
// recorded here feeds back into placement decisions.
type AuditTrail struct {
	now func() time.Time

	mu   sync.Mutex
	buf  []OwnershipEvent
	next uint64
}

// NewAuditTrail builds a trail retaining the last capacity events
// (default 1024 when capacity <= 0).
func NewAuditTrail(capacity int) *AuditTrail {
	if capacity <= 0 {
		capacity = 1024
	}
	return &AuditTrail{now: time.Now, buf: make([]OwnershipEvent, 0, capacity)}
}

// SetNow overrides the trail's clock (tests; deterministic bundles).
func (a *AuditTrail) SetNow(now func() time.Time) { a.now = now }

// RecordOwnership appends one ownership edge. It implements
// vsync.PlacementAudit and is safe from any goroutine.
func (a *AuditTrail) RecordOwnership(group string, epoch uint64, owner transport.NodeID, kind string, takeover time.Duration) {
	a.mu.Lock()
	e := OwnershipEvent{
		Seq:             a.next,
		Time:            a.now(),
		Group:           group,
		Epoch:           epoch,
		Owner:           owner,
		Kind:            kind,
		TakeoverSeconds: takeover.Seconds(),
	}
	if len(a.buf) < cap(a.buf) {
		a.buf = append(a.buf, e)
	} else {
		a.buf[a.next%uint64(cap(a.buf))] = e
	}
	a.next++
	a.mu.Unlock()
}

// Events returns the retained timeline oldest-first.
func (a *AuditTrail) Events() []OwnershipEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := uint64(len(a.buf))
	if n == 0 {
		return nil
	}
	out := make([]OwnershipEvent, 0, n)
	start := a.next - n
	for i := uint64(0); i < n; i++ {
		out = append(out, a.buf[(start+i)%uint64(cap(a.buf))])
	}
	return out
}

// Total returns how many events were ever recorded (including ones the
// ring has since overwritten).
func (a *AuditTrail) Total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// Owners returns the newest recorded owner per group — the trail's view
// of "who sequences what right now" (groups the trail never saw are
// absent).
func (a *AuditTrail) Owners() map[string]OwnershipEvent {
	out := make(map[string]OwnershipEvent)
	for _, e := range a.Events() {
		if e.Kind != OwnAbdicate {
			out[e.Group] = e
		}
	}
	return out
}

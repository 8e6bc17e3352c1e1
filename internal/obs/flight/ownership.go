package flight

import (
	"strconv"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// OwnershipEvent is one edge of a group's ownership timeline, as observed
// by one machine. Seq is the edge's place in the machine's event timeline;
// Epoch is the vsync live-epoch under which the edge happened, which is
// what aligns timelines across machines. Kind is one of obs.OwnFresh,
// OwnTakeover, OwnHandoff, OwnAbdicate.
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

// Ownership folds the obs.KindOwnership events out of an event timeline
// into ownership edges, oldest-first. It is pure: /placement, the bundle
// manifest and the fingerprint all read the same fold.
func Ownership(events []obs.Event) []OwnershipEvent {
	var out []OwnershipEvent
	for _, e := range events {
		if e.Kind != obs.KindOwnership {
			continue
		}
		oe := OwnershipEvent{Seq: e.Seq, Time: e.Time}
		for _, a := range e.Attrs {
			switch a.Key {
			case "group":
				oe.Group = a.Value
			case "epoch":
				oe.Epoch, _ = strconv.ParseUint(a.Value, 10, 64)
			case "owner":
				owner, _ := strconv.ParseUint(a.Value, 10, 64)
				oe.Owner = transport.NodeID(owner)
			case "kind":
				oe.Kind = a.Value
			case "takeover_s":
				oe.TakeoverSeconds, _ = strconv.ParseFloat(a.Value, 64)
			}
		}
		out = append(out, oe)
	}
	return out
}

// owners returns the newest edge per group that names its owner — the
// timeline's view of "who sequences what right now". Abdications point away
// from the recording machine and are skipped.
func owners(edges []OwnershipEvent) map[string]OwnershipEvent {
	out := make(map[string]OwnershipEvent)
	for _, e := range edges {
		if e.Kind != obs.OwnAbdicate {
			out[e.Group] = e
		}
	}
	return out
}

package flight

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"paso/internal/obs"
	"paso/internal/transport"
)

// emitOwnership emits one edge the way vsync does.
func emitOwnership(o *obs.Obs, group string, epoch uint64, owner transport.NodeID, kind string, takeover time.Duration) {
	o.Emit(obs.KindOwnership, obs.KV("group", group), obs.KV("epoch", epoch), obs.KV("owner", owner),
		obs.KV("kind", kind), obs.KV("takeover_s", takeover.Seconds()))
}

// TestAuditTrailRingWraps: the ownership audit trail is bounded by the event
// ring; once it wraps, the fold sees the newest edges, oldest-first.
func TestAuditTrailRingWraps(t *testing.T) {
	o := obs.New(obs.Options{TraceCap: 4})
	for i := 0; i < 10; i++ {
		emitOwnership(o, "wg/x/0", uint64(i), transport.NodeID(i%3+1), obs.OwnFresh, 0)
	}
	if o.Events().Total() != 10 {
		t.Fatalf("Total() = %d, want 10", o.Events().Total())
	}
	evs := Ownership(o.Events().Snapshot())
	if len(evs) != 4 {
		t.Fatalf("retained %d edges, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq || e.Epoch != wantSeq {
			t.Fatalf("edge %d = seq %d epoch %d, want %d (oldest-first order)", i, e.Seq, e.Epoch, wantSeq)
		}
	}
}

// TestAuditTrailOwners: the newest non-abdicate edge per group is its owner.
func TestAuditTrailOwners(t *testing.T) {
	o := obs.New(obs.Options{})
	emitOwnership(o, "wg/a/0", 1, 1, obs.OwnFresh, 0)
	emitOwnership(o, "wg/a/0", 2, 3, obs.OwnTakeover, 700*time.Millisecond)
	emitOwnership(o, "wg/b/0", 1, 2, obs.OwnFresh, 0)
	emitOwnership(o, "wg/b/0", 3, 4, obs.OwnAbdicate, 0)

	got := owners(Ownership(o.Events().Snapshot()))
	ea, ok := got["wg/a/0"]
	if !ok || ea.Owner != 3 || ea.Kind != obs.OwnTakeover {
		t.Fatalf("wg/a/0 owner = %+v, want takeover by 3", ea)
	}
	if ea.TakeoverSeconds != 0.7 {
		t.Fatalf("takeover seconds = %v, want 0.7", ea.TakeoverSeconds)
	}
	// The abdicate edge points away from this machine; the newest
	// non-abdicate record (the fresh claim) remains the trail's view.
	eb, ok := got["wg/b/0"]
	if !ok || eb.Owner != 2 || eb.Kind != obs.OwnFresh {
		t.Fatalf("wg/b/0 owner = %+v, want fresh by 2", eb)
	}
}

// TestAuditTrailDeterministicClock: an edge's time is its event's time, so
// events stamped by a fixed clock fold into edges with exactly that time.
func TestAuditTrailDeterministicClock(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	evs := Ownership([]obs.Event{{Seq: 7, Time: base, Kind: obs.KindOwnership, Attrs: []obs.Attr{
		obs.KV("group", "wg/a/0"), obs.KV("epoch", 1), obs.KV("owner", 1), obs.KV("kind", obs.OwnFresh),
	}}})
	if len(evs) != 1 {
		t.Fatalf("folded %d edges, want 1", len(evs))
	}
	if got := evs[0].Time; !got.Equal(base) {
		t.Fatalf("edge time = %v, want the event's %v", got, base)
	}
}

// TestOwnershipFold: the fold reads the edges back out of a mixed event
// timeline with their ring order and clock, and the newest non-abdicate
// edge per group is the owner /placement reports.
func TestOwnershipFold(t *testing.T) {
	o := obs.New(obs.Options{}).With(obs.KV("machine", 2))
	emitOwnership(o, "wg/a/0", 1, 1, obs.OwnFresh, 0)
	o.Emit("view-change", obs.KV("group", "wg/a/0"))
	emitOwnership(o, "wg/a/0", 2, 3, obs.OwnTakeover, 700*time.Millisecond)
	emitOwnership(o, "wg/b/0", 1, 2, obs.OwnFresh, 0)
	emitOwnership(o, "wg/b/0", 3, 4, obs.OwnAbdicate, 0)

	events := o.Events().Snapshot()
	edges := Ownership(events)
	if len(edges) != 4 {
		t.Fatalf("folded %d edges, want 4 (the view change is not one): %+v", len(edges), edges)
	}
	if e := edges[1]; e.Seq != 2 || e.Group != "wg/a/0" || e.Epoch != 2 || e.Owner != 3 ||
		e.Kind != obs.OwnTakeover || e.TakeoverSeconds != 0.7 || !e.Time.Equal(events[2].Time) {
		t.Fatalf("takeover edge = %+v, want the event's seq and time", e)
	}

	rec := httptest.NewRecorder()
	PlacementHandler(o, nil).ServeHTTP(rec, httptest.NewRequest("GET", "/placement", nil))
	var got struct {
		Total     uint64                    `json:"total"`
		Owners    map[string]OwnershipEvent `json:"owners"`
		Ownership []OwnershipEvent          `json:"ownership"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad /placement JSON: %v", err)
	}
	if got.Total != 5 || len(got.Ownership) != 4 {
		t.Fatalf("total = %d, ownership = %d; want 5 events, 4 edges", got.Total, len(got.Ownership))
	}
	if ea := got.Owners["wg/a/0"]; ea.Owner != 3 || ea.Kind != obs.OwnTakeover {
		t.Fatalf("wg/a/0 owner = %+v, want takeover by 3", ea)
	}
	// The abdicate edge points away from this machine; the newest
	// non-abdicate record (the fresh claim) remains the owner.
	if eb := got.Owners["wg/b/0"]; eb.Owner != 2 || eb.Kind != obs.OwnFresh {
		t.Fatalf("wg/b/0 owner = %+v, want fresh by 2", eb)
	}
}

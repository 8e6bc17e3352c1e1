package vsync

import (
	"slices"
	"testing"

	"paso/internal/transport"
)

// countHandler counts deliveries and answers with a fixed response.
type countHandler struct {
	testHandler
	delivered int
}

var okResp = []byte("ok")

func (h *countHandler) Deliver(string, transport.NodeID, []byte) ([]byte, bool) {
	h.delivered++
	return okResp, false
}

// fullDeliveredCache returns a member whose window for origin 7 holds request
// ids 1..maxDeliveredCache.
func fullDeliveredCache() (*Node, *countHandler, *memberState, *wire) {
	h := &countHandler{}
	n := &Node{h: h}
	g := newMemberState("g")
	w := &wire{Type: tOrdered, Event: evData, Group: "g", Origin: 7, Payload: []byte("x")}
	for id := uint64(1); id <= maxDeliveredCache; id++ {
		w.ReqID = id
		n.deliverOnce(g, w)
	}
	return n, h, g, w
}

// TestDeliveredEvictsOldestFirst: the window keeps exactly the last
// maxDeliveredCache deliveries, drops the oldest for each new one, replays
// the cached response for everything still inside, and reads out in arrival
// order.
func TestDeliveredEvictsOldestFirst(t *testing.T) {
	n, h, g, w := fullDeliveredCache()
	const extra = 10
	for id := uint64(maxDeliveredCache + 1); id <= maxDeliveredCache+extra; id++ {
		w.ReqID = id
		if _, _, dup := n.deliverOnce(g, w); dup {
			t.Fatalf("fresh request %d reported as duplicate", id)
		}
	}
	r := g.delivered[7]
	entries := slices.Concat(r.buf[r.head:], r.buf[:r.head]) // as a snapshot carries them
	if len(entries) != maxDeliveredCache {
		t.Fatalf("window holds %d entries, want %d", len(entries), maxDeliveredCache)
	}
	for i, e := range entries {
		if want := uint64(extra + 1 + i); e.ReqID != want {
			t.Fatalf("entry %d is request %d, want %d (oldest first)", i, e.ReqID, want)
		}
	}
	before := h.delivered
	for id := uint64(extra + 1); id <= maxDeliveredCache+extra; id++ {
		w.ReqID = id
		if resp, _, dup := n.deliverOnce(g, w); !dup || string(resp) != "ok" {
			t.Fatalf("request %d inside the window: dup=%v resp=%q", id, dup, resp)
		}
	}
	if h.delivered != before {
		t.Fatalf("handler ran %d times for duplicates", h.delivered-before)
	}
	// The evicted ones are forgotten, oldest first: 1..extra deliver again.
	w.ReqID = extra
	if _, _, dup := n.deliverOnce(g, w); dup {
		t.Fatalf("request %d should have been evicted", extra)
	}
}

// BenchmarkDeliverOnce measures the duplicate-suppression step of every
// delivery against a full window: a fresh request (the hot path: one failed
// lookup, the handler, one eviction) and a retransmitted one (one lookup).
func BenchmarkDeliverOnce(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		n, _, g, w := fullDeliveredCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.ReqID = uint64(maxDeliveredCache + 1 + i)
			n.deliverOnce(g, w)
		}
	})
	b.Run("hit", func(b *testing.B) {
		n, _, g, w := fullDeliveredCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.ReqID = uint64(1 + i%maxDeliveredCache)
			n.deliverOnce(g, w)
		}
	})
}

package vsync

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"paso/internal/transport"
)

// burst launches issuers goroutines on each listed node, each gcasting
// perIssuer payloads to group "g", and records every acknowledged payload.
// Errors and fails are tolerated — the callers crash the sequencer mid-burst
// — but a success means every member acked before the reply.
func burst(h *harness, ids []transport.NodeID, issuers, perIssuer int, succeeded *sync.Map) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, id := range ids {
		for w := 0; w < issuers; w++ {
			wg.Add(1)
			go func(id transport.NodeID, nd *Node, w int) {
				defer wg.Done()
				for m := 0; m < perIssuer; m++ {
					payload := fmt.Sprintf("n%d-w%d-m%d", id, w, m)
					if res, err := nd.Gcast("g", []byte(payload)); err == nil && !res.Fail {
						succeeded.Store(payload, true)
					}
				}
			}(id, h.nds[id], w)
		}
	}
	return &wg
}

// checkSurvivors quiesces group "g" and asserts the surviving members hold
// identical, duplicate-free logs containing every acknowledged payload
// exactly once.
func checkSurvivors(t *testing.T, h *harness, succeeded *sync.Map) {
	t.Helper()
	var members []transport.NodeID
	for id, nd := range h.nds {
		if nd.Member("g") {
			members = append(members, id)
		}
	}
	if _, err := h.nds[members[0]].Gcast("g", []byte("final")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "logs converge", func() bool {
		for _, id := range members[1:] {
			if len(h.hs[id].log("g")) != len(h.hs[members[0]].log("g")) {
				return false
			}
		}
		return h.hs[members[0]].log("g")[len(h.hs[members[0]].log("g"))-1] == "final"
	})
	ref := h.hs[members[0]].log("g")
	for _, id := range members[1:] {
		got := h.hs[id].log("g")
		if len(got) != len(ref) {
			t.Fatalf("log length mismatch: node %d has %d, node %d has %d", id, len(got), members[0], len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("order divergence at %d: node %d %q vs node %d %q", i, id, got[i], members[0], ref[i])
			}
		}
	}
	seen := make(map[string]int, len(ref))
	for _, m := range ref {
		if seen[m]++; seen[m] > 1 {
			t.Fatalf("duplicate delivery %q", m)
		}
	}
	succeeded.Range(func(k, _ any) bool {
		if seen[k.(string)] != 1 {
			t.Errorf("successful gcast %q delivered %d times", k, seen[k.(string)])
		}
		return true
	})
}

// counterSum adds one counter over every node's Obs, crashed ones included.
func counterSum(h *harness, name string) (sum int64) {
	for _, o := range h.os {
		sum += o.Counter(name).Value()
	}
	return sum
}

// TestPipelinedGcastCoordinatorCrash drives many pipelined gcasts (several
// concurrent issuers per node, so the coordinator's loop sees bursts and
// coalesces tOrdered/tAck traffic into tBatch frames) while the
// coordinator crashes mid-burst. Every gcast that reported success must
// appear in every surviving member's log exactly once, and the logs must
// agree — the §3.2 guarantees with batched delivery on the wire.
func TestPipelinedGcastCoordinatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short mode")
	}
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		ids := []transport.NodeID{1, 2, 3, 4, 5}
		h := newHarnessOn(t, fn, ids...)
		for _, id := range ids {
			if err := h.nds[id].Join("g"); err != nil {
				t.Fatal(err)
			}
		}
		var succeeded sync.Map
		wg := burst(h, ids, 4, 20, &succeeded)
		// Crash the sequencer mid-burst. The survivors' recovery must
		// rebuild sequencing state and the retransmitted requests must
		// dedup, batched frames included.
		time.Sleep(2 * time.Millisecond)
		h.crash(fn("g", ids))
		wg.Wait()
		checkSurvivors(t, h, &succeeded)
		// The pipelined load must actually have exercised the batch path; a
		// regression that stops coalescing would pass the ordering checks
		// silently without this.
		if counterSum(h, "vsync.batch.sends") == 0 {
			t.Fatal("no tBatch frames sent under pipelined load")
		}
	})
}

// TestSeqRangeCrashPartialDelivery targets the batched-ordering recovery
// case: the coordinator allocates a contiguous sequence range (tOrderedRun)
// that reaches only part of the group — one member's link is cut — and then
// crashes. The survivors' recovery must rebuild sequencing state from the
// highest delivered sequence, resync the laggard by state transfer, and
// dedup the clients' retransmissions, so the final logs have no gap and no
// duplicate even though the range was torn mid-flight.
func TestSeqRangeCrashPartialDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short mode")
	}
	forEachPlacement(t, func(t *testing.T, fn CoordFn) {
		ids := []transport.NodeID{1, 2, 3, 4, 5}
		h := newHarnessOn(t, fn, ids...)
		for _, id := range ids {
			if err := h.nds[id].Join("g"); err != nil {
				t.Fatal(err)
			}
		}
		owner := fn("g", ids)
		survivors := without(ids, owner)
		// Tear the link from the sequencer to its successor: every run it
		// emits from here on is partially delivered (the successor never
		// sees it), and no gather can complete — the in-flight window at the
		// crash is maximal. The cut also makes the successor see the
		// sequencer die early; its recovery must wait until every other
		// survivor has seen the crash too, or it would start a second series
		// while the first is still live (FAULTS.md §2.5).
		laggard := fn("g", survivors)
		h.net.Cut(owner, laggard)

		var succeeded sync.Map
		wg := burst(h, survivors, 3, 10, &succeeded)
		// Let ranges be allocated and partially delivered, then kill the
		// sequencer. Its successor's recovery must resync the laggard from
		// the survivor with the highest delivered sequence.
		time.Sleep(3 * time.Millisecond)
		h.crash(owner)
		wg.Wait()
		checkSurvivors(t, h, &succeeded)
		// The load must have exercised the run path: without emitted runs
		// the partial-delivery scenario this test exists for never happened.
		if runs, casts := counterSum(h, "vsync.order.runs"), counterSum(h, "vsync.order.run.casts"); runs == 0 || casts == 0 {
			t.Fatalf("no tOrderedRun traffic under pipelined load (runs=%d casts=%d)", runs, casts)
		}
	})
}

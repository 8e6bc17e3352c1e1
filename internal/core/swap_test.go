package core

import (
	"sync"
	"testing"

	"paso/internal/transport"
	"paso/internal/tuple"
)

func TestSwapBasic(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	m := c.Machine(1)
	ins, err := m.Insert(taskTuple(1))
	if err != nil {
		t.Fatal(err)
	}
	old, ok, err := m.Swap(taskTplExact(1), taskTuple(2))
	if err != nil || !ok {
		t.Fatalf("swap: %v ok=%v", err, ok)
	}
	if old.ID() != ins.ID() {
		t.Fatalf("swap removed %v, want %v", old, ins)
	}
	if _, ok, _ := m.Read(taskTplExact(1)); ok {
		t.Fatal("old object still visible")
	}
	got, ok, err := m.Read(taskTplExact(2))
	if err != nil || !ok {
		t.Fatalf("replacement missing: %v ok=%v", err, ok)
	}
	if got.ID().IsZero() {
		t.Fatal("replacement has no identity")
	}
}

func TestSwapMissInsertsNothing(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	m := c.Machine(2)
	_, ok, err := m.Swap(taskTplExact(9), taskTuple(10))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("swap on empty memory succeeded")
	}
	if _, ok, _ := m.Read(taskTplExact(10)); ok {
		t.Fatal("failed swap still inserted the replacement")
	}
}

func TestSwapCrossClassRejected(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	m := c.Machine(1)
	// Template matches task/2 but the replacement is a result/2 tuple.
	repl := tuple.Make(tuple.String("result"), tuple.Int(1))
	if _, _, err := m.Swap(taskTplExact(1), repl); err == nil {
		t.Fatal("cross-class swap accepted")
	}
}

// TestSwapAtomicClaims is the bag-of-tasks claim protocol: N workers race
// to claim the same pending task by swapping it for a claimed-by-me tuple.
// Exactly one must win, and the loser set must see the claim, never the
// pending task — no interleaving can observe the swap half-done.
func TestSwapAtomicClaims(t *testing.T) {
	c := newTestCluster(t, testConfig(), 4)
	const rounds = 10
	for round := 0; round < rounds; round++ {
		if _, err := c.Machine(1).Insert(taskTuple(int64(round))); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		winners := make(chan transport.NodeID, 4)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				m := c.Machine(transport.NodeID(w%4 + 1))
				// Claim: task round → task round+1000+worker (same class).
				claimed := taskTuple(int64(round + 1000 + w))
				_, ok, err := m.Swap(taskTplExact(int64(round)), claimed)
				if err != nil {
					t.Errorf("swap: %v", err)
					return
				}
				if ok {
					winners <- m.ID()
				}
			}(w)
		}
		wg.Wait()
		close(winners)
		count := 0
		for range winners {
			count++
		}
		if count != 1 {
			t.Fatalf("round %d: %d workers claimed the task, want exactly 1", round, count)
		}
		// The pending task is gone, exactly one claim tuple exists.
		if _, ok, _ := c.Machine(2).Read(taskTplExact(int64(round))); ok {
			t.Fatalf("round %d: pending task still visible after claim", round)
		}
		claimTpl := tuple.NewTemplate(
			tuple.Eq(tuple.String("task")),
			tuple.Range(tuple.Int(int64(round+1000)), tuple.Int(int64(round+1003))),
		)
		if _, ok, _ := c.Machine(3).ReadDel(claimTpl); !ok {
			t.Fatalf("round %d: claim tuple missing", round)
		}
	}
}

func TestSwapReplicaConsistency(t *testing.T) {
	// After concurrent swaps, all replicas hold identical contents.
	c := newTestCluster(t, testConfig(), 3)
	sup := c.Support("task/2")
	for i := 0; i < 10; i++ {
		if _, err := c.Machine(1).Insert(taskTuple(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := c.Machine(transport.NodeID(w + 1))
			for i := 0; i < 5; i++ {
				_, _, _ = m.Swap(taskTpl(), taskTuple(int64(100+10*w+i)))
			}
		}(w)
	}
	wg.Wait()
	lens := make(map[transport.NodeID]int)
	for _, id := range sup {
		lens[id] = c.Machine(id).ClassLen("task/2")
	}
	first := -1
	for id, l := range lens {
		if first == -1 {
			first = l
		}
		if l != first {
			t.Fatalf("replica divergence after swaps: %v (machine %d)", lens, id)
		}
	}
	if first != 10 {
		t.Fatalf("class size %d after pure swaps, want 10 (swap preserves count)", first)
	}
}

func TestSwapFiresMarkers(t *testing.T) {
	// A blocked reader waiting for the replacement tuple must be woken by
	// a swap, same as by an insert.
	c := newTestCluster(t, blockingConfig(), 3)
	m := c.Machine(1)
	if _, err := m.Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Machine(2).ReadWait(taskTplExact(2), 10e9)
		done <- err
	}()
	// Let the marker land, then swap 1 → 2.
	waitUntil(t, "swap succeeds", func() bool {
		_, ok, err := m.Swap(taskTplExact(1), taskTuple(2))
		return ok && err == nil
	})
	if err := <-done; err != nil {
		t.Fatalf("blocked reader not woken by swap: %v", err)
	}
}

func TestSwapCostAccounting(t *testing.T) {
	c := newTestCluster(t, testConfig(), 3)
	m := c.Machine(1)
	if _, err := m.Insert(taskTuple(1)); err != nil {
		t.Fatal(err)
	}
	before := m.Stats()[OpSwap].Count
	readDelBefore := m.Stats()[OpReadDel].Count
	if _, ok, err := m.Swap(taskTplExact(1), taskTuple(2)); !ok || err != nil {
		t.Fatal(ok, err)
	}
	st := m.Stats()[OpSwap]
	if st.Count != before+1 {
		t.Fatal("swap not accounted")
	}
	if m.Stats()[OpReadDel].Count != readDelBefore {
		t.Fatal("swap leaked into the read&del row")
	}
	if st.MsgCost <= 0 {
		t.Fatal("swap msg-cost missing")
	}
}

// Protocol-level swap would go through ExecuteCommand; verify it is at
// least representable via read+take semantics there (the wire protocol
// exposes swap as its own verb below).
func TestProtocolSwap(t *testing.T) {
	c := protoCluster0(t)
	m := c.Machine(1)
	if resp := ExecuteCommand(m, "insert task i:1"); resp[:2] != "OK" {
		t.Fatal(resp)
	}
	resp := ExecuteCommand(m, "swap task i:1 -- i:2")
	if resp[:2] != "OK" {
		t.Fatalf("swap resp = %q", resp)
	}
	if resp := ExecuteCommand(m, "read task i:2"); resp[:2] != "OK" {
		t.Fatalf("replacement missing: %q", resp)
	}
	if resp := ExecuteCommand(m, "read task i:1"); resp != "FAIL" {
		t.Fatalf("old still there: %q", resp)
	}
	if resp := ExecuteCommand(m, "swap task i:9 -- i:10"); resp != "FAIL" {
		t.Fatalf("miss swap = %q", resp)
	}
	if resp := ExecuteCommand(m, "swap task i:1"); resp[:3] != "ERR" {
		t.Fatalf("missing separator accepted: %q", resp)
	}
}

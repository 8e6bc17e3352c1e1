package main

import (
	"path/filepath"
	"sync"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op.read", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "b", StartNs: 20, EndNs: 50},  // overlaps a
		{ID: 4, Parent: 1, Op: 1, Name: "c", StartNs: 90, EndNs: 120}, // sticks out of the parent
		{ID: 5, Parent: 3, Op: 1, Name: "d", StartNs: 25, EndNs: 35},  // grandchild: b's business
		{ID: 6, Op: 6, Name: "op.insert", StartNs: 200, EndNs: 260},   // no children
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - (50 - 10) - (100 - 90), // union of a and b, and c clipped to the parent
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 10,
		6: 60,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSpansRoundTripWithOneRootPerOperation(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "machine", Machine: 1, EndNs: 1000},
		{ID: 128, Op: 128, Name: "op.read", Machine: 1, StartNs: 10, EndNs: 90},
		{ID: 129, Parent: 128, Op: 128, Name: "class.searchlist", Machine: 1, StartNs: 11, EndNs: 12},
		{ID: 130, Parent: 1, Name: "tcp.send", Machine: 1, StartNs: 20, EndNs: 21},
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	got, err := loadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spans) {
		t.Fatalf("loaded %d spans, wrote %d", len(got), len(spans))
	}
	for i := range spans {
		if got[i] != spans[i] {
			t.Errorf("span %d came back as %+v, wrote %+v", i, got[i], spans[i])
		}
	}
	if err := checkRoots(got); err != nil {
		t.Errorf("a well-formed trace was rejected: %v", err)
	}
	twoRoots := append(got, span{ID: 131, Op: 128, Name: "op.read", Machine: 1})
	if err := checkRoots(twoRoots); err == nil {
		t.Error("an operation with two roots was accepted")
	}
	orphan := append(got[:3:3], span{ID: 132, Parent: 999, Name: "tcp.send"})
	if err := checkRoots(orphan); err == nil {
		t.Error("a span whose parent is missing was accepted")
	}
}

// The tracer finds a client's operation through its goroutine ID: the ID
// must be stable within a goroutine and distinct across live ones.
func TestGoid(t *testing.T) {
	mine := goid()
	if mine == 0 || mine != goid() {
		t.Fatalf("goid() = %d then %d", mine, goid())
	}
	ids := make([]uint64, 8)
	var started, release sync.WaitGroup
	release.Add(1)
	for i := range ids {
		started.Add(1)
		go func(i int) {
			ids[i] = goid()
			started.Done()
			release.Wait() // stay alive so IDs cannot be reused
		}(i)
	}
	started.Wait()
	release.Done()
	seen := map[uint64]bool{mine: true}
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Errorf("goroutine IDs %v (test goroutine %d) are not distinct", ids, mine)
			break
		}
		seen[id] = true
	}
}

// A decorated call on a client goroutine becomes a child of that client's
// kept operation; the same call elsewhere, or during an operation that is
// not kept, leaves no span.
func TestTracerAttributesChildrenByGoroutine(t *testing.T) {
	tr := newTracer()
	ctx := tr.register()
	defer tr.unregister()
	var kept uint64
	for kept == 0 { // issue operations until one is sampled
		tr.beginOp(ctx, 0)
		now := tr.t0
		tr.child(spanSearchList, 0, now, now)
		done := make(chan struct{})
		go func() { // another goroutine of the same machine: not this operation's
			tr.child(spanSearchList, 0, now, now)
			close(done)
		}()
		<-done
		kept = ctx.cur
		tr.endOp(ctx, opRead, 0, 0, 1)
	}
	spans := tr.finish()
	var roots, children int
	for _, sp := range spans {
		switch {
		case sp.Name == "op.read":
			roots++
			if sp.ID != kept || sp.Op != kept {
				t.Errorf("root span %+v, want ID and Op %d", sp, kept)
			}
		case sp.Name == "class.searchlist":
			children++
			if sp.Parent != kept {
				t.Errorf("child span %+v, want parent %d", sp, kept)
			}
		}
	}
	if roots != 1 || children != 1 {
		t.Errorf("kept %d roots and %d children, want 1 and 1", roots, children)
	}
	if err := checkRoots(spans); err != nil {
		t.Error(err)
	}
}

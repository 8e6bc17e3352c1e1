package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"paso/internal/class"
	"paso/internal/transport"
)

// TestReadDelNeverReadableAfterwards is rule A1c of internal/semantics at the
// point the write path's shortcuts could break it: once a read&del has
// returned, on whichever machine, no replica may still serve the tuple — not
// even to a zero-message local read, which asks nobody. Completing a removal
// on the caller's own delivery, before the other replica applied it, fails
// here at once.
func TestReadDelNeverReadableAfterwards(t *testing.T) {
	iters := 1500
	if testing.Short() {
		iters = 100
	}
	forEachFabricAndPlacement(t, testConfig(), func(t *testing.T, c *Cluster) {
		var removed atomic.Int64 // every key ≤ removed has been read&del'ed and the call has returned
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for _, id := range c.Support("task/2") { // local readers: the replicas themselves
			m := c.Machine(id)
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					runtime.Gosched() // a spinning reader must not starve the cluster of its two CPUs
					k := removed.Load()
					if k == 0 {
						continue
					}
					if _, ok, err := m.Read(taskTplExact(k)); err != nil || ok {
						t.Errorf("machine %d read task %d after its read&del returned: ok=%v err=%v", m.ID(), k, ok, err)
						return
					}
				}
			}()
		}
		defer func() { close(stop); readers.Wait() }() // before the cluster shuts down
		for i := 1; i <= iters && !t.Failed(); i++ {
			k := int64(i)
			if _, err := c.Machine(transport.NodeID(i%3 + 1)).Insert(taskTuple(k)); err != nil {
				t.Fatal(err)
			}
			taker := transport.NodeID((i/3)%3 + 1)
			if _, ok, err := c.Machine(taker).ReadDel(taskTplExact(k)); err != nil || !ok {
				t.Fatalf("read&del of task %d on machine %d: ok=%v err=%v", k, taker, ok, err)
			}
			for id := transport.NodeID(1); id <= 3; id++ {
				if _, ok, _ := c.Machine(id).Read(taskTplExact(k)); ok {
					t.Fatalf("task %d still readable on machine %d after machine %d's read&del returned", k, id, taker)
				}
			}
			removed.Store(k)
		}
	})
}

// completions reads one machine's vsync.cast.completed.<rule> counter.
func completions(m *Machine, rule string) int64 {
	return m.Obs().Counter("vsync.cast.completed." + rule).Value()
}

// TestCompletionPathByOrigin pins which rule completes an insert, by where
// the caller sits: with λ = 1 and storage co-located with sequencing, a
// caller on the non-sequencing member completes on that member's own apply,
// a caller outside the group is answered by that member directly, and the
// sequencer's own caller by its gather. With three members nobody is ever
// the last to apply, and every insert is gathered.
func TestCompletionPathByOrigin(t *testing.T) {
	cfg := placedConfig()
	c := newTestCluster(t, cfg, 3)
	cls := class.ID("task/2")
	sup := c.Support(cls)
	seq, member := sup[0], sup[1]
	outsider := transport.NodeID(6) - seq - member
	for i, step := range []struct {
		origin, counts transport.NodeID
		rule           string
	}{
		{member, member, "local"},
		{outsider, member, "direct"},
		{seq, seq, "gathered"},
	} {
		before := completions(c.Machine(step.counts), step.rule)
		if _, err := c.Machine(step.origin).Insert(taskTuple(int64(i))); err != nil {
			t.Fatal(err)
		}
		// The sequencer counts a gather when the last ack arrives, which for
		// its own caller is before the insert returns.
		if got := completions(c.Machine(step.counts), step.rule) - before; got != 1 {
			t.Errorf("insert from machine %d: %d %s completions on machine %d, want 1", step.origin, got, step.rule, step.counts)
		}
	}
	if n := completions(c.Machine(seq), "gathered"); n != 1 {
		t.Errorf("sequencer gathered %d inserts, want only its own caller's", n)
	}

	cfg.Lambda = 2
	c3 := newTestCluster(t, cfg, 3)
	for id := transport.NodeID(1); id <= 3; id++ {
		if _, err := c3.Machine(id).Insert(taskTuple(int64(id))); err != nil {
			t.Fatal(err)
		}
	}
	var gathered int64
	for id := transport.NodeID(1); id <= 3; id++ {
		m := c3.Machine(id)
		if l, d := completions(m, "local"), completions(m, "direct"); l != 0 || d != 0 {
			t.Errorf("three-member group: machine %d completed local=%d direct=%d, want none", id, l, d)
		}
		gathered += completions(m, "gathered")
	}
	if gathered != 3 {
		t.Errorf("three-member group: %d gathered completions, want 3", gathered)
	}
}

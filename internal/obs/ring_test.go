package obs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestRing is the one wrap test for every last-N log in obs: the event
// timeline, the span store and the flight sampler's frames all sit on Ring.
func TestRing(t *testing.T) {
	seq := func(from, to int) []int {
		var out []int
		for i := from; i < to; i++ {
			out = append(out, i)
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		capacity int
		adds     int
		want     []int // Snapshot after adding 0..adds-1
		evicted  []int // values Add returned, in order
	}{
		{"below cap", 4, 3, seq(0, 3), nil},
		{"exactly at cap", 4, 4, seq(0, 4), nil},
		{"one past cap", 4, 5, seq(1, 5), []int{0}},
		{"wrap twice", 4, 9, seq(5, 9), seq(0, 5)},
		{"min cap 1", 0, 3, []int{2}, []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.capacity)
			var evicted []int
			for i := 0; i < tc.adds; i++ {
				if old, ok := r.Add(i); ok {
					evicted = append(evicted, old)
				}
			}
			if got := r.Snapshot(); !slices.Equal(got, tc.want) {
				t.Fatalf("Snapshot = %v, want %v (oldest-first)", got, tc.want)
			}
			if !slices.Equal(evicted, tc.evicted) {
				t.Fatalf("evicted = %v, want %v", evicted, tc.evicted)
			}
			if r.Total() != uint64(tc.adds) || r.Cap() != max(tc.capacity, 1) {
				t.Fatalf("Total/Cap = %d/%d", r.Total(), r.Cap())
			}
			for _, n := range []int{-1, 0, 1, len(tc.want), len(tc.want) + 5} {
				want := tc.want
				if n >= 0 && n < len(want) {
					want = want[len(want)-n:]
				}
				if got := r.Last(n); !slices.Equal(got, want) {
					t.Fatalf("Last(%d) = %v, want %v", n, got, want)
				}
			}
		})
	}
	// Writers race snapshot readers (run under -race): no snapshot exceeds
	// the capacity and no Add is lost from the total.
	t.Run("concurrent", func(t *testing.T) {
		r := NewRing[int](32)
		const workers, iters = 8, 500
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					r.Add(i)
					if i%50 == 0 && len(r.Snapshot())+len(r.Last(4)) > r.Cap()+4 {
						t.Errorf("snapshot larger than the ring")
					}
				}
			}()
		}
		wg.Wait()
		if r.Total() != workers*iters || len(r.Snapshot()) != 32 {
			t.Fatalf("Total = %d, retained %d", r.Total(), len(r.Snapshot()))
		}
	})
}

// TestTraceBasics: Emit numbers events from zero and stamps their time.
func TestTraceBasics(t *testing.T) {
	o := New(Options{TraceCap: 8})
	o.Emit("a")
	o.Emit("b")
	evs := o.Events().Snapshot()
	if len(evs) != 2 || evs[0].Kind != "a" || evs[1].Kind != "b" {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Errorf("seqs = %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Time.IsZero() {
		t.Error("Emit should stamp Time")
	}
}

// TestTraceWraparound: once the event ring wraps it keeps the newest events,
// oldest-first, with contiguous sequence numbers ending at Total-1.
func TestTraceWraparound(t *testing.T) {
	const capacity, total = 16, 100
	o := New(Options{TraceCap: capacity})
	for i := 0; i < total; i++ {
		o.Emit(fmt.Sprintf("e%d", i))
	}
	tr := o.Events()
	if tr.Total() != total {
		t.Errorf("total = %d, want %d", tr.Total(), total)
	}
	evs := tr.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("retained = %d, want %d", len(evs), capacity)
	}
	for i, e := range evs {
		wantSeq := uint64(total - capacity + i)
		if e.Seq != wantSeq {
			t.Errorf("evs[%d].Seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if want := fmt.Sprintf("e%d", wantSeq); e.Kind != want {
			t.Errorf("evs[%d].Kind = %q, want %q", i, e.Kind, want)
		}
	}

	last := tr.Last(4)
	if len(last) != 4 || last[3].Seq != total-1 {
		t.Errorf("Last(4) = %+v", last)
	}
	if got := tr.Last(-1); len(got) != capacity {
		t.Errorf("Last(-1) should return everything, got %d", len(got))
	}
	if got := tr.Last(0); len(got) != 0 {
		t.Errorf("Last(0) should be empty, got %d", len(got))
	}
}

// TestTraceMinCapacity: an event ring asked for no capacity keeps one event,
// the newest.
func TestTraceMinCapacity(t *testing.T) {
	tr := NewRing[Event](0)
	if tr.Cap() != 1 {
		t.Errorf("cap = %d, want clamped to 1", tr.Cap())
	}
	tr.Add(Event{Kind: "x"})
	tr.Add(Event{Kind: "y"})
	evs := tr.Snapshot()
	if len(evs) != 1 || evs[0].Kind != "y" {
		t.Errorf("events = %+v", evs)
	}
}

// TestTraceConcurrent: concurrent Emits keep Seq contiguous in ring order.
func TestTraceConcurrent(t *testing.T) {
	o := New(Options{TraceCap: 32})
	const workers, iters = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				o.Emit("k")
				if i%100 == 0 {
					o.Events().Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if o.Events().Total() != workers*iters {
		t.Errorf("total = %d, want %d", o.Events().Total(), workers*iters)
	}
	evs := o.Events().Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Errorf("non-contiguous seqs: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1].Seq; last != workers*iters-1 {
		t.Errorf("newest seq = %d, want %d", last, workers*iters-1)
	}
}

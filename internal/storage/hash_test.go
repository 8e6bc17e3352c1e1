package storage

import (
	"testing"

	"paso/internal/tuple"
)

// The mixed-sat shape of the repository benchmark: (name, int) tuples,
// 4,096 live in one hash store, removed by an any-int template.
const satLive = 4096

func satTuple(seq uint64) tuple.Tuple {
	return tuple.New(tuple.ID{Origin: 1, Seq: seq}, tuple.String("c0"), tuple.Int(int64(seq%satLive)))
}

func newSatHash() (*Hash, uint64) {
	s := NewHash()
	var seq uint64
	for seq < satLive {
		seq++
		s.Insert(seq, satTuple(seq))
	}
	return s, seq
}

// TestHashAllocs pins the hash store's allocations on the mixed-sat shape:
// an insert allocates its entry and nothing else, and a read or remove
// allocates nothing, on the ground path and on the scan path alike.
func TestHashAllocs(t *testing.T) {
	s, seq := newSatHash()
	// Every insert below lands on a chain that exists already, so the
	// chain map never grows inside a count.
	batch := make([]tuple.Tuple, 1001)
	for i := range batch {
		batch[i] = satTuple(seq + uint64(i) + 1)
	}
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		s.Insert(seq, batch[0])
		batch = batch[1:]
	}); n > 1 {
		t.Errorf("Hash.Insert allocates %v times, want ≤ 1", n)
	}
	// 1,000 runs take from more than 1,000 entries of one content.
	ground := groundTpl("c0", 7)
	for i := 0; i < 1100; i++ {
		seq++
		s.Insert(seq, mkTuple(seq, "c0", 7))
	}
	for name, tp := range map[string]tuple.Template{"ground": ground, "scan": anyTpl("c0")} {
		if n := testing.AllocsPerRun(1000, func() {
			if _, ok := s.Read(tp); !ok {
				t.Fatal("miss")
			}
		}); n != 0 {
			t.Errorf("Hash.Read(%s) allocates %v times, want 0", name, n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if _, ok := s.Remove(tp); !ok {
				t.Fatal("miss")
			}
		}); n != 0 {
			t.Errorf("Hash.Remove(%s) allocates %v times, want 0", name, n)
		}
	}
}

// TestHashChainCollision links two different tuples under one forced hash:
// a ground lookup walks the chain and returns only the tuple the template
// matches, oldest first; a removal anywhere in the chain keeps its order
// and its tail.
func TestHashChainCollision(t *testing.T) {
	s := NewHash()
	a, b := mkTuple(1, "a", 1), mkTuple(2, "b", 2)
	const h = 42
	for i, tu := range []tuple.Tuple{a, b, a, b} {
		seq := uint64(i + 1)
		s.link(&entry{Entry: Entry{Seq: seq, Tuple: tu.WithID(tuple.ID{Origin: 1, Seq: seq})}, hash: h})
	}
	for _, c := range []struct {
		tu   tuple.Tuple
		want uint64
	}{{a, 1}, {b, 2}} {
		e, probes := s.walk(h, tuple.MatchTuple(c.tu))
		if e == nil || e.Seq != c.want || !e.Tuple.Equal(c.tu) {
			t.Fatalf("ground lookup of %v = %+v, want seq %d", c.tu, e, c.want)
		}
		if probes != int(c.want) {
			t.Errorf("ground lookup of %v took %d probes, want %d", c.tu, probes, c.want)
		}
	}
	if e, _ := s.walk(h, groundTpl("c", 3)); e != nil {
		t.Fatalf("ground lookup of a third content returned %v", e.Tuple)
	}

	chain := func() (seqs []uint64) {
		for e := s.chains[h]; e != nil; e = e.cnext {
			seqs = append(seqs, e.Seq)
		}
		return seqs
	}
	// Drop the middle (seq 2), then the head (seq 1): the chain is 3, 4,
	// and an append lands after 4.
	s.drop(s.head.next)
	s.drop(s.head)
	s.link(&entry{Entry: Entry{Seq: 5, Tuple: a}, hash: h})
	if got := chain(); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("chain after two drops and an append = %v, want [3 4 5]", got)
	}
	if e, _ := s.walk(h, tuple.MatchTuple(b)); e == nil || e.Seq != 4 {
		t.Fatalf("ground lookup of b after the drops = %+v, want seq 4", e)
	}
	s.drop(s.tail)
	if tail := s.chains[h].cprev; tail.Seq != 4 {
		t.Fatalf("chain tail after dropping it = seq %d, want 4", tail.Seq)
	}
	s.drop(s.head)
	s.drop(s.head)
	if len(s.chains) != 0 || s.Len() != 0 || s.head != nil || s.tail != nil {
		t.Fatalf("emptied store keeps %d chains and %d entries", len(s.chains), s.Len())
	}
}

func BenchmarkHashInsert(b *testing.B) {
	s, seq := newSatHash()
	scan := anyTpl("c0")
	b.ReportAllocs()
	for done := 0; done < b.N; done += satLive {
		n := min(satLive, b.N-done)
		b.StopTimer()
		for i := 0; i < n; i++ {
			s.Remove(scan)
		}
		batch := make([]tuple.Tuple, n)
		for i := range batch {
			seq++
			batch[i] = satTuple(seq)
		}
		b.StartTimer()
		for _, tu := range batch {
			s.Insert(tu.ID().Seq, tu)
		}
	}
}

func BenchmarkHashRemove(b *testing.B) {
	s, seq := newSatHash()
	scan := anyTpl("c0")
	b.ReportAllocs()
	for done := 0; done < b.N; done += satLive {
		n := min(satLive, b.N-done)
		b.StopTimer()
		for i := 0; i < n; i++ {
			seq++
			s.Insert(seq, satTuple(seq))
		}
		b.StartTimer()
		for i := 0; i < n; i++ {
			if _, ok := s.Remove(scan); !ok {
				b.Fatal("miss")
			}
		}
	}
}

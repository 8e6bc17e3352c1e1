package storage

import (
	"math/rand"
	"testing"

	"paso/internal/tuple"
)

func mkTuple(id uint64, name string, key int64) tuple.Tuple {
	return tuple.New(
		tuple.ID{Origin: 1, Seq: id},
		tuple.String(name), tuple.Int(key),
	)
}

func groundTpl(name string, key int64) tuple.Template {
	return tuple.NewTemplate(tuple.Eq(tuple.String(name)), tuple.Eq(tuple.Int(key)))
}

func anyTpl(name string) tuple.Template {
	return tuple.NewTemplate(tuple.Eq(tuple.String(name)), tuple.Any(tuple.KindInt))
}

func rangeTpl(name string, lo, hi int64) tuple.Template {
	return tuple.NewTemplate(
		tuple.Eq(tuple.String(name)),
		tuple.Range(tuple.Int(lo), tuple.Int(hi)),
	)
}

func allStores(t *testing.T) map[string]Store {
	t.Helper()
	return map[string]Store{
		"list": NewList(),
		"hash": NewHash(),
		"tree": NewTree(1),
	}
}

func TestNewFactory(t *testing.T) {
	for _, k := range []Kind{KindList, KindHash, KindTree} {
		s, err := New(k, 0)
		if err != nil || s == nil {
			t.Errorf("New(%v) = %v, %v", k, s, err)
		}
	}
	if _, err := New(Kind(0), 0); err == nil {
		t.Error("New(0) should fail")
	}
	if KindList.String() != "list" || KindHash.String() != "hash" || KindTree.String() != "tree" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind name wrong")
	}
}

func TestInsertReadRemoveBasic(t *testing.T) {
	for name, s := range allStores(t) {
		t.Run(name, func(t *testing.T) {
			tu := mkTuple(1, "a", 10)
			s.Insert(1, tu)
			if s.Len() != 1 {
				t.Fatalf("Len = %d", s.Len())
			}
			got, ok := s.Read(groundTpl("a", 10))
			if !ok || got.ID() != tu.ID() {
				t.Fatalf("Read = %v, %v", got, ok)
			}
			if _, ok := s.Read(groundTpl("a", 11)); ok {
				t.Fatal("Read found non-existent")
			}
			rem, ok := s.Remove(groundTpl("a", 10))
			if !ok || rem.ID() != tu.ID() {
				t.Fatalf("Remove = %v, %v", rem, ok)
			}
			if s.Len() != 0 {
				t.Fatalf("Len after remove = %d", s.Len())
			}
			if _, ok := s.Remove(groundTpl("a", 10)); ok {
				t.Fatal("second Remove should fail")
			}
		})
	}
}

func TestRemoveOldestFirst(t *testing.T) {
	for name, s := range allStores(t) {
		t.Run(name, func(t *testing.T) {
			// Three tuples matching the same template, inserted in order.
			s.Insert(1, mkTuple(1, "a", 10))
			s.Insert(2, mkTuple(2, "a", 10))
			s.Insert(3, mkTuple(3, "a", 10))
			for want := uint64(1); want <= 3; want++ {
				got, ok := s.Remove(groundTpl("a", 10))
				if !ok {
					t.Fatalf("Remove %d failed", want)
				}
				if got.ID().Seq != want {
					t.Fatalf("Remove returned seq %d, want %d (FIFO violated)", got.ID().Seq, want)
				}
			}
		})
	}
}

func TestRemoveOldestAcrossKeys(t *testing.T) {
	// With a wildcard template the oldest across different key values must
	// be returned — this exercises the tree's min-seq-in-range logic.
	for name, s := range allStores(t) {
		t.Run(name, func(t *testing.T) {
			s.Insert(1, mkTuple(1, "a", 50))
			s.Insert(2, mkTuple(2, "a", 10))
			s.Insert(3, mkTuple(3, "a", 90))
			got, ok := s.Remove(anyTpl("a"))
			if !ok || got.ID().Seq != 1 {
				t.Fatalf("Remove = %v, %v; want seq 1", got, ok)
			}
		})
	}
}

func TestRangeQueries(t *testing.T) {
	for name, s := range allStores(t) {
		t.Run(name, func(t *testing.T) {
			for i := int64(0); i < 20; i++ {
				s.Insert(uint64(i+1), mkTuple(uint64(i+1), "a", i*10))
			}
			got, ok := s.Read(rangeTpl("a", 45, 75))
			if !ok {
				t.Fatal("range read failed")
			}
			k := got.Field(1).MustInt()
			if k < 45 || k > 75 {
				t.Fatalf("range read returned key %d", k)
			}
			if _, ok := s.Read(rangeTpl("a", 1000, 2000)); ok {
				t.Fatal("empty range matched")
			}
			rem, ok := s.Remove(rangeTpl("a", 45, 75))
			if !ok || rem.Field(1).MustInt() != 50 {
				t.Fatalf("range remove = %v, %v; want oldest in range (key 50)", rem, ok)
			}
		})
	}
}

func TestRemoveByID(t *testing.T) {
	for name, s := range allStores(t) {
		t.Run(name, func(t *testing.T) {
			tu := mkTuple(5, "a", 1)
			s.Insert(1, tu)
			if !s.RemoveByID(tu.ID()) {
				t.Fatal("RemoveByID failed")
			}
			if s.RemoveByID(tu.ID()) {
				t.Fatal("second RemoveByID should fail")
			}
			if s.Len() != 0 {
				t.Fatalf("Len = %d", s.Len())
			}
		})
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for name, s := range allStores(t) {
		t.Run(name, func(t *testing.T) {
			for i := uint64(1); i <= 10; i++ {
				s.Insert(i, mkTuple(i, "a", int64(i%3)))
			}
			s.Remove(anyTpl("a")) // drop oldest
			snap := s.Snapshot()
			if len(snap) != 9 {
				t.Fatalf("snapshot len = %d", len(snap))
			}
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq <= snap[i-1].Seq {
					t.Fatal("snapshot not in ascending seq order")
				}
			}
			// Restore into a fresh store of every kind; behaviour must match.
			for name2, s2 := range allStores(t) {
				s2.Restore(snap)
				if s2.Len() != 9 {
					t.Fatalf("restore into %s: len %d", name2, s2.Len())
				}
				got, ok := s2.Remove(anyTpl("a"))
				if !ok || got.ID().Seq != 2 {
					t.Fatalf("restore into %s: oldest = %v, %v", name2, got, ok)
				}
			}
		})
	}
}

func TestStatsCounting(t *testing.T) {
	s := NewHash()
	s.Insert(1, mkTuple(1, "a", 1))
	s.Read(groundTpl("a", 1))
	s.Remove(groundTpl("a", 1))
	st := s.Stats()
	if st.Inserts != 1 || st.Reads != 1 || st.Removes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.ReadProbes != 1 {
		t.Errorf("hash ground read probes = %d, want 1", st.ReadProbes)
	}
}

func TestHashGroundReadIsO1(t *testing.T) {
	s := NewHash()
	for i := uint64(1); i <= 1000; i++ {
		s.Insert(i, mkTuple(i, "a", int64(i)))
	}
	before := s.Stats().ReadProbes
	s.Read(groundTpl("a", 500))
	if probes := s.Stats().ReadProbes - before; probes != 1 {
		t.Errorf("ground read probes = %d, want 1", probes)
	}
	before = s.Stats().ReadProbes
	s.Read(anyTpl("a"))
	if probes := s.Stats().ReadProbes - before; probes < 1 {
		t.Errorf("wildcard read probes = %d", probes)
	}
}

func TestTreeRangeCheaperThanScan(t *testing.T) {
	tr := NewTree(1)
	lst := NewList()
	const n = 512
	for i := uint64(1); i <= n; i++ {
		tu := mkTuple(i, "a", int64(i))
		tr.Insert(i, tu)
		lst.Insert(i, tu)
	}
	narrow := rangeTpl("a", n/2, n/2+1)
	tr.Read(narrow)
	lst.Read(narrow)
	if tp, lp := tr.Stats().ReadProbes, lst.Stats().ReadProbes; tp >= lp {
		t.Errorf("tree probes %d not cheaper than list probes %d on narrow range", tp, lp)
	}
}

// TestStoreEquivalence drives all three stores with the same random op
// sequence and requires identical observable behaviour (the list store is
// the executable specification).
func TestStoreEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ref := NewList()
	impls := map[string]Store{"hash": NewHash(), "tree": NewTree(1)}
	names := []string{"a", "b"}
	var seq uint64
	var idseq uint64
	for step := 0; step < 4000; step++ {
		name := names[r.Intn(len(names))]
		key := int64(r.Intn(8))
		switch r.Intn(4) {
		case 0, 1: // insert
			seq++
			idseq++
			tu := tuple.New(tuple.ID{Origin: 2, Seq: idseq}, tuple.String(name), tuple.Int(key))
			ref.Insert(seq, tu)
			for _, s := range impls {
				s.Insert(seq, tu)
			}
		case 2: // remove with random template shape
			tp := pickTemplate(r, name, key)
			want, wok := ref.Remove(tp)
			for n, s := range impls {
				got, ok := s.Remove(tp)
				if ok != wok || (ok && got.ID() != want.ID()) {
					t.Fatalf("step %d: %s.Remove(%v) = %v,%v; want %v,%v", step, n, tp, got, ok, want, wok)
				}
			}
		default: // read
			tp := pickTemplate(r, name, key)
			want, wok := ref.Read(tp)
			for n, s := range impls {
				got, ok := s.Read(tp)
				if ok != wok {
					t.Fatalf("step %d: %s.Read(%v) ok=%v want %v", step, n, tp, ok, wok)
				}
				// Read may return ANY match; only existence must agree,
				// plus the returned tuple must actually match.
				if ok && !tp.Matches(got) {
					t.Fatalf("step %d: %s.Read returned non-matching %v", step, n, got)
				}
				_ = want
			}
		}
		if step%500 == 0 {
			for n, s := range impls {
				if s.Len() != ref.Len() {
					t.Fatalf("step %d: %s.Len = %d, want %d", step, n, s.Len(), ref.Len())
				}
			}
		}
	}
}

func pickTemplate(r *rand.Rand, name string, key int64) tuple.Template {
	switch r.Intn(3) {
	case 0:
		return groundTpl(name, key)
	case 1:
		return anyTpl(name)
	default:
		return rangeTpl(name, key-2, key+2)
	}
}

// TestTreeStressDeleteStructure hammers B+tree insert/delete and verifies
// the structural invariants hold throughout: phases of growth and of drain
// take the tree through splits, emptied nodes and root collapses.
func TestTreeStressDeleteStructure(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	tr := NewTree(1)
	var live []tuple.Tuple
	var seq uint64
	for step := 0; step < 20000; step++ {
		inserts := 3 // of 4 steps: insert-heavy phases, then remove-heavy ones
		if (step/2500)%2 == 1 {
			inserts = 1
		}
		if len(live) == 0 || r.Intn(4) < inserts {
			seq++
			tu := mkTuple(seq, "a", int64(r.Intn(512)))
			tr.Insert(seq, tu)
			live = append(live, tu)
		} else {
			i := r.Intn(len(live))
			if !tr.RemoveByID(live[i].ID()) {
				t.Fatalf("RemoveByID lost tuple %v", live[i])
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if tr.Len() != len(live) {
			t.Fatalf("step %d: Len=%d want %d", step, tr.Len(), len(live))
		}
		if msg := checkTree(tr); msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
	}
}

// checkTree validates the B+tree: every leaf at one depth, no node empty or
// over treeFanout, keys ascending across the whole tree, every separator
// above everything to its left and not above anything to its right, one key
// per entry, and as many entries as Len.
func checkTree(tr *Tree) string {
	if tr.size == 0 {
		if tr.root.kids != nil || len(tr.root.keys) != 0 {
			return "empty tree without an empty leaf for a root"
		}
		return ""
	}
	leafDepth, entries := -1, 0
	var prev *treeKey
	var msg string
	// lo and hi bound the subtree: lo <= key < hi.
	var walk func(n *treeNode, depth int, lo, hi *treeKey)
	walk = func(n *treeNode, depth int, lo, hi *treeKey) {
		for i := range n.keys {
			k := &n.keys[i]
			if lo != nil && k.less(lo) || hi != nil && !k.less(hi) {
				msg = "key outside its separators"
			}
			if i > 0 && !n.keys[i-1].less(k) {
				msg = "keys out of order"
			}
		}
		if n.kids == nil {
			if leafDepth < 0 {
				leafDepth = depth
			}
			switch {
			case depth != leafDepth:
				msg = "leaves at different depths"
			case len(n.keys) == 0 || len(n.keys) > treeFanout:
				msg = "leaf size out of bounds"
			case len(n.entries) != len(n.keys):
				msg = "leaf keys and entries differ in length"
			}
			for i := range n.keys {
				if prev != nil && !prev.less(&n.keys[i]) {
					msg = "leaves out of order"
				}
				if n.entries[i].Seq != n.keys[i].seq {
					msg = "entry under another entry's key"
				}
				prev = &n.keys[i]
			}
			entries += len(n.keys)
			return
		}
		if len(n.kids) != len(n.keys)+1 || len(n.kids) > treeFanout || n.entries != nil {
			msg = "malformed branch"
			return
		}
		for i, kid := range n.kids {
			klo, khi := lo, hi
			if i > 0 {
				klo = &n.keys[i-1]
			}
			if i < len(n.keys) {
				khi = &n.keys[i]
			}
			walk(kid, depth+1, klo, khi)
		}
	}
	walk(tr.root, 0, nil, nil)
	if msg == "" && len(tr.root.kids) == 1 {
		msg = "root with a single child"
	}
	if msg == "" && entries != tr.size {
		msg = "entry count differs from Len"
	}
	return msg
}

// TestTreeSnapshotSeqOrder20k: key order is unrelated to arrival order, so a
// tree's snapshot is the worst case for whatever puts it back in seq order
// (BenchmarkTreeSnapshot20k times it: an insertion sort took half a second).
func TestTreeSnapshotSeqOrder20k(t *testing.T) {
	const n = 20000
	tr := NewTree(1)
	for i, key := range rand.New(rand.NewSource(5)).Perm(n) {
		tr.Insert(uint64(i+1), mkTuple(uint64(i+1), "a", int64(key)))
	}
	snap := tr.Snapshot()
	if len(snap) != n {
		t.Fatalf("snapshot holds %d entries, want %d", len(snap), n)
	}
	for i, e := range snap {
		if e.Seq != uint64(i+1) || e.Tuple.ID().Seq != e.Seq {
			t.Fatalf("snapshot[%d] = seq %d, tuple %v; want seq %d", i, e.Seq, e.Tuple, i+1)
		}
	}
}

// TestTreeReadZeroAlloc: a range read allocates nothing — no closure, no
// copied key, no path stack on the heap.
func TestTreeReadZeroAlloc(t *testing.T) {
	tr := NewTree(1)
	for i := uint64(1); i <= 2000; i++ {
		tr.Insert(i, mkTuple(i, "a", int64(i)))
	}
	tp := rangeTpl("a", 1000, 1007)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := tr.Read(tp); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Errorf("Tree.Read allocates %v times, want 0", n)
	}
}

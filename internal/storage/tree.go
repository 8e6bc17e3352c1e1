package storage

import (
	"cmp"
	"slices"

	"paso/internal/tuple"
)

// Tree is an ordered store: a B+tree keyed by one designated tuple field,
// entries in (key, seq) order in its leaves. Templates that pin the key field
// with OpEq or OpRange seek the lower bound and walk in key order up to the
// upper bound (Q = O(log ℓ + in-range entries)); other templates degrade to a
// full in-order walk. Read and Remove return the oldest (lowest seq) in-range
// match, so tree replicas stay consistent with list and hash replicas.
type Tree struct {
	root     *treeNode
	keyField int
	size     int
	stats    Stats
}

var _ Store = (*Tree)(nil)

// treeKey orders entries by (key value, seq).
type treeKey struct {
	val tuple.Value
	seq uint64
}

func (a *treeKey) less(b *treeKey) bool {
	c := tuple.CompareValues(&a.val, &b.val)
	return c < 0 || c == 0 && a.seq < b.seq
}

// treeFanout bounds a node: a leaf holds at most treeFanout entries, a branch
// at most treeFanout children. A search then touches three or four nodes of
// contiguous keys at 20,000 entries where a binary tree chases fifteen
// pointers (DESIGN.md, "The store and match path").
const treeFanout = 32

// treeNode is a leaf (kids == nil: entries[i] has key keys[i], ascending) or
// a branch (len(kids) == len(keys)+1: everything under kids[i] is below
// keys[i], everything under kids[i+1] is not). Nodes split when they
// overflow and are freed only when they empty — no merging at half, which
// buys nothing while inserts keep pace with removes (Johnson and Shasha,
// "B-trees with inserts and deletes: why free-at-empty is better than
// merge-at-half") — so a separator may outlive the entry it was copied from.
type treeNode struct {
	keys    []treeKey
	entries []Entry
	kids    []*treeNode
}

// NewTree returns an empty tree store ordered on the given field index.
func NewTree(keyField int) *Tree {
	if keyField < 0 {
		keyField = 0
	}
	return &Tree{keyField: keyField, root: newTreeNode(nil, nil, nil)}
}

// Insert implements Store.
func (s *Tree) Insert(seq uint64, t tuple.Tuple) {
	k := treeKey{seq: seq}
	if s.keyField < t.Arity() {
		k.val = t.Field(s.keyField)
	}
	if sep, right := s.root.insert(&k, &Entry{Seq: seq, Tuple: t}); right != nil {
		s.root = newTreeNode([]treeKey{sep}, nil, []*treeNode{s.root, right})
	}
	s.size++
	s.stats.Inserts++
}

// Read implements Store.
func (s *Tree) Read(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Reads++
	_, found := s.search(tp, &s.stats.ReadProbes)
	if found == nil {
		return tuple.Tuple{}, false
	}
	return found.Tuple, true
}

// Remove implements Store.
func (s *Tree) Remove(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Removes++
	k, found := s.search(tp, &s.stats.RemoveProbes)
	if found == nil {
		return tuple.Tuple{}, false
	}
	t := found.Tuple // remove shifts the leaf under found
	s.remove(k)
	return t, true
}

// RemoveByID implements Store. The tree keeps no identity index — nothing
// outside the tests removes by identity, and the index cost every insert a
// fifth of its time — so this walks the leaves, O(ℓ).
func (s *Tree) RemoveByID(id tuple.ID) bool {
	k := s.root.keyOf(id)
	if k == nil {
		return false
	}
	s.remove(k)
	return true
}

// remove deletes the entry with exactly key k and drops the levels a
// shrinking tree no longer needs; the root ends as a leaf, empty or not, or a
// branch of two children or more. k may point into the leaf it is deleted
// from: no level reads it after the leaf has shifted.
func (s *Tree) remove(k *treeKey) {
	if found, _ := s.root.remove(k); found {
		s.size--
	}
	for len(s.root.kids) == 1 {
		s.root = s.root.kids[0]
	}
}

// Len implements Store.
func (s *Tree) Len() int { return s.size }

// Snapshot implements Store. Entries are returned in ascending seq order
// regardless of key order so Restore into any store kind is equivalent.
func (s *Tree) Snapshot() []Entry {
	out := s.root.appendEntries(make([]Entry, 0, s.size))
	// Key order says nothing about arrival order.
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Restore implements Store.
func (s *Tree) Restore(entries []Entry) {
	s.root = newTreeNode(nil, nil, nil)
	s.size = 0
	for _, e := range entries {
		s.Insert(e.Seq, e.Tuple)
		s.stats.Inserts-- // Restore is not an application insert
	}
}

// Stats implements Store.
func (s *Tree) Stats() Stats { return s.stats }

// treeSearch is one search for the oldest entry matching tp among the keys in
// [lo, hi] (every key when unbounded). A probe is one key examined: a step of
// a node's binary search, or an entry the walk reaches.
type treeSearch struct {
	tp      tuple.Template
	lo      treeKey // seq 0: below every entry of the lowest key in range
	hi      tuple.Value
	bounded bool
	skip    int // the key field when lo <= key <= hi settles its matcher, else -1
	bestKey *treeKey
	best    *Entry
	probes  int
}

// search finds the oldest entry matching tp and its key.
func (s *Tree) search(tp tuple.Template, probes *int) (*treeKey, *Entry) {
	q := treeSearch{tp: tp, skip: -1}
	if s.keyField < tp.Arity() {
		m := tp.Matcher(s.keyField)
		switch m.Op {
		case tuple.OpEq:
			q.lo.val, q.hi, q.bounded = m.A, m.A, true
		case tuple.OpRange:
			q.lo.val, q.hi, q.bounded = m.A, m.B, true
		}
		// The bounds are the key matcher's whole verdict when they are of the
		// kind it requires (kinds order by tag, so an in-range key is of it
		// too) and that kind is totally ordered: among floats NaN compares 0
		// with everything yet equals only NaN.
		if q.bounded && m.A.IsValid() && m.A.Kind() == m.Kind && q.hi.Kind() == m.Kind && m.Kind != tuple.KindFloat {
			q.skip = s.keyField
		}
	}
	q.scan(s.root, q.bounded)
	*probes += q.probes
	return q.bestKey, q.best
}

// scan walks n's entries in key order — from lo's lower bound when seek is
// set, from the first otherwise — and reports false once a key above hi ends
// the search. Only an entry older than the best so far is worth matching.
func (q *treeSearch) scan(n *treeNode, seek bool) bool {
	i := 0
	if seek {
		var steps int
		i, steps = n.lowerBound(&q.lo)
		q.probes += steps
	}
	if n.kids != nil {
		for ; i < len(n.kids); i++ {
			if !q.scan(n.kids[i], seek) {
				return false
			}
			seek = false // later subtrees lie wholly above lo
		}
		return true
	}
	for ; i < len(n.keys); i++ {
		q.probes++
		if q.bounded && tuple.CompareValues(&n.keys[i].val, &q.hi) > 0 {
			return false
		}
		if e := &n.entries[i]; (q.best == nil || e.Seq < q.best.Seq) && q.tp.MatchesExcept(e.Tuple, q.skip) {
			q.bestKey, q.best = &n.keys[i], e
		}
	}
	return true
}

// newTreeNode returns a node holding copies of the given slices, with room
// for the one element over treeFanout that triggers a split.
func newTreeNode(keys []treeKey, entries []Entry, kids []*treeNode) *treeNode {
	n := &treeNode{keys: append(make([]treeKey, 0, treeFanout+1), keys...)}
	if kids != nil {
		n.kids = append(make([]*treeNode, 0, treeFanout+1), kids...)
	} else {
		n.entries = append(make([]Entry, 0, treeFanout+1), entries...)
	}
	return n
}

// appendEntries appends every entry under n, in key order.
func (n *treeNode) appendEntries(out []Entry) []Entry {
	out = append(out, n.entries...)
	for _, kid := range n.kids {
		out = kid.appendEntries(out)
	}
	return out
}

// keyOf returns the key of the entry under n whose tuple has the given
// identity, or nil.
func (n *treeNode) keyOf(id tuple.ID) *treeKey {
	for i := range n.entries {
		if n.entries[i].Tuple.ID() == id {
			return &n.keys[i]
		}
	}
	for _, kid := range n.kids {
		if k := kid.keyOf(id); k != nil {
			return k
		}
	}
	return nil
}

// lowerBound returns the first index whose key is not below k, and how many
// keys the binary search examined.
func (n *treeNode) lowerBound(k *treeKey) (i, steps int) {
	lo, hi := 0, len(n.keys)
	for ; lo < hi; steps++ {
		mid := int(uint(lo+hi) >> 1)
		if n.keys[mid].less(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, steps
}

// find returns where k is or belongs: in a leaf its index and whether it is
// there, in a branch the child that holds it.
func (n *treeNode) find(k *treeKey) (int, bool) {
	i, _ := n.lowerBound(k)
	eq := i < len(n.keys) && !k.less(&n.keys[i])
	if eq && n.kids != nil {
		i++ // a separator is the smallest key of its right side
	}
	return i, eq
}

// insert adds the entry under n. When n overflows it keeps the lower half
// and returns the upper half with the separator between the two.
func (n *treeNode) insert(k *treeKey, e *Entry) (sep treeKey, right *treeNode) {
	i, _ := n.find(k)
	if n.kids == nil {
		n.keys = slices.Insert(n.keys, i, *k)
		n.entries = slices.Insert(n.entries, i, *e)
		if len(n.keys) <= treeFanout {
			return sep, nil
		}
		h := len(n.keys) / 2
		right = newTreeNode(n.keys[h:], n.entries[h:], nil)
		clear(n.keys[h:]) // what moved belongs to right alone
		clear(n.entries[h:])
		n.keys, n.entries = n.keys[:h], n.entries[:h]
		return right.keys[0], right
	}
	s, r := n.kids[i].insert(k, e)
	if r == nil {
		return sep, nil
	}
	n.keys = slices.Insert(n.keys, i, s)
	n.kids = slices.Insert(n.kids, i+1, r)
	if len(n.kids) <= treeFanout {
		return sep, nil
	}
	h := len(n.keys) / 2
	sep, right = n.keys[h], newTreeNode(n.keys[h+1:], nil, n.kids[h+1:])
	clear(n.keys[h:])
	clear(n.kids[h+1:])
	n.keys, n.kids = n.keys[:h], n.kids[:h+1]
	return sep, right
}

// remove deletes the entry with key k under n. It reports whether the key
// was there and whether n is left with nothing under it.
func (n *treeNode) remove(k *treeKey) (found, empty bool) {
	i, eq := n.find(k)
	if n.kids == nil {
		if !eq {
			return false, false
		}
		n.keys = slices.Delete(n.keys, i, i+1)
		n.entries = slices.Delete(n.entries, i, i+1)
		return true, len(n.keys) == 0
	}
	found, empty = n.kids[i].remove(k)
	if !empty {
		return found, false
	}
	n.kids = slices.Delete(n.kids, i, i+1)
	if len(n.keys) > 0 {
		// Either neighbouring separator still divides what remains.
		j := min(i, len(n.keys)-1)
		n.keys = slices.Delete(n.keys, j, j+1)
	}
	return found, len(n.kids) == 0
}

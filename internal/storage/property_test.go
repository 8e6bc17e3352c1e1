package storage

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"paso/internal/tuple"
)

// opScript is a quick.Generator producing random operation sequences for
// the store-equivalence property.
type opScript struct {
	ops []scriptOp
}

type scriptOp struct {
	kind   int // 0 insert, 1 remove, 2 read, 3 removeByID, 4 snapshot→restore
	name   byte
	key    int64
	tag    int64
	flt    int   // index into floats
	tpl    int   // template shape for remove/read, see template
	lo, hi int64 // range bounds; lo > hi is an empty range
}

// floats are the values of the float field: ±0 and two NaN payloads are
// pairs Value.equal calls equal though their bits differ.
var floats = []float64{0, math.Copysign(0, -1), 1.5,
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF8000000000002)}

// Generate implements quick.Generator. Six keys and three tags over a few
// hundred ops give every key many duplicates, and most ranges hold entries
// whose tag the template rejects.
func (opScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := 20 + r.Intn(200)
	ops := make([]scriptOp, n)
	for i := range ops {
		kind := r.Intn(9) / 2 // snapshot→restore at half the rate of the rest
		ops[i] = scriptOp{
			kind: kind,
			name: byte('a' + r.Intn(2)),
			key:  int64(r.Intn(6)),
			tag:  int64(r.Intn(3)),
			flt:  r.Intn(len(floats)),
			tpl:  r.Intn(5),
			lo:   int64(r.Intn(7)) - 1,
			hi:   int64(r.Intn(7)) - 1,
		}
	}
	return reflect.ValueOf(opScript{ops: ops})
}

// tuple builds the op's (name, key, tag, float) object.
func (op scriptOp) tuple(id uint64) tuple.Tuple {
	return tuple.New(tuple.ID{Origin: 3, Seq: id}, tuple.String(string(op.name)),
		tuple.Int(op.key), tuple.Int(op.tag), tuple.Float(floats[op.flt]))
}

// template builds the op's search criterion over (name, key, tag, float)
// tuples; the tree under test is keyed on field 1.
func (op scriptOp) template() tuple.Template {
	name, tag := tuple.Eq(tuple.String(string(op.name))), tuple.Eq(tuple.Int(op.tag))
	keyRange := tuple.Range(tuple.Int(op.lo), tuple.Int(op.hi))
	anyFloat := tuple.Any(tuple.KindFloat)
	switch op.tpl {
	case 0: // OpEq on the key
		return tuple.NewTemplate(name, tuple.Eq(tuple.Int(op.key)), tuple.Any(tuple.KindInt), anyFloat)
	case 1: // OpRange on the key, possibly empty
		return tuple.NewTemplate(name, keyRange, tuple.Any(tuple.KindInt), anyFloat)
	case 2: // key unconstrained
		return tuple.NewTemplate(name, tuple.Any(tuple.KindInt), tag, anyFloat)
	case 3: // a non-key field decides among the in-range entries
		return tuple.NewTemplate(tuple.Any(tuple.KindString), keyRange, tag, anyFloat)
	default: // fully ground: the hash store's one-probe path
		return tuple.NewTemplate(name, tuple.Eq(tuple.Int(op.key)), tag, tuple.Eq(tuple.Float(floats[op.flt])))
	}
}

// TestPropertyStoreKindsEquivalent runs random scripts against all three
// store kinds: observable behaviour (the tuple each read and remove returns,
// lengths, snapshot contents) must be identical, also across a
// snapshot→restore of every replica. The list store is the executable spec;
// the float field makes a ground template find −0 under +0 and one NaN
// under another, as Value.equal does.
func TestPropertyStoreKindsEquivalent(t *testing.T) {
	f := func(script opScript) bool {
		stores := []Store{NewList(), NewHash(), NewTree(1)}
		var seq, idseq uint64
		ids := make([]tuple.ID, 0, len(script.ops))
		for _, op := range script.ops {
			switch op.kind {
			case 0:
				seq++
				idseq++
				tu := op.tuple(idseq)
				for _, s := range stores {
					s.Insert(seq, tu)
				}
				ids = append(ids, tu.ID())
			case 1, 2:
				tp := op.template()
				var want tuple.Tuple
				var wantOK bool
				for i, s := range stores {
					find := s.Read
					if op.kind == 1 {
						find = s.Remove
					}
					got, ok := find(tp)
					if i == 0 {
						want, wantOK = got, ok
					}
					if ok != wantOK || got.ID() != want.ID() || (ok && !tp.Matches(got)) {
						return false
					}
				}
			case 3:
				if len(ids) == 0 {
					continue
				}
				id := ids[int(op.key)%len(ids)]
				want := stores[0].RemoveByID(id)
				for _, s := range stores[1:] {
					if s.RemoveByID(id) != want {
						return false
					}
				}
			case 4:
				for i, s := range stores {
					fresh, err := New(Kind(i+1), 1)
					if err != nil {
						return false
					}
					fresh.Restore(s.Snapshot())
					stores[i] = fresh
				}
			}
			for _, s := range stores[1:] {
				if s.Len() != stores[0].Len() {
					return false
				}
			}
		}
		// Final snapshots must agree entry for entry.
		want := stores[0].Snapshot()
		for _, s := range stores[1:] {
			got := s.Snapshot()
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i].Seq != want[i].Seq || got[i].Tuple.ID() != want[i].Tuple.ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertySnapshotRestoreIdempotent: restore(snapshot(s)) is an
// identity on observable state for every store kind.
func TestPropertySnapshotRestoreIdempotent(t *testing.T) {
	f := func(script opScript) bool {
		for _, kind := range []Kind{KindList, KindHash, KindTree} {
			s, err := New(kind, 1)
			if err != nil {
				return false
			}
			var seq uint64
			for _, op := range script.ops {
				if op.kind != 0 {
					continue
				}
				seq++
				s.Insert(seq, tuple.New(tuple.ID{Origin: 4, Seq: seq},
					tuple.String(string(op.name)), tuple.Int(op.key)))
			}
			snap := s.Snapshot()
			s2, err := New(kind, 1)
			if err != nil {
				return false
			}
			s2.Restore(snap)
			if s2.Len() != s.Len() {
				return false
			}
			again := s2.Snapshot()
			if len(again) != len(snap) {
				return false
			}
			for i := range snap {
				if snap[i].Seq != again[i].Seq || snap[i].Tuple.ID() != again[i].Tuple.ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

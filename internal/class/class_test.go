package class

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paso/internal/tuple"
)

func TestNameArityClassOf(t *testing.T) {
	c := NewNameArity([]string{"task", "result"}, 4)
	tests := []struct {
		name string
		tu   tuple.Tuple
		want ID
	}{
		{"known name", tuple.Make(tuple.String("task"), tuple.Int(1)), "task/2"},
		{"other known", tuple.Make(tuple.String("result"), tuple.Int(1), tuple.Int(2)), "result/3"},
		{"unknown name", tuple.Make(tuple.String("zzz"), tuple.Int(1)), "_/2"},
		{"non-string head", tuple.Make(tuple.Int(9)), "_/1"},
		{"empty", tuple.Make(), "_/0"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.ClassOf(tt.tu); got != tt.want {
				t.Errorf("ClassOf = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestNameAritySearchListPinned(t *testing.T) {
	c := NewNameArity([]string{"task", "result"}, 4)
	tp := tuple.NewTemplate(tuple.Eq(tuple.String("task")), tuple.Any(tuple.KindInt))
	got := c.SearchList(tp)
	if len(got) != 1 || got[0] != "task/2" {
		t.Errorf("SearchList = %v, want [task/2]", got)
	}
}

func TestNameAritySearchListUnknownName(t *testing.T) {
	c := NewNameArity([]string{"task"}, 4)
	tp := tuple.NewTemplate(tuple.Eq(tuple.String("nope")), tuple.Any(tuple.KindInt))
	got := c.SearchList(tp)
	if len(got) != 1 || got[0] != "_/2" {
		t.Errorf("SearchList = %v, want [_/2]", got)
	}
}

func TestNameAritySearchListFormalHead(t *testing.T) {
	c := NewNameArity([]string{"task", "result"}, 4)
	tp := tuple.NewTemplate(tuple.Any(tuple.KindString), tuple.Any(tuple.KindInt))
	got := c.SearchList(tp)
	want := map[ID]bool{"task/2": true, "result/2": true, "_/2": true}
	if len(got) != len(want) {
		t.Fatalf("SearchList = %v, want 3 classes", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected class %q", id)
		}
	}
}

func TestNameArityClassesEnumeration(t *testing.T) {
	c := NewNameArity([]string{"a"}, 2)
	got := c.Classes()
	// arities 0..2 × {a, catchall} = 6 classes
	if len(got) != 6 {
		t.Fatalf("Classes = %v (len %d), want 6", got, len(got))
	}
	seen := make(map[ID]bool)
	for _, id := range got {
		if seen[id] {
			t.Errorf("duplicate class %q", id)
		}
		seen[id] = true
	}
}

// TestSearchListExhaustive checks the paper's exhaustiveness requirement:
// for every template tp and tuple tu, tp.Matches(tu) implies
// ClassOf(tu) ∈ SearchList(tp).
func TestSearchListExhaustive(t *testing.T) {
	cls := []Classifier{
		NewNameArity([]string{"task", "result", "lock"}, 5),
		Single{},
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		tu := randomNamedTuple(r)
		tp := randomTemplateFor(r, tu)
		if !tp.Matches(tu) {
			continue
		}
		for _, c := range cls {
			classOf := c.ClassOf(tu)
			found := false
			for _, id := range c.SearchList(tp) {
				if id == classOf {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("classifier %T: class %q of %v not in search list %v for %v",
					c, classOf, tu, c.SearchList(tp), tp)
			}
		}
	}
}

func randomNamedTuple(r *rand.Rand) tuple.Tuple {
	names := []string{"task", "result", "lock", "other"}
	fields := []tuple.Value{tuple.String(names[r.Intn(len(names))])}
	for i := 0; i < r.Intn(4); i++ {
		fields = append(fields, tuple.Int(int64(r.Intn(100))))
	}
	return tuple.Make(fields...)
}

// randomTemplateFor builds a template that usually matches tu.
func randomTemplateFor(r *rand.Rand, tu tuple.Tuple) tuple.Template {
	ms := make([]tuple.Matcher, tu.Arity())
	for i := range ms {
		v := tu.Field(i)
		switch r.Intn(3) {
		case 0:
			ms[i] = tuple.Eq(v)
		case 1:
			ms[i] = tuple.Any(v.Kind())
		default:
			if v.Kind() == tuple.KindInt {
				ms[i] = tuple.Range(tuple.Int(v.MustInt()-5), tuple.Int(v.MustInt()+5))
			} else {
				ms[i] = tuple.Any(v.Kind())
			}
		}
	}
	return tuple.NewTemplate(ms...)
}

func TestSingleClassifier(t *testing.T) {
	s := Single{}
	if got := s.ClassOf(tuple.Make(tuple.Int(1))); got != SingleClassID {
		t.Errorf("ClassOf = %q", got)
	}
	if got := s.SearchList(tuple.NewTemplate()); len(got) != 1 || got[0] != SingleClassID {
		t.Errorf("SearchList = %v", got)
	}
	if got := s.Classes(); len(got) != 1 {
		t.Errorf("Classes = %v", got)
	}
}

func TestPropertyNameArityDeterministic(t *testing.T) {
	c := NewNameArity([]string{"task"}, 6)
	f := func(n uint8, v int64) bool {
		fields := make([]tuple.Value, int(n)%5)
		for i := range fields {
			fields[i] = tuple.Int(v)
		}
		tu := tuple.Make(fields...)
		return c.ClassOf(tu) == c.ClassOf(tu)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

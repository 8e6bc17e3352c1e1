package tuple

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindInt, "int"},
		{KindFloat, "float"},
		{KindString, "string"},
		{KindBool, "bool"},
		{KindBytes, "bytes"},
		{Kind(0), "invalid(0)"},
		{Kind(99), "invalid(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	iv := Int(-42)
	if k := iv.Kind(); k != KindInt {
		t.Fatalf("Int kind = %v", k)
	}
	if got, err := iv.AsInt(); err != nil || got != -42 {
		t.Fatalf("AsInt = %d, %v", got, err)
	}
	if _, err := iv.AsString(); err != ErrKindMismatch {
		t.Fatalf("AsString on int err = %v, want ErrKindMismatch", err)
	}

	fv := Float(3.5)
	if got, err := fv.AsFloat(); err != nil || got != 3.5 {
		t.Fatalf("AsFloat = %v, %v", got, err)
	}

	sv := String("hello")
	if got, err := sv.AsString(); err != nil || got != "hello" {
		t.Fatalf("AsString = %q, %v", got, err)
	}

	bv := Bool(true)
	if got, err := bv.AsBool(); err != nil || !got {
		t.Fatalf("AsBool = %v, %v", got, err)
	}

	raw := []byte{1, 2, 3}
	byv := Bytes(raw)
	raw[0] = 9 // must not alias
	got, err := byv.AsBytes()
	if err != nil || len(got) != 3 || got[0] != 1 {
		t.Fatalf("AsBytes = %v, %v (aliasing?)", got, err)
	}
	got[1] = 7
	again, _ := byv.AsBytes()
	if again[1] != 2 {
		t.Fatal("AsBytes returned aliased slice")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"int eq", Int(1), Int(1), true},
		{"int ne", Int(1), Int(2), false},
		{"kind ne", Int(1), Float(1), false},
		{"float eq", Float(2.5), Float(2.5), true},
		{"nan eq nan", Float(math.NaN()), Float(math.NaN()), true},
		{"string eq", String("a"), String("a"), true},
		{"string ne", String("a"), String("b"), false},
		{"bool eq", Bool(true), Bool(true), true},
		{"bool ne", Bool(true), Bool(false), false},
		{"bytes eq", Bytes([]byte{1, 2}), Bytes([]byte{1, 2}), true},
		{"bytes len ne", Bytes([]byte{1}), Bytes([]byte{1, 2}), false},
		{"bytes content ne", Bytes([]byte{1, 3}), Bytes([]byte{1, 2}), false},
		{"invalid vs invalid", Value{}, Value{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want int
	}{
		{"int lt", Int(1), Int(2), -1},
		{"int gt", Int(3), Int(2), 1},
		{"int eq", Int(2), Int(2), 0},
		{"float lt", Float(1.5), Float(2.5), -1},
		{"string lt", String("a"), String("b"), -1},
		{"bool lt", Bool(false), Bool(true), -1},
		{"bool eq", Bool(true), Bool(true), 0},
		{"bool gt", Bool(true), Bool(false), 1},
		{"bytes lt", Bytes([]byte{1}), Bytes([]byte{2}), -1},
		{"bytes prefix lt", Bytes([]byte{1}), Bytes([]byte{1, 0}), -1},
		{"bytes eq", Bytes([]byte{5, 6}), Bytes([]byte{5, 6}), 0},
		{"cross kind", Int(9), Float(0), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueSizePositive(t *testing.T) {
	vals := []Value{Int(0), Float(0), String(""), Bool(false), Bytes(nil)}
	for _, v := range vals {
		if v.Size() <= 0 {
			t.Errorf("Size(%v) = %d, want > 0", v, v.Size())
		}
	}
	if String("abcd").Size() <= String("").Size() {
		t.Error("longer string should have larger size")
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Int(5), "5"},
		{Float(1.5), "1.5"},
		{String("x"), `"x"`},
		{Bool(true), "true"},
		{Bytes([]byte{1, 2}), "bytes[2]"},
		{Value{}, "<invalid>"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// TestValueKindPairs pins Equal and Compare over every pair of kinds against
// an oracle written on plain Go values, so the semantics do not depend on how
// Value lays its payload out: NaN equals NaN but compares 0 against every
// float, bools order false < true, bytes and strings order lexicographically
// with a proper prefix first, and values of different kinds are never equal
// and order by kind tag. The zero Value equals nothing, itself included.
func TestValueKindPairs(t *testing.T) {
	nan := math.NaN()
	raws := []any{
		nil, // the zero Value
		int64(math.MinInt64), int64(-1), int64(0), int64(1), int64(math.MaxInt64),
		math.Inf(-1), -1.5, math.Copysign(0, -1), 0.0, 2.5, math.Inf(1), nan,
		"", "a", "a\x00", "ab", "b",
		false, true,
		[]byte{}, []byte{0}, []byte{1}, []byte{1, 0}, []byte{1, 2}, []byte{2}, []byte("a"),
	}
	mk := func(raw any) (Value, Kind) {
		switch r := raw.(type) {
		case int64:
			return Int(r), KindInt
		case float64:
			return Float(r), KindFloat
		case string:
			return String(r), KindString
		case bool:
			return Bool(r), KindBool
		case []byte:
			return Bytes(r), KindBytes
		}
		return Value{}, 0
	}
	sign := func(lt, gt bool) int {
		switch {
		case lt:
			return -1
		case gt:
			return 1
		}
		return 0
	}
	for _, ra := range raws {
		for _, rb := range raws {
			a, ka := mk(ra)
			b, kb := mk(rb)
			var wantEq bool
			wantCmp := sign(ka < kb, ka > kb)
			if ka == kb {
				switch x := ra.(type) {
				case int64:
					y := rb.(int64)
					wantEq, wantCmp = x == y, sign(x < y, x > y)
				case float64:
					y := rb.(float64)
					wantEq = x == y || (x != x && y != y)
					wantCmp = sign(x < y, x > y)
				case string:
					y := rb.(string)
					wantEq, wantCmp = x == y, strings.Compare(x, y)
				case bool:
					y := rb.(bool)
					wantEq, wantCmp = x == y, sign(!x && y, x && !y)
				case []byte:
					y := rb.([]byte)
					wantEq, wantCmp = bytes.Equal(x, y), bytes.Compare(x, y)
				}
			}
			if got := a.Equal(b); got != wantEq {
				t.Errorf("%v.Equal(%v) = %v, want %v", a, b, got, wantEq)
			}
			if got := a.Compare(b); got != wantCmp {
				t.Errorf("%v.Compare(%v) = %d, want %d", a, b, got, wantCmp)
			}
		}
	}
}

// TestValueMustAccessorsOtherKind: a Must accessor on a value of another
// kind returns that type's zero value, never another kind's payload.
func TestValueMustAccessorsOtherKind(t *testing.T) {
	for _, v := range []Value{{}, Int(7), Float(7.5), String("s"), Bool(true), Bytes([]byte("b"))} {
		if got := v.MustInt(); got != 0 && v.Kind() != KindInt {
			t.Errorf("%v.MustInt() = %d", v, got)
		}
		if got := v.MustFloat(); got != 0 && v.Kind() != KindFloat {
			t.Errorf("%v.MustFloat() = %v", v, got)
		}
		if got := v.MustString(); got != "" && v.Kind() != KindString {
			t.Errorf("%v.MustString() = %q", v, got)
		}
		if got := v.MustBool(); got && v.Kind() != KindBool {
			t.Errorf("%v.MustBool() = true", v)
		}
	}
}

// TestContentHashFollowsEqual: tuples Equal calls equal hash alike — −0
// and +0, NaNs of any payload — and a ground template's GroundHash is the
// ContentHash of the tuples it matches. Neither allocates.
func TestContentHashFollowsEqual(t *testing.T) {
	nan1, nan2 := math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000002)
	pairs := [][2]Tuple{
		{Make(String("a"), Float(0)), Make(String("a"), Float(math.Copysign(0, -1)))},
		{Make(String("a"), Float(nan1)), Make(String("a"), Float(nan2))},
		{New(ID{Origin: 1, Seq: 1}, Int(7), Bytes([]byte("x"))), New(ID{Origin: 2, Seq: 9}, Int(7), Bytes([]byte("x")))},
	}
	for _, p := range pairs {
		if !p[0].Equal(p[1]) {
			t.Fatalf("%v and %v are not Equal", p[0], p[1])
		}
		if p[0].ContentHash() != p[1].ContentHash() {
			t.Errorf("%v and %v are Equal but hash apart", p[0], p[1])
		}
		if h, ok := MatchTuple(p[1]).GroundHash(); !ok || h != p[0].ContentHash() {
			t.Errorf("GroundHash of MatchTuple(%v) = %x, %v; want %x", p[1], h, ok, p[0].ContentHash())
		}
	}
	// Kinds, arity and field order all reach the hash.
	distinct := []Tuple{
		Make(String("x")), Make(Bytes([]byte("x"))), Make(String("x"), String("")),
		Make(Int(1), Int(2)), Make(Int(2), Int(1)), Make(Int(1)), Make(Bool(true)), Make(Float(1)),
	}
	seen := map[uint64]Tuple{}
	for _, tu := range distinct {
		if o, dup := seen[tu.ContentHash()]; dup {
			t.Errorf("%v and %v share a hash", o, tu)
		}
		seen[tu.ContentHash()] = tu
	}
	if _, ok := NewTemplate(Eq(String("a")), Any(KindInt)).GroundHash(); ok {
		t.Error("a template with an OpAny field is ground")
	}
	tu := pairs[2][0]
	tp := MatchTuple(tu)
	if n := testing.AllocsPerRun(100, func() {
		_ = tu.ContentHash()
		_, _ = tp.GroundHash()
	}); n != 0 {
		t.Errorf("ContentHash and GroundHash allocate %v times, want 0", n)
	}
}

// Package tuple implements PASO objects: immutable tuples of typed values,
// and the associative search criteria (templates) used to retrieve them.
//
// An object in a PASO memory is a tuple of values drawn from ground sets of
// basic data types (paper §1, §2). Tuples are matched by templates whose
// fields are either actuals (must be equal), formals (match any value of a
// type), ranges, or arbitrary predicates.
package tuple

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
)

// Kind enumerates the ground types a tuple field may take.
type Kind int

// Supported field kinds. Enums start at one so the zero value is invalid
// and misuse is detectable.
const (
	KindInt Kind = iota + 1
	KindFloat
	KindString
	KindBool
	KindBytes
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindBytes:
		return "bytes"
	default:
		return "invalid(" + strconv.Itoa(int(k)) + ")"
	}
}

// valid reports whether k is one of the declared kinds.
func (k Kind) valid() bool {
	return k >= KindInt && k <= KindBytes
}

// ErrKindMismatch is returned when a typed accessor is used on a value of a
// different kind.
var ErrKindMismatch = errors.New("tuple: value kind mismatch")

// Value is a single immutable field of a tuple. The zero Value is invalid.
//
// It is a tag, one 8-byte scalar and one string-shaped payload — 32 bytes,
// so a tuple's field array, a Matcher and a store entry are small enough to
// compare in place. Bytes are held as a string: the payload is immutable
// either way, a string header is one word shorter than a slice's, and the
// two kinds share their comparison.
type Value struct {
	kind Kind
	n    uint64 // KindInt: the int64; KindFloat: its IEEE-754 bits; KindBool: 0 or 1
	s    string // KindString: the string; KindBytes: the bytes
}

// Int returns a Value holding an int64.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a Value holding a float64.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String returns a Value holding a string.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a Value holding a bool.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Bytes returns a Value holding a copy of the given byte slice.
func Bytes(v []byte) Value { return Value{kind: KindBytes, s: string(v)} }

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds one of the supported kinds.
func (v Value) IsValid() bool { return v.kind.valid() }

// AsInt returns the int64 payload.
func (v Value) AsInt() (int64, error) {
	if v.kind != KindInt {
		return 0, ErrKindMismatch
	}
	return int64(v.n), nil
}

// AsFloat returns the float64 payload.
func (v Value) AsFloat() (float64, error) {
	if v.kind != KindFloat {
		return 0, ErrKindMismatch
	}
	return math.Float64frombits(v.n), nil
}

// AsString returns the string payload.
func (v Value) AsString() (string, error) {
	if v.kind != KindString {
		return "", ErrKindMismatch
	}
	return v.s, nil
}

// AsBool returns the bool payload.
func (v Value) AsBool() (bool, error) {
	if v.kind != KindBool {
		return false, ErrKindMismatch
	}
	return v.n != 0, nil
}

// AsBytes returns a copy of the bytes payload.
func (v Value) AsBytes() ([]byte, error) {
	if v.kind != KindBytes {
		return nil, ErrKindMismatch
	}
	return []byte(v.s), nil
}

// MustInt returns the int64 payload or zero if the kind differs.
// It is a convenience for callers that have already validated kinds.
func (v Value) MustInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// MustString returns the string payload or "" if the kind differs.
func (v Value) MustString() string {
	if v.kind != KindString {
		return ""
	}
	return v.s
}

// MustFloat returns the float64 payload or 0 if the kind differs.
func (v Value) MustFloat() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.n)
}

// MustBool returns the bool payload or false if the kind differs.
func (v Value) MustBool() bool { return v.kind == KindBool && v.n != 0 }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool { return v.equal(&o) }

// Compare orders two values of the same kind: -1, 0, or +1. Values of
// different kinds are ordered by kind. Bools order false < true; bytes order
// lexicographically.
func (v Value) Compare(o Value) int { return v.compare(&o) }

// CompareValues is a.Compare(*b) without copying either value: an ordered
// store compares keys where they lie.
func CompareValues(a, b *Value) int { return a.compare(b) }

// equal and compare are Equal and Compare through pointers, the int and
// string cases first: matching compares fields where they lie too.
func (v *Value) equal(o *Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt, KindBool:
		return v.n == o.n
	case KindString, KindBytes:
		return v.s == o.s
	case KindFloat:
		a, b := math.Float64frombits(v.n), math.Float64frombits(o.n)
		return a == b || (a != a && b != b) // NaN equals NaN
	default:
		return false
	}
}

// hashSeed keys the payload hash. Content hashes index one process's
// memory only, so a per-process seed is enough.
var hashSeed = maphash.MakeSeed()

// canonicalNaN is the one bit pattern every NaN hashes as.
const canonicalNaN = 0x7FF8000000000001

// hash folds the value's kind, scalar and payload into h without
// allocating. Values that equal calls equal hash alike: −0 hashes as +0 and
// every NaN as canonicalNaN.
func (v *Value) hash(h uint64) uint64 {
	h = mix(h, uint64(v.kind))
	switch v.kind {
	case KindInt, KindBool:
		return mix(h, v.n)
	case KindFloat:
		n := v.n
		if f := math.Float64frombits(n); f == 0 {
			n = 0
		} else if f != f {
			n = canonicalNaN
		}
		return mix(h, n)
	case KindString, KindBytes:
		return mix(h, maphash.String(hashSeed, v.s))
	default:
		return h
	}
}

// mix folds one word into a running hash; each step is a bijection of h.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func (v *Value) compare(o *Value) int {
	if v.kind != o.kind {
		return cmpOrdered(v.kind, o.kind)
	}
	switch v.kind {
	case KindInt:
		return cmpOrdered(int64(v.n), int64(o.n))
	case KindString, KindBytes:
		return cmpOrdered(v.s, o.s)
	case KindFloat:
		return cmpOrdered(math.Float64frombits(v.n), math.Float64frombits(o.n))
	case KindBool:
		return cmpOrdered(v.n, o.n)
	default:
		return 0
	}
}

func cmpOrdered[T Kind | int64 | uint64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Size returns the approximate encoded size of the value in bytes. It is
// used by the α+β cost model.
func (v Value) Size() int {
	switch v.kind {
	case KindInt, KindFloat:
		return 9 // tag + 8 bytes
	case KindBool:
		return 2
	case KindString, KindBytes:
		return 1 + 4 + len(v.s)
	default:
		return 1
	}
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string { return v.String() }

// String renders the value for logs and error messages.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.s))
	default:
		return "<invalid>"
	}
}

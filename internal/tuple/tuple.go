package tuple

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// ID uniquely identifies a PASO object. The paper assumes every object can
// be inserted at most once, "easily guaranteed, for example, by attaching to
// each object some unique identification signed by its creating process"
// (§4). IDs combine the creating process's identity with a local sequence
// number.
type ID struct {
	// Origin identifies the creating process (machine/process pair).
	Origin uint64
	// Seq is the origin-local sequence number.
	Seq uint64
}

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id.Origin == 0 && id.Seq == 0 }

// String renders the ID as origin:seq.
func (id ID) String() string {
	return strconv.FormatUint(id.Origin, 10) + ":" + strconv.FormatUint(id.Seq, 10)
}

// Less orders IDs lexicographically (origin, seq).
func (id ID) Less(o ID) bool {
	if id.Origin != o.Origin {
		return id.Origin < o.Origin
	}
	return id.Seq < o.Seq
}

// IDGen generates unique IDs for a single origin. It is safe for
// concurrent use.
type IDGen struct {
	origin uint64
	seq    atomic.Uint64
}

// NewIDGen returns a generator stamping IDs with the given origin.
func NewIDGen(origin uint64) *IDGen {
	return &IDGen{origin: origin}
}

// Next returns a fresh unique ID.
func (g *IDGen) Next() ID {
	return ID{Origin: g.origin, Seq: g.seq.Add(1)}
}

// Tuple is a PASO object: an immutable sequence of typed values plus a
// unique identity. The first field conventionally names the tuple (as in
// Linda), but nothing in the memory requires that.
type Tuple struct {
	id     ID
	fields []Value
}

// New constructs a tuple with the given identity and fields. The field
// slice is copied.
func New(id ID, fields ...Value) Tuple {
	cp := make([]Value, len(fields))
	copy(cp, fields)
	return Tuple{id: id, fields: cp}
}

// Make constructs an identity-less tuple (ID is assigned by the memory at
// insert time).
func Make(fields ...Value) Tuple {
	return New(ID{}, fields...)
}

// WithID returns a copy of t carrying the given ID.
func (t Tuple) WithID(id ID) Tuple {
	return Tuple{id: id, fields: t.fields}
}

// ID returns the tuple's unique identity.
func (t Tuple) ID() ID { return t.id }

// Arity returns the number of fields.
func (t Tuple) Arity() int { return len(t.fields) }

// Field returns the i-th field. It panics if i is out of range, mirroring
// slice indexing.
func (t Tuple) Field(i int) Value { return t.fields[i] }

// Fields returns a copy of the field slice.
func (t Tuple) Fields() []Value {
	cp := make([]Value, len(t.fields))
	copy(cp, t.fields)
	return cp
}

// Name returns the first field's string payload if present, else "".
// Linda-style tuples conventionally start with a string name.
func (t Tuple) Name() string {
	if len(t.fields) == 0 || t.fields[0].Kind() != KindString {
		return ""
	}
	return t.fields[0].MustString()
}

// Equal reports whether two tuples have identical fields (identity is not
// compared; two inserts of equal contents are still distinct objects).
func (t Tuple) Equal(o Tuple) bool {
	if len(t.fields) != len(o.fields) {
		return false
	}
	for i := range t.fields {
		if !t.fields[i].equal(&o.fields[i]) {
			return false
		}
	}
	return true
}

// ContentHash hashes the fields (identity excluded) without allocating.
// Tuples that Equal calls equal hash alike, so a hash store keyed on it
// finds every tuple a ground template matches under the template's
// GroundHash.
func (t Tuple) ContentHash() uint64 {
	h := uint64(len(t.fields))
	for i := range t.fields {
		h = t.fields[i].hash(h)
	}
	return h
}

// Size returns the approximate encoded size of the tuple in bytes, the |o|
// of the paper's cost table.
func (t Tuple) Size() int {
	n := 16 + 2 // id + arity
	for _, f := range t.fields {
		n += f.Size()
	}
	return n
}

// String renders the tuple for logs: (id)[f0, f1, ...].
func (t Tuple) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s)[", t.id)
	for i, f := range t.fields {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

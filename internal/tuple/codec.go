package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// Binary codec for tuples and templates. The format is a simple
// length-delimited little-endian encoding; it is the wire format used by
// both the in-process and TCP transports so message sizes are identical in
// simulation and deployment.

// ErrCorrupt is returned when decoding runs off the end of the buffer or
// meets an unknown tag.
var ErrCorrupt = errors.New("tuple: corrupt encoding")

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

type decoder struct {
	buf []byte
	off int
	err error
	// alias makes string and bytes fields reference buf directly instead
	// of copying. Only valid when buf is immutable for the life of the
	// decoded values (see DecodeTupleAlias).
	alias bool
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// str reads a length-prefixed payload: a view of buf in alias mode, a copy
// otherwise.
func (d *decoder) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return ""
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	if d.alias {
		return aliasString(b)
	}
	return string(b)
}

func encodeValue(e *encoder, v *Value) {
	e.u8(uint8(v.kind))
	switch v.kind {
	case KindInt, KindFloat:
		e.u64(v.n)
	case KindString, KindBytes:
		e.str(v.s)
	case KindBool:
		e.u8(uint8(v.n))
	}
}

func decodeValue(d *decoder) Value {
	k := Kind(d.u8())
	switch k {
	case KindInt, KindFloat:
		return Value{kind: k, n: d.u64()}
	case KindString, KindBytes:
		return Value{kind: k, s: d.str()}
	case KindBool:
		return Bool(d.u8() != 0)
	default:
		d.fail()
		return Value{}
	}
}

// EncodeTuple serializes a tuple, identity included.
func EncodeTuple(t Tuple) []byte { return AppendTuple(make([]byte, 0, t.Size()), t) }

// AppendTuple appends t's EncodeTuple bytes to dst. A caller that sizes dst
// from Size() once encodes a tuple inside a larger message with one
// allocation and one copy of every payload byte.
func AppendTuple(dst []byte, t Tuple) []byte {
	e := encoder{buf: dst}
	e.u64(t.id.Origin)
	e.u64(t.id.Seq)
	e.u16(uint16(len(t.fields)))
	for i := range t.fields {
		encodeValue(&e, &t.fields[i])
	}
	return e.buf
}

// aliasString views a byte slice as a string without copying. The caller
// guarantees b is never mutated afterward.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// DecodeTuple deserializes a tuple produced by EncodeTuple. String and bytes
// fields are copied out of b; the tuple keeps no reference to it.
func DecodeTuple(b []byte) (Tuple, error) {
	return decodeTuple(b, false)
}

// DecodeTupleAlias is DecodeTuple with zero-copy fields: every string and
// bytes value is a view of b, so the decode allocates only the field slice
// and a retained tuple pins all of b. The caller must guarantee b is
// immutable for as long as any decoded value is retained — the contract
// holds for transport receive frames (see DESIGN.md, "Delivery buffer
// ownership"), which is what makes socket-to-store delivery copy-free.
func DecodeTupleAlias(b []byte) (Tuple, error) {
	return decodeTuple(b, true)
}

func decodeTuple(b []byte, alias bool) (Tuple, error) {
	d := &decoder{buf: b, alias: alias}
	id := ID{Origin: d.u64(), Seq: d.u64()}
	n := int(d.u16())
	fields := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		fields = append(fields, decodeValue(d))
	}
	if d.err != nil {
		return Tuple{}, fmt.Errorf("decode tuple: %w", d.err)
	}
	return Tuple{id: id, fields: fields}, nil
}

// EncodeTemplate serializes a template.
func EncodeTemplate(tp Template) []byte { return AppendTemplate(make([]byte, 0, tp.Size()), tp) }

// AppendTemplate appends tp's EncodeTemplate bytes to dst, as AppendTuple.
func AppendTemplate(dst []byte, tp Template) []byte {
	e := encoder{buf: dst}
	e.u16(uint16(len(tp.matchers)))
	for i := range tp.matchers {
		m := &tp.matchers[i]
		e.u8(uint8(m.Op))
		e.u8(uint8(m.Kind))
		flags := uint8(0)
		if m.A.IsValid() {
			flags |= 1
		}
		if m.B.IsValid() {
			flags |= 2
		}
		e.u8(flags)
		if m.A.IsValid() {
			encodeValue(&e, &m.A)
		}
		if m.B.IsValid() {
			encodeValue(&e, &m.B)
		}
	}
	return e.buf
}

// DecodeTemplate deserializes a template produced by EncodeTemplate.
func DecodeTemplate(b []byte) (Template, error) {
	return decodeTemplate(b, false)
}

// DecodeTemplateAlias is DecodeTemplate under the zero-copy contract of
// DecodeTupleAlias: matcher operand strings and bytes alias b.
func DecodeTemplateAlias(b []byte) (Template, error) {
	return decodeTemplate(b, true)
}

func decodeTemplate(b []byte, alias bool) (Template, error) {
	d := &decoder{buf: b, alias: alias}
	n := int(d.u16())
	ms := make([]Matcher, 0, n)
	for i := 0; i < n; i++ {
		m := Matcher{Op: MatchOp(d.u8()), Kind: Kind(d.u8())}
		flags := d.u8()
		if flags&1 != 0 {
			m.A = decodeValue(d)
		}
		if flags&2 != 0 {
			m.B = decodeValue(d)
		}
		ms = append(ms, m)
	}
	if d.err != nil {
		return Template{}, fmt.Errorf("decode template: %w", d.err)
	}
	return Template{matchers: ms}, nil
}

package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"paso/internal/tuple"
)

// codecShape is a command's object and the template its reads and
// removes send.
type codecShape struct {
	obj tuple.Tuple
	tpl tuple.Template
}

// codecShapes are the repository benchmark's two command shapes: a small
// (name, int) tuple of mixed-sat and a (name, key, 1 KiB bytes) tuple of
// bulk-range.
func codecShapes() map[string]codecShape {
	return map[string]codecShape{
		"small": {
			tuple.New(tuple.ID{Origin: 1, Seq: 1}, tuple.String("c0"), tuple.Int(42)),
			tuple.NewTemplate(tuple.Eq(tuple.String("c0")), tuple.Any(tuple.KindInt)),
		},
		"1KiB": {
			tuple.New(tuple.ID{Origin: 1, Seq: 1}, tuple.String("c0"), tuple.Int(4242), tuple.Bytes(bytes.Repeat([]byte{7}, 1024))),
			tuple.NewTemplate(tuple.Eq(tuple.String("c0")), tuple.Range(tuple.Int(4239), tuple.Int(4246)), tuple.Any(tuple.KindBytes)),
		},
	}
}

// TestCodecOneAllocation pins the command and response encoders to one
// buffer, sized from Size() before the first byte is written, and checks
// their bytes against the two-copy encoders they replaced.
func TestCodecOneAllocation(t *testing.T) {
	for name, sh := range codecShapes() {
		cmds := map[string]*command{
			"store":  {kind: cmdStore, class: "c0", obj: sh.obj},
			"remove": {kind: cmdRemove, class: "c0", tpl: sh.tpl},
			"swap":   {kind: cmdSwap, class: "c0", tpl: sh.tpl, obj: sh.obj},
		}
		for kind, c := range cmds {
			if n := testing.AllocsPerRun(100, func() { encodeCommand(c) }); n != 1 {
				t.Errorf("%s: encodeCommand(%s) allocates %v times, want 1", name, kind, n)
			}
			b := encodeCommand(c)
			if len(b) != cap(b) {
				t.Errorf("%s: encodeCommand(%s) is %d bytes in a %d-byte buffer", name, kind, len(b), cap(b))
			}
			if want := oldEncodeCommand(c); !bytes.Equal(b, want) {
				t.Errorf("%s: encodeCommand(%s) =\n%x, want\n%x", name, kind, b, want)
			}
		}
		r := &response{ok: true, probes: 3, obj: sh.obj}
		if n := testing.AllocsPerRun(100, func() { encodeResponse(r) }); n != 1 {
			t.Errorf("%s: encodeResponse allocates %v times, want 1", name, n)
		}
		b := encodeResponse(r)
		if len(b) != cap(b) || !bytes.Equal(b[5:], tuple.EncodeTuple(sh.obj)) {
			t.Errorf("%s: encodeResponse = %d bytes in a %d-byte buffer, tuple bytes differ from EncodeTuple", name, len(b), cap(b))
		}
	}
}

// oldEncodeCommand is the two-copy encoder the one-copy one replaced,
// kept as the reference for its bytes.
func oldEncodeCommand(c *command) []byte {
	var body []byte
	switch c.kind {
	case cmdStore:
		body = tuple.EncodeTuple(c.obj)
	case cmdRead, cmdRemove, cmdMark:
		body = tuple.EncodeTemplate(c.tpl)
	case cmdSwap:
		tpl := tuple.EncodeTemplate(c.tpl)
		body = binary.LittleEndian.AppendUint32(nil, uint32(len(tpl)))
		body = append(body, tpl...)
		body = append(body, tuple.EncodeTuple(c.obj)...)
	}
	out := []byte{byte(c.kind)}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(c.class)))
	out = append(out, c.class...)
	return append(out, body...)
}

var encSink []byte // keeps benchmarked encodes alive

func BenchmarkEncodeCommand(b *testing.B) {
	for name, sh := range codecShapes() {
		c := &command{kind: cmdStore, class: "c0", obj: sh.obj}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encSink = encodeCommand(c)
			}
		})
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	for name, sh := range codecShapes() {
		r := &response{ok: true, probes: 1, obj: sh.obj}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				encSink = encodeResponse(r)
			}
		})
	}
}

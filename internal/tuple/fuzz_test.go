package tuple

import (
	"bytes"
	"testing"
)

// FuzzDecodeTuple hammers the tuple decoder with arbitrary bytes: it must
// never panic, and any input it accepts must round-trip stably
// (decode → encode → decode fixpoint), byte for byte and whether the decode
// copies its fields or views the buffer.
func FuzzDecodeTuple(f *testing.F) {
	f.Add(EncodeTuple(Make()))
	f.Add(EncodeTuple(Make(Int(1), String("x"), Bool(true), Float(2.5), Bytes([]byte{9}))))
	f.Add(EncodeTuple(Make(String("c0"), Int(4242), Bytes(bytes.Repeat([]byte{0xAB}, 1024)))))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		tu, err := DecodeTuple(data)
		if err != nil {
			return
		}
		re := EncodeTuple(tu)
		tu2, err := DecodeTuple(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !tu2.Equal(tu) || tu2.ID() != tu.ID() {
			t.Fatalf("round trip not a fixpoint: %v vs %v", tu, tu2)
		}
		if !bytes.Equal(EncodeTuple(tu2), re) {
			t.Fatal("encoding not canonical after one round trip")
		}
		tu3, err := DecodeTupleAlias(re)
		if err != nil || !bytes.Equal(EncodeTuple(tu3), re) {
			t.Fatalf("alias decode does not re-encode to its input (err %v)", err)
		}
	})
}

// FuzzDecodeTemplate does the same for the template decoder, and checks
// that accepted templates behave totally (Matches never panics).
func FuzzDecodeTemplate(f *testing.F) {
	f.Add(EncodeTemplate(NewTemplate()))
	f.Add(EncodeTemplate(NewTemplate(Eq(String("x")), Range(Int(1), Int(9)), Any(KindBool))))
	f.Add(EncodeTemplate(NewTemplate(Eq(String("c0")), Any(KindInt), Ne(Bytes([]byte{0, 0xFF, 'x'})))))
	f.Add([]byte{})
	f.Add([]byte{255, 255, 0, 1})
	probe := Make(String("x"), Int(5), Bool(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := DecodeTemplate(data)
		if err != nil {
			return
		}
		_ = tp.Matches(probe) // must not panic on any accepted template
		re := EncodeTemplate(tp)
		for _, decode := range []func([]byte) (Template, error){DecodeTemplate, DecodeTemplateAlias} {
			tp2, err := decode(re)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !bytes.Equal(EncodeTemplate(tp2), re) {
				t.Fatal("encoding not canonical after one round trip")
			}
		}
	})
}

package tuple

import "testing"

// bulkShape is the repository benchmark's bulk-range tuple and template:
// (name, int key, 1 KiB bytes) against (Eq name, width-8 Range, Any bytes).
func bulkShape() (Tuple, Template) {
	tu := New(ID{Origin: 1, Seq: 1}, String("c0"), Int(4242), Bytes(make([]byte, 1024)))
	tp := NewTemplate(Eq(String("c0")), Range(Int(4239), Int(4246)), Any(KindBytes))
	return tu, tp
}

func BenchmarkTemplateMatch(b *testing.B) {
	tu, tp := bulkShape()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !tp.Matches(tu) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkDecodeTupleAlias(b *testing.B) {
	tu, _ := bulkShape()
	enc := EncodeTuple(tu)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTupleAlias(enc); err != nil {
			b.Fatal(err)
		}
	}
}

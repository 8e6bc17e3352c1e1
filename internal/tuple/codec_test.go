package tuple

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeTupleRoundTrip(t *testing.T) {
	tests := []Tuple{
		Make(),
		Make(Int(1)),
		Make(String("hello"), Int(-5), Float(2.25), Bool(true), Bytes([]byte{0, 255})),
		New(ID{Origin: 9, Seq: 100}, String("id-carrying")),
	}
	for _, tu := range tests {
		b := EncodeTuple(tu)
		got, err := DecodeTuple(b)
		if err != nil {
			t.Fatalf("decode %v: %v", tu, err)
		}
		if !got.Equal(tu) || got.ID() != tu.ID() {
			t.Errorf("round trip: got %v, want %v", got, tu)
		}
	}
}

func TestEncodeDecodeTemplateRoundTrip(t *testing.T) {
	tps := []Template{
		NewTemplate(),
		NewTemplate(Any(KindInt)),
		NewTemplate(Eq(String("x")), Range(Int(1), Int(5)), Prefix("ab"), Ne(Bool(false))),
	}
	for _, tp := range tps {
		b := EncodeTemplate(tp)
		got, err := DecodeTemplate(b)
		if err != nil {
			t.Fatalf("decode %v: %v", tp, err)
		}
		if got.Arity() != tp.Arity() {
			t.Fatalf("arity: got %d want %d", got.Arity(), tp.Arity())
		}
		for i := 0; i < tp.Arity(); i++ {
			a, b := got.Matcher(i), tp.Matcher(i)
			if a.Op != b.Op || a.Kind != b.Kind || !a.A.Equal(b.A) && (a.A.IsValid() || b.A.IsValid()) {
				t.Errorf("matcher %d: got %+v want %+v", i, a, b)
			}
		}
	}
}

// TestCodecGoldenBytes pins the wire form of every kind and every operator
// to bytes recorded before Value's layout changed: stored snapshots and
// frames from older nodes stay readable.
func TestCodecGoldenBytes(t *testing.T) {
	tu := New(ID{Origin: 7, Seq: 9}, String("c0"), Int(-2), Float(math.Copysign(0, -1)),
		Bool(true), Bool(false), Bytes([]byte{0, 0xFF, 'x'}), String(""), Bytes(nil))
	const wantTuple = "0700000000000000090000000000000008000302000000633001feffffffffffffff" +
		"02000000000000008004010400050300000000ff7803000000000500000000"
	if got := hex.EncodeToString(EncodeTuple(tu)); got != wantTuple {
		t.Errorf("EncodeTuple =\n%s, want\n%s", got, wantTuple)
	}
	tp := NewTemplate(Eq(String("c0")), Range(Int(-2), Int(5)), Any(KindBytes), Ne(Bool(true)),
		Prefix("ab"), Eq(Bytes([]byte{1, 2})), Eq(Float(2.5)))
	const wantTemplate = "07000203010302000000633003010301feffffffffffffff0105000000000000000105000604010401" +
		"0403010302000000616202050105020000000102020201020000000000000440"
	if got := hex.EncodeToString(EncodeTemplate(tp)); got != wantTemplate {
		t.Errorf("EncodeTemplate =\n%s, want\n%s", got, wantTemplate)
	}
}

func TestDecodeTupleCorrupt(t *testing.T) {
	good := EncodeTuple(Make(String("x"), Int(1)))
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeTuple(good[:cut]); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
	bad := append([]byte{}, good...)
	bad[16+2] = 99 // corrupt first field kind tag (after id+arity)
	if _, err := DecodeTuple(bad); err == nil {
		t.Error("bad kind tag decoded without error")
	}
}

func TestDecodeTemplateCorrupt(t *testing.T) {
	good := EncodeTemplate(NewTemplate(Eq(String("x"))))
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeTemplate(good[:cut]); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(rt randomTuple) bool {
		b := EncodeTuple(rt.T)
		got, err := DecodeTuple(b)
		return err == nil && got.Equal(rt.T) && got.ID() == rt.T.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTemplateCodecPreservesMatching(t *testing.T) {
	// A decoded MatchTuple template must still match its source tuple.
	f := func(rt randomTuple) bool {
		tp := MatchTuple(rt.T)
		got, err := DecodeTemplate(EncodeTemplate(tp))
		return err == nil && got.Matches(rt.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeTracksSizeEstimate(t *testing.T) {
	// Size() is an estimate used for cost accounting; it should be within a
	// small constant factor of the true encoding.
	tu := Make(String("workload"), Int(42), Bytes(make([]byte, 64)))
	enc := len(EncodeTuple(tu))
	est := tu.Size()
	if est < enc/2 || est > enc*2 {
		t.Errorf("size estimate %d far from encoded size %d", est, enc)
	}
}

// TestBulkShapeAllocs pins what the store and match path may allocate on the
// repository benchmark's bulk-range shape: an alias decode makes the field
// slice and nothing else (the 1 KiB bytes field views the frame), and
// matching allocates nothing.
func TestBulkShapeAllocs(t *testing.T) {
	tu, tp := bulkShape()
	enc := EncodeTuple(tu)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeTupleAlias(enc); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("DecodeTupleAlias allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !tp.Matches(tu) {
			t.Fatal("no match")
		}
	}); n != 0 {
		t.Errorf("Template.Matches allocates %v times, want 0", n)
	}
}

// TestAliasDecodeViewsBuffer: in alias mode string and bytes fields, of
// tuples and of template operands, are views of the input; in copy mode
// neither is. A write to the buffer after decoding tells the two apart.
func TestAliasDecodeViewsBuffer(t *testing.T) {
	tu := Make(String("name"), Bytes([]byte("payload")))
	tp := NewTemplate(Eq(String("name")), Eq(Bytes([]byte("payload"))))
	for _, alias := range []bool{false, true} {
		encT, encP := EncodeTuple(tu), EncodeTemplate(tp)
		gotT, err := decodeTuple(encT, alias)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := decodeTemplate(encP, alias)
		if err != nil {
			t.Fatal(err)
		}
		for i := range encT {
			encT[i] ^= 0xFF
		}
		for i := range encP {
			encP[i] ^= 0xFF
		}
		if same := gotT.Equal(tu); same == alias {
			t.Errorf("alias=%v: decoded tuple unchanged by a write to its buffer: %v", alias, same)
		}
		if same := gotP.Matches(tu); same == alias {
			t.Errorf("alias=%v: decoded template unchanged by a write to its buffer: %v", alias, same)
		}
	}
}

// TestAppendMatchesEncode: AppendTuple and AppendTemplate write exactly
// EncodeTuple's and EncodeTemplate's bytes after whatever dst holds, and
// into dst's own array when it has room.
func TestAppendMatchesEncode(t *testing.T) {
	prefix := []byte{0xCA, 0xFE}
	f := func(rt randomTuple) bool {
		tp := MatchTuple(rt.T)
		dst := append(make([]byte, 0, len(prefix)+rt.T.Size()), prefix...)
		got := AppendTuple(dst, rt.T)
		if &got[0] != &dst[0] || !bytes.Equal(got, append(append([]byte{}, prefix...), EncodeTuple(rt.T)...)) {
			return false
		}
		got = AppendTemplate(prefix, tp)
		return bytes.Equal(got[len(prefix):], EncodeTemplate(tp)) && bytes.Equal(got[:len(prefix)], prefix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

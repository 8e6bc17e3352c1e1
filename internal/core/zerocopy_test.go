package core

import (
	"bytes"
	"testing"
	"unsafe"

	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
	"paso/internal/vsync"
)

// TestDeliverStoreAliasesFrame pins the zero-copy delivery contract end to
// end: a store command applied through the vsync.Handler Deliver path must
// leave the stored tuple's string and bytes fields pointing INTO the
// delivered payload buffer — no copy between the transport receive frame and
// the store. The transport side guarantees the frame is immutable and never
// reused (see transport.Item.Payload); this test guards the engine side,
// failing if anyone reintroduces a copying decode on the apply path.
func TestDeliverStoreAliasesFrame(t *testing.T) {
	s := newServer(Config{StoreKind: storage.KindList}, obs.Nop(),
		func(class.ID) {}, func(transport.NodeID) {})

	blob := bytes.Repeat([]byte{0xAB}, 1024)
	obj := tuple.Make(tuple.String("job"), tuple.String("alias-me-0123456789"), tuple.Bytes(blob))
	payload := encodeCommand(&command{kind: cmdStore, class: "jobs", obj: obj})

	resp, fail := s.Deliver("wg/jobs", 1, payload)
	if fail || resp == nil {
		t.Fatalf("store command rejected (fail=%v)", fail)
	}

	got, ok, _, _ := s.localRead("jobs", tuple.NewTemplate(
		tuple.Eq(tuple.String("job")), tuple.Any(tuple.KindString), tuple.Any(tuple.KindBytes)))
	if !ok {
		t.Fatal("stored tuple not found")
	}
	inFrame := func(sv string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(sv)))
		lo := uintptr(unsafe.Pointer(&payload[0]))
		return p >= lo && p+uintptr(len(sv)) <= lo+uintptr(len(payload))
	}
	for i := 0; i < 2; i++ {
		sv, err := got.Field(i).AsString()
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		if !inFrame(sv) {
			t.Errorf("field %d (%q) was copied: string data does not point into the delivered frame", i, sv)
		}
	}

	// The control: the non-alias decode used everywhere outside the
	// delivery path must still copy.
	c, err := decodeCommand(payload)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := c.obj.Field(1).AsString()
	if err != nil {
		t.Fatal(err)
	}
	if inFrame(sv) {
		t.Error("decodeCommand (copying mode) aliased the input buffer")
	}

	// A bytes field has no accessor that does not copy (AsBytes copies, so
	// callers cannot write through it), so there is no pointer to compare.
	// Break the frame's immutability instead, here only: a stored field that
	// views the frame shows the flipped byte, a copied one does not.
	at := bytes.Index(payload, blob)
	if at < 0 {
		t.Fatal("payload does not hold the bytes field verbatim")
	}
	payload[at+512] ^= 0xFF
	if stored, _ := got.Field(2).AsBytes(); stored[512] != 0xAB^0xFF {
		t.Error("bytes field was copied: the stored tuple does not see a write to the delivered frame")
	}
	if copied, _ := c.obj.Field(2).AsBytes(); !bytes.Equal(copied, blob) {
		t.Error("decodeCommand (copying mode) aliased the input buffer's bytes field")
	}
}

// TestReplyAliasesFrame extends the contract to replies: a remote read's
// result decodes with its string and bytes fields pointing into the reply
// payload — a receive frame, or the slice the member's Deliver returned —
// so the caller's tuple pins that buffer instead of copying out of it.
func TestReplyAliasesFrame(t *testing.T) {
	s := newServer(Config{StoreKind: storage.KindHash}, obs.Nop(),
		func(class.ID) {}, func(transport.NodeID) {})
	blob := bytes.Repeat([]byte{0xCD}, 1024)
	obj := tuple.Make(tuple.String("job"), tuple.String("alias-me-0123456789"), tuple.Bytes(blob))
	if _, fail := s.Deliver("wg/jobs", 1, encodeCommand(&command{kind: cmdStore, class: "jobs", obj: obj})); fail {
		t.Fatal("store command rejected")
	}
	resp, fail := s.Deliver("wg/jobs", 2, encodeCommand(&command{kind: cmdRead, class: "jobs", tpl: tuple.MatchTuple(obj)}))
	if fail {
		t.Fatal("read command found nothing")
	}
	got, ok, _ := decodeResult(vsync.Result{Payload: resp})
	if !ok || !got.Equal(obj) {
		t.Fatalf("decoded reply = %v %v, want %v", got, ok, obj)
	}
	for i := 0; i < 2; i++ {
		sv, _ := got.Field(i).AsString()
		p := uintptr(unsafe.Pointer(unsafe.StringData(sv)))
		lo := uintptr(unsafe.Pointer(&resp[0]))
		if p < lo || p+uintptr(len(sv)) > lo+uintptr(len(resp)) {
			t.Errorf("field %d (%q) was copied: string data does not point into the reply", i, sv)
		}
	}
	at := bytes.Index(resp, blob)
	if at < 0 {
		t.Fatal("reply does not hold the bytes field verbatim")
	}
	resp[at+512] ^= 0xFF
	if b, _ := got.Field(2).AsBytes(); b[512] != 0xCD^0xFF {
		t.Error("bytes field was copied: the decoded tuple does not see a write to the reply")
	}
}

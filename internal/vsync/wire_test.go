package vsync

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"paso/internal/transport"
	"paso/internal/tuple"
)

// sampleWires covers every message type with representative field
// population: varint-width variety, flags, trace headers, infos maps, and
// a coalesced batch.
func sampleWires() map[string]*wire {
	return map[string]*wire{
		"castreq":      {Type: tCastReq, Group: "wg.job/3", ReqID: 300, Origin: 3, Subject: 3, Payload: []byte{0xDE, 0xAD}},
		"joinreq":      {Type: tJoinReq, Group: "g", ReqID: 0x9e3779b97f4a7c15, Origin: 2, Subject: 2},
		"leavereq":     {Type: tLeaveReq, Group: "g", ReqID: 7, Origin: 2, Subject: 2},
		"ordered":      {Type: tOrdered, Group: "g", Seq: 7, Event: evData, ReqID: 300, Origin: 3, Payload: []byte{0xDE, 0xAD}, Trace: 0x80, Span: 1},
		"join-ordered": {Type: tOrdered, Group: "g", Seq: 1, Event: evJoin, Subject: 2, Donor: 1, Payload: idsToWire([]transport.NodeID{1, 2})},
		"ack":          {Type: tAck, Group: "g", Seq: 7, ReqID: 300, Origin: 3, Payload: []byte{0x01}},
		"ack-fail":     {Type: tAck, Group: "g", Seq: 7, ReqID: 300, Origin: 3, Fail: true},
		"reply":        {Type: tReply, ReqID: 300, Size: 2, Payload: []byte{0x01}},
		"state":        {Type: tState, Group: "g", UpTo: 9, Payload: []byte{0x7F}},
		"sync":         {Type: tSync},
		"syncinfo":     {Type: tSyncInfo, Infos: map[string]uint64{"b": 0, "a": 5, "c": 9}},
		// A report as nodes send it: the claim set plus the sender's live set.
		"syncinfo-live": {Type: tSyncInfo, Payload: idsToWire([]transport.NodeID{1, 2, 3}), Infos: map[string]uint64{"g": 5}},
		"resync":        {Type: tResync, Group: "g", Subject: 4},
		"app":           {Type: tApp, Payload: []byte("hello")},
		"restate":       {Type: tRestate, Group: "g"},
		"batch": {Type: tBatch, Batch: []wire{
			{Type: tOrdered, Group: "g", Seq: 8, Event: evData, ReqID: 301, Origin: 3, Payload: []byte{0x0A}},
			{Type: tAck, Group: "g", Seq: 8, ReqID: 301, Origin: 3},
		}},
		// Sub-events carry the decoder's derived fields (Type/Event/Group,
		// Seq = firstSeq+i) so the encode→decode round trip is exact.
		"orderedrun": {Type: tOrderedRun, Group: "g", Seq: 9, Event: evData, Batch: []wire{
			{Type: tOrdered, Group: "g", Seq: 9, Event: evData, ReqID: 300, Origin: 3, Payload: []byte{0xDE, 0xAD}, Trace: 0x80, Span: 1},
			{Type: tOrdered, Group: "g", Seq: 10, Event: evData, ReqID: 301, Origin: 4},
		}},
		// The same run carrying the completion mark for a group of two: only
		// the flags byte differs (0x04 → 0x06), and every event inherits it.
		"orderedrun-marked": {Type: tOrderedRun, Group: "g", Seq: 9, Event: evData, Size: 2, Batch: []wire{
			{Type: tOrdered, Group: "g", Seq: 9, Event: evData, Size: 2, ReqID: 300, Origin: 3, Payload: []byte{0xDE, 0xAD}, Trace: 0x80, Span: 1},
			{Type: tOrdered, Group: "g", Seq: 10, Event: evData, Size: 2, ReqID: 301, Origin: 4},
		}},
	}
}

// decodeWire parses a frame with a throwaway decoder (no interning); the
// node's receive path uses its own wireDecoder instead.
func decodeWire(b []byte) (*wire, error) {
	var d wireDecoder
	return d.decode(b)
}

// normalizeWire maps the encodings' representational freedom onto one
// canonical form so decoded structs can be compared: zero-length byte
// slices, maps, and batches are nil after a round trip.
func normalizeWire(w *wire) {
	if len(w.Payload) == 0 {
		w.Payload = nil
	}
	if len(w.Infos) == 0 {
		w.Infos = nil
	}
	if len(w.Batch) == 0 {
		w.Batch = nil
	}
	for i := range w.Batch {
		normalizeWire(&w.Batch[i])
	}
}

func wiresEqual(t *testing.T, name string, got, want *wire) {
	t.Helper()
	normalizeWire(got)
	normalizeWire(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decoded %+v, want %+v", name, got, want)
	}
}

func TestWireRoundTripAllTypes(t *testing.T) {
	for name, w := range sampleWires() {
		enc := encodeWire(w)
		got, err := decodeWire(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		wiresEqual(t, name, got, w)
	}
}

// TestWireGolden pins the exact on-wire bytes of representative envelopes.
// A failure here means the layout drifted: either revert the encoding
// change or bump wireVersion and regenerate these strings deliberately.
func TestWireGolden(t *testing.T) {
	samples := sampleWires()
	golden := map[string]string{
		"castreq":       "c201000877672e6a6f622f33ac02030003000000000002dead",
		"ordered":       "c204040167ac0203070000000080010102dead",
		"ack-fail":      "c205010167ac02030700000000000000",
		"reply":         "c2060000ac0200000000020000000101",
		"join-ordered":  "c204080167000001020100000000020102",
		"syncinfo":      "c20902000000000000000000000003016105016200016309",
		"syncinfo-live": "c20902000000000000000000000301020301016705",
		"state":         "c207000167000000000000090000017f",
		"batch":         "c20d000204040167ad020308000000000000010a05000167ad02030800000000000000",
		"orderedrun":    "c20e0401670902ac020380010102deadad0204000000",

		"orderedrun-marked": "c20e0601670902ac020380010102deadad0204000000",
	}
	for name, want := range golden {
		got := hex.EncodeToString(encodeWire(samples[name]))
		if got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestSnapshotGolden pins the state-transfer envelope layout the same way.
func TestSnapshotGolden(t *testing.T) {
	snap := &snapshotEnvelope{
		App: []byte{0x01, 0x02, 0x03},
		Delivered: map[uint64][]deliveredEntry{
			2: {{ReqID: 9, Resp: []byte{0xAA}}},
			5: {{ReqID: 1, Fail: true}, {ReqID: 2, Resp: []byte{0xBB, 0xCC}}},
		},
	}
	const want = "030102030202010901aa0005020100010202bbcc00"
	if got := hex.EncodeToString(encodeSnapshot(snap)); got != want {
		t.Errorf("snapshot:\n got %s\nwant %s", got, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, snap := range map[string]*snapshotEnvelope{
		"empty":   {Delivered: map[uint64][]deliveredEntry{}},
		"app":     {App: []byte("state"), Delivered: map[uint64][]deliveredEntry{}},
		"entries": {App: []byte{1}, Delivered: map[uint64][]deliveredEntry{7: {{ReqID: 1, Resp: []byte("r"), Fail: true}, {ReqID: 2}}}},
	} {
		got, err := decodeSnapshot(encodeSnapshot(snap))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.App) == 0 && len(snap.App) == 0 {
			got.App, snap.App = nil, nil
		}
		for origin, entries := range got.Delivered {
			for i := range entries {
				if len(entries[i].Resp) == 0 {
					entries[i].Resp = nil
				}
			}
			got.Delivered[origin] = entries
		}
		if !reflect.DeepEqual(got, snap) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, snap)
		}
	}
}

// TestWireRejectsGobFrames feeds frames produced by the retired gob codec
// to the new decoder: they must fail fast with ErrWireVersion — a gob
// stream can never start with the magic byte — and never panic.
func TestWireRejectsGobFrames(t *testing.T) {
	for name, w := range sampleWires() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatalf("%s: gob encode: %v", name, err)
		}
		_, err := decodeWire(buf.Bytes())
		if !errors.Is(err, ErrWireVersion) {
			t.Errorf("%s: gob bytes decoded with err=%v, want ErrWireVersion", name, err)
		}
	}
}

func TestWireRejectsWrongVersion(t *testing.T) {
	enc := encodeWire(sampleWires()["castreq"])
	enc[0] = wireMagic | (wireVersion + 1) // a future version
	if _, err := decodeWire(enc); !errors.Is(err, ErrWireVersion) {
		t.Errorf("future version decoded with err=%v, want ErrWireVersion", err)
	}
	if _, err := decodeWire(nil); err == nil {
		t.Error("empty frame decoded without error")
	}
}

// TestWireRejectsUnassignedTypes: type 15 is unassigned — a peer that still
// sends the retired claim envelope has its frame rejected, as is any type
// byte past the last assigned one.
func TestWireRejectsUnassignedTypes(t *testing.T) {
	retired, _ := hex.DecodeString("c20f020000000000000000000000010167020007")
	if _, err := decodeWire(retired); err == nil {
		t.Error("type 15 frame decoded cleanly")
	}
	for _, b := range []byte{0, 15, byte(tMaxType) + 1, 0xFF} {
		enc := encodeWire(sampleWires()["sync"])
		enc[1] = b
		if _, err := decodeWire(enc); err == nil {
			t.Errorf("type %d decoded cleanly", b)
		}
	}
}

// TestWireRejectsCorrupt exhaustively truncates valid frames and mutates
// their structure: every malformed input must produce an error, never a
// panic or a huge allocation.
func TestWireRejectsCorrupt(t *testing.T) {
	for name, w := range sampleWires() {
		enc := encodeWire(w)
		for cut := 1; cut < len(enc); cut++ {
			if _, err := decodeWire(enc[:cut]); err == nil {
				t.Errorf("%s: truncation to %d/%d bytes decoded cleanly", name, cut, len(enc))
			}
		}
		if _, err := decodeWire(append(append([]byte{}, enc...), 0x00)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
	enc := encodeWire(sampleWires()["castreq"])
	enc[2] |= 0x80 // reserved flag bit
	if _, err := decodeWire(enc); err == nil {
		t.Error("reserved flag bit accepted")
	}
	// A batch containing a batch is not part of the format.
	nested := append(transport.GetBuf(), frameMagic, byte(tBatch), 0, 1, byte(tBatch), 0, 0)
	if _, err := decodeWire(nested); err == nil {
		t.Error("nested batch accepted")
	}
	// A batch count far beyond the frame must fail without allocating.
	huge := append(transport.GetBuf(), frameMagic, byte(tBatch), 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x07)
	if _, err := decodeWire(huge); err == nil {
		t.Error("absurd batch count accepted")
	}
}

// TestWireDifferentialGob is the migration bridge: for every message type,
// the struct that survives a gob round trip and the struct that survives
// the new codec's round trip are identical, so the binary format preserves
// exactly the semantics the gob wire carried.
func TestWireDifferentialGob(t *testing.T) {
	for name, w := range sampleWires() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatalf("%s: gob encode: %v", name, err)
		}
		var viaGob wire
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatalf("%s: gob decode: %v", name, err)
		}
		viaNew, err := decodeWire(encodeWire(w))
		if err != nil {
			t.Fatalf("%s: codec decode: %v", name, err)
		}
		wiresEqual(t, name, viaNew, &viaGob)
	}
}

// TestWireShrinkVsGob is the tentpole's size criterion: the encoded frame
// for a small-tuple tCastReq must be at least 40% smaller than what the
// gob codec produced for the same envelope.
func TestWireShrinkVsGob(t *testing.T) {
	payload := tuple.EncodeTuple(tuple.Make(tuple.String("job"), tuple.Int(42), tuple.String("queued")))
	w := &wire{Type: tCastReq, Group: "wg.job/3", ReqID: 0x9e3779b97f4a7c15, Origin: 3, Subject: 3, Payload: payload}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatal(err)
	}
	gobLen, newLen := buf.Len(), len(encodeWire(w))
	shrink := 1 - float64(newLen)/float64(gobLen)
	t.Logf("small-tuple tCastReq: gob=%dB codec=%dB shrink=%.0f%%", gobLen, newLen, shrink*100)
	if shrink < 0.40 {
		t.Errorf("frame shrink %.0f%% < 40%% (gob %dB, codec %dB)", shrink*100, gobLen, newLen)
	}
}

// TestWireEncodeAllocs pins the steady-state allocation budget of the
// encode path at ≤ 1 alloc/op (the sync.Pool round trip), and the decode
// path at ≤ 2 (the wire struct; interning and payload access alias the
// frame).
func TestWireEncodeAllocs(t *testing.T) {
	w := sampleWires()["castreq"]
	if allocs := testing.AllocsPerRun(1000, func() {
		transport.PutBuf(encodeWire(w))
	}); allocs > 1 {
		t.Errorf("encode path: %.1f allocs/op, want ≤ 1", allocs)
	}
	enc := encodeWire(w)
	var dec wireDecoder
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := dec.decode(enc); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("decode path: %.1f allocs/op, want ≤ 2", allocs)
	}
}

// TestWireDecoderIntern verifies the group-name intern table: repeated
// frames for the same group share one string, and the table cannot grow
// without bound.
func TestWireDecoderIntern(t *testing.T) {
	var dec wireDecoder
	a, err := dec.decode(encodeWire(&wire{Type: tCastReq, Group: "g1"}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.decode(encodeWire(&wire{Type: tCastReq, Group: "g1"}))
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.Group) != unsafe.StringData(b.Group) {
		t.Error("same group name decoded to distinct string allocations")
	}
	for i := 0; i < internCap+10; i++ {
		if _, err := dec.decode(encodeWire(&wire{Type: tCastReq, Group: fmt.Sprintf("g%04d", i)})); err != nil {
			t.Fatal(err)
		}
	}
	if len(dec.groups) > internCap {
		t.Errorf("intern table grew to %d entries, cap is %d", len(dec.groups), internCap)
	}
}

package vsync

import (
	"reflect"
	"testing"
)

// FuzzWireRoundTrip throws arbitrary bytes at the frame decoder. The
// properties under test: decode never panics on any input, and any frame
// that decodes cleanly survives a re-encode/re-decode cycle unchanged
// (the codec is a bijection on its accepted set). Seeds cover every
// message type via sampleWires.
func FuzzWireRoundTrip(f *testing.F) {
	for _, w := range sampleWires() {
		f.Add(encodeWire(w))
	}
	f.Add([]byte{})
	f.Add([]byte{frameMagic})
	f.Fuzz(func(t *testing.T, b []byte) {
		var dec wireDecoder
		w, err := dec.decode(b)
		if err != nil {
			return // rejected input; only absence of panics is required
		}
		again, err := dec.decode(encodeWire(w))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		normalizeWire(w)
		normalizeWire(again)
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", w, again)
		}
	})
}

// FuzzSnapshotRoundTrip is the same property for the state-transfer
// envelope, which has its own layout inside a tState payload.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(encodeSnapshot(&snapshotEnvelope{}))
	f.Add(encodeSnapshot(&snapshotEnvelope{
		App:       []byte{1, 2, 3},
		Delivered: map[uint64][]deliveredEntry{7: {{ReqID: 1, Resp: []byte{0xAA}, Fail: true}}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		again, err := decodeSnapshot(encodeSnapshot(s))
		if err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
		if len(s.App) == 0 && len(again.App) == 0 {
			s.App, again.App = nil, nil
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip diverged:\n first %+v\nsecond %+v", s, again)
		}
	})
}

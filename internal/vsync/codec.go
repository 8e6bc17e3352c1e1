package vsync

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"paso/internal/transport"
)

// The compact binary wire format (PROTOCOL.md, "Wire format"). Every frame
// the group layer puts on the transport starts with a single magic+version
// byte, followed by one envelope:
//
//	frame    := magic(1) envelope
//	envelope := type(1) flags(1) body
//	type     : an assigned msgType (1-14, 16, 17); any other byte is rejected
//	flags    : bit0 = Fail, bit1 = Infos present,
//	           bits 2-4 = eventKind, bits 5-7 reserved (zero)
//	body (type != tBatch):
//	  group    uvarint len || bytes
//	  reqID    uvarint
//	  origin   uvarint
//	  seq      uvarint
//	  subject  uvarint
//	  donor    uvarint
//	  size     uvarint
//	  upTo     uvarint
//	  trace    uvarint
//	  span     uvarint
//	  payload  uvarint len || bytes
//	  infos    (iff flags bit1) uvarint count, then per entry, names
//	           ascending: uvarint len || name, last uvarint
//	body (type == tBatch):
//	  count    uvarint
//	  count × envelope (no per-message magic; nesting forbidden)
//	body (type == tOrderedRun; flags bits 0-1 carry the completion mark
//	instead of Fail/Infos — 0 for none, else |group| at ordering time):
//	  group    uvarint len || bytes
//	  firstSeq uvarint
//	  count    uvarint
//	  count × event:
//	    reqID   uvarint
//	    origin  uvarint
//	    trace   uvarint
//	    span    uvarint
//	    payload uvarint len || bytes
//
// A tOrderedRun is a contiguous run of ordered data events for one group:
// event i carries sequence firstSeq+i implicitly, and the group name and
// event kind are encoded once for the whole run instead of once per
// envelope (PROTOCOL.md, "Batched ordering"). Runs may ride inside a
// tBatch like any other envelope.
//
// All varints are canonical unsigned LEB128 (encoding/binary.Uvarint), so
// every zero-valued field — and in particular the two trace-header words of
// an untraced message — costs exactly one byte. Payload bytes are embedded
// verbatim: a gcast carrying a tuple embeds internal/tuple's binary codec
// directly, with no second serialization layer around it.

// wireVersion is the current format version, packed into the low nibble of
// the magic byte. Bump it on any layout change; decoders reject frames from
// a different version with ErrWireVersion instead of misparsing them.
const wireVersion = 2

// wireMagic is the high-nibble tag of the magic byte. 0xC places the byte
// outside both ranges a gob stream can start with (a gob segment length is
// ≤ 0x7F as one byte, or ≥ 0xF8 as a multi-byte marker), so frames from the
// old gob codec are rejected, never misparsed.
const wireMagic = 0xC0

// frameMagic is the complete first byte of every frame of this version.
const frameMagic = wireMagic | wireVersion

// Envelope flag bits.
const (
	flagFail   = 1 << 0 // wire.Fail
	flagInfos  = 1 << 1 // wire.Infos present (tSyncInfo)
	eventShift = 2      // bits 2-4 carry the eventKind
	eventMask  = 0x7
	// runMarkMask: a tOrderedRun has no Fail and no Infos, and spends those
	// two bits on the completion mark (wire.Size).
	runMarkMask  = flagFail | flagInfos
	flagReserved = 0xE0 // bits 5-7 must be zero
)

// ErrWireVersion reports a frame whose magic/version byte does not match
// this node's wire format — a peer running a different protocol version (or
// the retired gob codec). The frame is rejected at the transport boundary
// before any field is parsed.
var ErrWireVersion = errors.New("vsync: wire version mismatch")

// errWireCorrupt reports a frame with the right version byte but a body
// that does not parse: truncated fields, a reserved flag bit, a nested
// batch, or trailing garbage.
var errWireCorrupt = errors.New("vsync: corrupt wire frame")

// encodeWire serializes one envelope into a pooled buffer from the
// transport buffer pool. Ownership of the returned slice follows the
// transport.OwnedSender contract: hand it to SendOwned and the transport
// recycles it after the frame is written or dropped; otherwise the buffer
// simply falls to the garbage collector. Steady state the encode path does
// not allocate.
func encodeWire(w *wire) []byte {
	return appendEnvelope(append(transport.GetBuf(), frameMagic), w, false)
}

// encodeWireBatch serializes several staged envelopes as one tBatch frame
// without first copying them into a contiguous []wire — the send workers'
// path for a flushed outbox slice. Buffer ownership follows encodeWire.
func encodeWireBatch(ws []*wire) []byte {
	buf := append(transport.GetBuf(), frameMagic, byte(tBatch), 0)
	buf = binary.AppendUvarint(buf, uint64(len(ws)))
	for _, w := range ws {
		buf = appendEnvelope(buf, w, true)
	}
	return buf
}

// appendEnvelope appends the envelope encoding of w to buf. inner marks a
// batched sub-envelope, which may not itself be a batch.
func appendEnvelope(buf []byte, w *wire, inner bool) []byte {
	flags := byte(w.Event&eventMask) << eventShift
	if w.Fail {
		flags |= flagFail
	}
	if w.Infos != nil {
		flags |= flagInfos
	}
	if w.Type == tOrderedRun {
		flags |= byte(w.Size) & runMarkMask
	}
	buf = append(buf, byte(w.Type), flags)
	if w.Type == tBatch {
		if inner {
			// The node never builds nested batches; reaching here is
			// programmer error, same contract as the old codec's panic.
			panic("vsync: encode nested tBatch")
		}
		buf = binary.AppendUvarint(buf, uint64(len(w.Batch)))
		for i := range w.Batch {
			buf = appendEnvelope(buf, &w.Batch[i], true)
		}
		return buf
	}
	if w.Type == tOrderedRun {
		// Shared header once, then the per-event fields. The sub-wires'
		// own Group/Seq/Type/Event are derived values (set on decode for
		// the member's convenience) and are not encoded.
		buf = binary.AppendUvarint(buf, uint64(len(w.Group)))
		buf = append(buf, w.Group...)
		buf = binary.AppendUvarint(buf, w.Seq)
		buf = binary.AppendUvarint(buf, uint64(len(w.Batch)))
		for i := range w.Batch {
			e := &w.Batch[i]
			buf = binary.AppendUvarint(buf, e.ReqID)
			buf = binary.AppendUvarint(buf, e.Origin)
			buf = binary.AppendUvarint(buf, e.Trace)
			buf = binary.AppendUvarint(buf, e.Span)
			buf = binary.AppendUvarint(buf, uint64(len(e.Payload)))
			buf = append(buf, e.Payload...)
		}
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(len(w.Group)))
	buf = append(buf, w.Group...)
	buf = binary.AppendUvarint(buf, w.ReqID)
	buf = binary.AppendUvarint(buf, w.Origin)
	buf = binary.AppendUvarint(buf, w.Seq)
	buf = binary.AppendUvarint(buf, w.Subject)
	buf = binary.AppendUvarint(buf, w.Donor)
	buf = binary.AppendUvarint(buf, uint64(w.Size))
	buf = binary.AppendUvarint(buf, w.UpTo)
	buf = binary.AppendUvarint(buf, w.Trace)
	buf = binary.AppendUvarint(buf, w.Span)
	buf = binary.AppendUvarint(buf, uint64(len(w.Payload)))
	buf = append(buf, w.Payload...)
	if w.Infos != nil {
		names := make([]string, 0, len(w.Infos))
		for name := range w.Infos {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic encoding
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, name := range names {
			buf = binary.AppendUvarint(buf, uint64(len(name)))
			buf = append(buf, name...)
			buf = binary.AppendUvarint(buf, w.Infos[name])
		}
	}
	return buf
}

// rbuf is a sticky-error reader over a frame buffer. Byte-slice reads alias
// the underlying buffer — decode performs no intermediate copies, so the
// frame buffer must outlive every decoded field that escapes (the receive
// path never recycles frame buffers, precisely so this holds).
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = errWireCorrupt
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *rbuf) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	b := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

// remaining reports how many bytes are left, for sanity-bounding counts.
func (r *rbuf) remaining() int { return len(r.b) - r.off }

// wireDecoder decodes frames for one node. It interns group names so the
// steady-state decode of a message for a known group allocates only the
// wire struct itself; everything else aliases the frame buffer.
type wireDecoder struct {
	groups map[string]string
}

// internCap bounds the group-name intern table; a hostile or pathological
// stream of distinct names resets it rather than growing without bound.
const internCap = 1024

func (d *wireDecoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.groups[string(b)]; ok { // no-alloc map probe
		return s
	}
	if d.groups == nil || len(d.groups) >= internCap {
		d.groups = make(map[string]string, 16)
	}
	s := string(b)
	d.groups[s] = s
	return s
}

// decode parses one frame. The returned wire's byte-slice fields alias b.
// A frame from a different format version fails with ErrWireVersion; any
// other parse failure reports a corrupt frame.
func (d *wireDecoder) decode(b []byte) (*wire, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty frame", errWireCorrupt)
	}
	if b[0] != frameMagic {
		return nil, fmt.Errorf("%w: frame byte 0x%02x, want 0x%02x", ErrWireVersion, b[0], frameMagic)
	}
	r := &rbuf{b: b, off: 1}
	w := &wire{}
	d.decodeEnvelope(r, w, false)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errWireCorrupt, len(b)-r.off)
	}
	return w, nil
}

func (d *wireDecoder) decodeEnvelope(r *rbuf, w *wire, inner bool) {
	w.Type = msgType(r.u8())
	if !w.Type.assigned() {
		r.fail()
		return
	}
	flags := r.u8()
	if flags&flagReserved != 0 {
		r.fail()
		return
	}
	w.Fail = flags&flagFail != 0
	w.Event = eventKind(flags >> eventShift & eventMask)
	if w.Type == tBatch {
		if inner {
			r.fail() // nested batches are not part of the format
			return
		}
		n := r.uvarint()
		// Each envelope is at least 2 bytes; a count beyond that is corrupt
		// and must not drive a huge allocation.
		if r.err != nil || n > uint64(r.remaining()/2) {
			r.fail()
			return
		}
		w.Batch = make([]wire, n)
		for i := range w.Batch {
			d.decodeEnvelope(r, &w.Batch[i], true)
			if r.err != nil {
				return
			}
		}
		return
	}
	if w.Type == tOrderedRun {
		w.Size = int(flags & runMarkMask)
		w.Group = d.intern(r.bytes())
		w.Seq = r.uvarint()
		n := r.uvarint()
		// Each run event is at least 5 bytes (four varints + payload len);
		// a larger count is corrupt and must not drive a huge allocation.
		if r.err != nil || n > uint64(r.remaining()/5) {
			r.fail()
			return
		}
		w.Batch = make([]wire, n)
		for i := range w.Batch {
			e := &w.Batch[i]
			// Derived fields first, so each sub-wire stands alone as a
			// normal tOrdered data event for the member path.
			e.Type = tOrdered
			e.Event = w.Event
			e.Group = w.Group
			e.Seq = w.Seq + uint64(i)
			e.Size = w.Size
			e.ReqID = r.uvarint()
			e.Origin = r.uvarint()
			e.Trace = r.uvarint()
			e.Span = r.uvarint()
			e.Payload = r.bytes()
			if r.err != nil {
				return
			}
		}
		return
	}
	w.Group = d.intern(r.bytes())
	w.ReqID = r.uvarint()
	w.Origin = r.uvarint()
	w.Seq = r.uvarint()
	w.Subject = r.uvarint()
	w.Donor = r.uvarint()
	w.Size = int(r.uvarint())
	w.UpTo = r.uvarint()
	w.Trace = r.uvarint()
	w.Span = r.uvarint()
	w.Payload = r.bytes()
	if flags&flagInfos != 0 {
		n := r.uvarint()
		// Each info entry is at least 2 bytes (empty name, last).
		if r.err != nil || n > uint64(r.remaining()/2) {
			r.fail()
			return
		}
		w.Infos = make(map[string]uint64, n)
		for i := uint64(0); i < n; i++ {
			name := string(r.bytes())
			w.Infos[name] = r.uvarint()
			if r.err != nil {
				return
			}
		}
	}
}

// encodeSnapshot serializes a state-transfer envelope:
//
//	app   uvarint len || bytes
//	count uvarint, then per origin (ascending):
//	      origin uvarint, nentries uvarint, per entry:
//	      reqID uvarint, resp uvarint len || bytes, fail(1)
//
// The result rides as the Payload of a tState frame, so the outer magic
// byte versions this layout too. Snapshots are rare (joins and failover
// resyncs), so the buffer is plainly allocated, not pooled.
func encodeSnapshot(s *snapshotEnvelope) []byte {
	size := 16 + len(s.App)
	for _, entries := range s.Delivered {
		size += 16
		for _, e := range entries {
			size += 16 + len(e.Resp)
		}
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(s.App)))
	buf = append(buf, s.App...)
	origins := make([]uint64, 0, len(s.Delivered))
	for origin := range s.Delivered {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	buf = binary.AppendUvarint(buf, uint64(len(origins)))
	for _, origin := range origins {
		entries := s.Delivered[origin]
		buf = binary.AppendUvarint(buf, origin)
		buf = binary.AppendUvarint(buf, uint64(len(entries)))
		for _, e := range entries {
			buf = binary.AppendUvarint(buf, e.ReqID)
			buf = binary.AppendUvarint(buf, uint64(len(e.Resp)))
			buf = append(buf, e.Resp...)
			fail := byte(0)
			if e.Fail {
				fail = 1
			}
			buf = append(buf, fail)
		}
	}
	return buf
}

// decodeSnapshot parses a state-transfer envelope. Byte fields alias b.
func decodeSnapshot(b []byte) (*snapshotEnvelope, error) {
	r := &rbuf{b: b}
	s := &snapshotEnvelope{App: r.bytes()}
	n := r.uvarint()
	if r.err != nil || n > uint64(r.remaining()/2) {
		return nil, fmt.Errorf("decode snapshot: %w", errWireCorrupt)
	}
	s.Delivered = make(map[uint64][]deliveredEntry, n)
	for i := uint64(0); i < n; i++ {
		origin := r.uvarint()
		ne := r.uvarint()
		if r.err != nil || ne > uint64(r.remaining()/3) {
			return nil, fmt.Errorf("decode snapshot: %w", errWireCorrupt)
		}
		entries := make([]deliveredEntry, 0, ne)
		for j := uint64(0); j < ne; j++ {
			e := deliveredEntry{ReqID: r.uvarint(), Resp: r.bytes(), Fail: r.u8() != 0}
			entries = append(entries, e)
		}
		s.Delivered[origin] = entries
	}
	if r.err != nil || r.off != len(b) {
		return nil, fmt.Errorf("decode snapshot: %w", errWireCorrupt)
	}
	return s, nil
}

package obs

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"sync/atomic"
	"time"
)

// Span is one timed hop of a distributed operation trace. A PASO primitive
// mints a trace ID at entry (the root span, name "op.<kind>"); every layer
// the operation crosses — the client side of a gcast, the coordinator's
// ordering step, each write-group member's delivery — records its own span
// into its machine's SpanStore, linked by Trace and Parent. A collector
// (Assemble) later reunites the spans from every machine into one causal
// timeline and attributes the §3.3 α+β cost to each hop.
type Span struct {
	// Trace identifies the operation; all spans of one operation share it.
	Trace uint64 `json:"trace"`
	// ID is the span's own identity, unique across machines.
	ID uint64 `json:"id"`
	// Parent is the span this one was caused by (0 for the root).
	Parent uint64 `json:"parent,omitempty"`
	// Machine is the node that recorded the span.
	Machine uint64 `json:"machine"`
	// Name labels the hop: "op.insert", "op.read", "op.read&del",
	// "op.swap", "gcast", "order", "deliver", "local-read".
	Name string `json:"name"`
	// Class is the object class, set on op roots.
	Class string `json:"class,omitempty"`
	// Group is the vsync group the hop addressed ("wg/…" or "rg/…").
	Group string `json:"group,omitempty"`
	// Start and End bound the hop's wall-clock interval.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Bytes is the request payload size the hop carried on the wire.
	Bytes int `json:"bytes,omitempty"`
	// RespBytes is the response payload size the hop carried back.
	RespBytes int `json:"resp_bytes,omitempty"`
	// GroupSize is |g| at ordering time (gcast and order spans).
	GroupSize int `json:"group_size,omitempty"`
	// Fail marks a fail response (no match, empty group).
	Fail bool `json:"fail,omitempty"`
	// Note carries annotations: "dup-suppressed" for a delivery answered
	// from the duplicate cache, "retransmit" when re-sent after a
	// membership edge, "local-reply" on a gcast answered from the caller's
	// own machine (Assemble prices no reply message for it).
	Note string `json:"note,omitempty"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// idCounter mints process-unique span and trace IDs. It starts at a random
// 64-bit point so IDs from different OS processes (separate pasod daemons)
// collide with negligible probability, and advances by a large odd stride
// so consecutive IDs differ in high bits too.
var idCounter uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err == nil {
		atomic.StoreUint64(&idCounter, binary.LittleEndian.Uint64(seed[:]))
	}
}

// NextID returns a fresh process-unique ID for a span or trace.
func NextID() uint64 {
	return atomic.AddUint64(&idCounter, 0x9e3779b97f4a7c15)
}

// SpanStore is the ring of completed spans a machine recorded. ByTrace and
// Roots filter a snapshot rather than keep an index: they serve debug
// requests only, over at most the ring's capacity (8,192 spans in pasod).
type SpanStore struct{ Ring[Span] }

// NewSpanStore builds a store holding the last capacity spans (min 1).
func NewSpanStore(capacity int) *SpanStore {
	return &SpanStore{Ring[Span]{cap: max(capacity, 1)}}
}

// Record appends a completed span, stamping End (and Start) when zero.
func (st *SpanStore) Record(s Span) {
	if s.End.IsZero() {
		s.End = time.Now()
	}
	if s.Start.IsZero() {
		s.Start = s.End
	}
	st.Add(s)
}

// ByTrace returns the retained spans of one trace, oldest-first.
func (st *SpanStore) ByTrace(trace uint64) []Span {
	var out []Span
	for _, s := range st.Snapshot() {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// Roots returns up to n most recent root spans (Parent == 0), newest
// first — the per-operation index behind /trace/ops and `pasoctl trace`.
func (st *SpanStore) Roots(n int) []Span {
	all := st.Snapshot()
	out := make([]Span, 0, max(n, 0))
	for i := len(all) - 1; i >= 0 && (n <= 0 || len(out) < n); i-- {
		if all[i].Parent == 0 {
			out = append(out, all[i])
		}
	}
	return out
}

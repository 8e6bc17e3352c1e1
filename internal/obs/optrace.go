package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"paso/internal/cost"
)

// OpTrace is the assembled cross-machine view of one operation: every span
// that shares the trace ID, reunited into a causal tree, with §3.3 cost
// attributed to each gcast hop and gaps (spans that should exist but were
// never collected — crashed members, dropped frames) called out explicitly
// rather than silently missing.
type OpTrace struct {
	// Trace is the operation's trace ID.
	Trace uint64 `json:"trace"`
	// Root is the primitive's entry span; zero-valued if it was lost.
	Root Span `json:"root"`
	// Spans holds all collected spans in causal order (parents before
	// children, siblings by start time).
	Spans []Span `json:"spans"`
	// Gaps lists places where the causal tree is provably incomplete.
	Gaps []Gap `json:"gaps,omitempty"`
	// Hops carries the per-gcast cost attribution.
	Hops []HopCost `json:"hops,omitempty"`
	// Measured sums the per-hop measured msg-cost.
	Measured float64 `json:"measured"`
	// Predicted sums the per-hop Figure-1 approximations.
	Predicted float64 `json:"predicted"`
	// Saved sums the per-hop ordering cost avoided by leased reads.
	Saved float64 `json:"saved,omitempty"`
}

// Gap marks a span (or set of spans) the causal tree expected but the
// collector never received. Expected counts come from the ordering layer's
// own record of |g|, so a member that crashed before recording its deliver
// span shows up as Expected > Got instead of vanishing.
type Gap struct {
	// Parent is the span whose children are incomplete.
	Parent uint64 `json:"parent"`
	// Name is the parent span's name, for human-readable reports.
	Name string `json:"name"`
	// Expected is how many child spans the protocol implies.
	Expected int `json:"expected"`
	// Got is how many were collected.
	Got int `json:"got"`
	// Note explains the most likely cause.
	Note string `json:"note"`
}

// HopCost attributes §3.3 cost to one gcast hop. Measured is rebuilt from
// the spans actually collected — each deliver span contributes its payload
// send plus an empty ack, and the reply, unless the gcast was answered from
// the caller's own machine, contributes its response bytes — so it equals
// the exact §3.3 sum only when no spans are missing and a reply was sent.
type HopCost struct {
	// Span is the gcast client span the hop belongs to.
	Span uint64 `json:"span"`
	// Group is the vsync group addressed.
	Group string `json:"group"`
	// GroupSize is |g| at ordering time.
	GroupSize int `json:"group_size"`
	// Bytes and RespBytes are the request/response payload sizes.
	Bytes     int `json:"bytes"`
	RespBytes int `json:"resp_bytes"`
	// Measured is Σ msg-cost over the collected constituent spans.
	Measured float64 `json:"measured"`
	// Predicted is the Figure-1 approximation |g|(2α + β(|msg|+|resp|));
	// for a lease-read hop it is the 2α + β(|sc|+|r|) direct-exchange cost.
	Predicted float64 `json:"predicted"`
	// Saved, non-zero only for lease-read hops, is the §3.3 cost of the
	// ordered gcast read this hop replaced minus the hop's own cost — the
	// per-read saving the "Leased reads" audit reports.
	Saved float64 `json:"saved,omitempty"`
}

// Assemble reunites the spans of one trace (collected from any number of
// machines, duplicates tolerated) into an OpTrace under the given cost
// model. Spans belonging to other traces are ignored.
func Assemble(trace uint64, spans []Span, model cost.Model) OpTrace {
	byID := make(map[uint64]Span)
	for _, s := range spans {
		if s.Trace == trace {
			byID[s.ID] = s
		}
	}
	t := OpTrace{Trace: trace}
	children := make(map[uint64][]Span)
	var roots []Span
	for _, s := range byID {
		if s.Parent == 0 || byID[s.Parent].ID == 0 && s.Parent != 0 {
			// Root, or orphan whose parent was lost: treat as a tree root
			// so it still renders.
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
		if s.Parent == 0 && (t.Root.ID == 0 || s.Start.Before(t.Root.Start)) {
			t.Root = s
		}
	}
	sortSpans(roots)
	for _, r := range roots {
		appendTree(&t.Spans, r, children)
	}

	// Gap detection and cost attribution walk the collected tree.
	for _, s := range t.Spans {
		switch s.Name {
		case "gcast":
			orders := childrenNamed(children, s.ID, "order")
			if len(orders) == 0 {
				t.Gaps = append(t.Gaps, Gap{
					Parent: s.ID, Name: s.Name, Expected: 1, Got: 0,
					Note: "no order span: coordinator crashed or span dropped",
				})
			}
			hop := HopCost{
				Span: s.ID, Group: s.Group, GroupSize: s.GroupSize,
				Bytes: s.Bytes, RespBytes: s.RespBytes,
				Predicted: model.GcastApprox(s.GroupSize, s.Bytes, s.RespBytes),
			}
			for _, o := range orders {
				for _, d := range childrenNamed(children, o.ID, "deliver") {
					// Each delivery is one payload send plus one empty ack.
					hop.Measured += model.Msg(d.Bytes) + model.Msg(0)
				}
			}
			// One response back to the caller, if it crossed the wire.
			if s.Note != "local-reply" {
				hop.Measured += model.Msg(s.RespBytes)
			}
			t.Hops = append(t.Hops, hop)
			t.Measured += hop.Measured
			t.Predicted += hop.Predicted
		case "lease-read":
			// A leased read is one direct request plus one direct response;
			// there are no deliver children to sum, so Measured rebuilds the
			// same two messages from the recorded sizes. Saved prices the
			// ordered gcast the lease made unnecessary.
			hop := HopCost{
				Span: s.ID, Group: s.Group, GroupSize: s.GroupSize,
				Bytes: s.Bytes, RespBytes: s.RespBytes,
				Measured:  model.Msg(s.Bytes) + model.Msg(s.RespBytes),
				Predicted: model.LeasedRead(s.Bytes, s.RespBytes),
				Saved:     model.LeasedReadSaving(s.GroupSize, s.Bytes, s.RespBytes),
			}
			t.Hops = append(t.Hops, hop)
			t.Measured += hop.Measured
			t.Predicted += hop.Predicted
			t.Saved += hop.Saved
		case "order":
			got := len(childrenNamed(children, s.ID, "deliver"))
			if s.GroupSize > 0 && got < s.GroupSize {
				t.Gaps = append(t.Gaps, Gap{
					Parent: s.ID, Name: s.Name, Expected: s.GroupSize, Got: got,
					Note: "missing deliver spans: member crashed or span dropped",
				})
			}
		}
	}
	return t
}

// Complete reports whether the trace has a root and no gaps.
func (t OpTrace) Complete() bool { return t.Root.ID != 0 && len(t.Gaps) == 0 }

// Render formats the trace as an indented text timeline with offsets
// relative to the root span's start, per-hop bytes, and §3.3 cost columns —
// the body of `pasoctl trace`.
func (t OpTrace) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %016x", t.Trace)
	if t.Root.ID != 0 {
		fmt.Fprintf(&sb, "  %s class=%s dur=%s", t.Root.Name, t.Root.Class, t.Root.Dur().Round(time.Microsecond))
	}
	sb.WriteByte('\n')
	base := t.Root.Start
	if base.IsZero() && len(t.Spans) > 0 {
		base = t.Spans[0].Start
	}
	depth := make(map[uint64]int)
	for _, s := range t.Spans {
		d := 0
		if s.Parent != 0 {
			d = depth[s.Parent] + 1
		}
		depth[s.ID] = d
		fmt.Fprintf(&sb, "%8s  %s%-10s m%d", offsetStr(s.Start, base), strings.Repeat("  ", d), s.Name, s.Machine)
		if s.Group != "" {
			fmt.Fprintf(&sb, " %s", s.Group)
		}
		if s.GroupSize > 0 {
			fmt.Fprintf(&sb, " |g|=%d", s.GroupSize)
		}
		if s.Bytes > 0 || s.RespBytes > 0 {
			fmt.Fprintf(&sb, " bytes=%d/%d", s.Bytes, s.RespBytes)
		}
		if s.Fail {
			sb.WriteString(" FAIL")
		}
		if s.Note != "" {
			fmt.Fprintf(&sb, " [%s]", s.Note)
		}
		fmt.Fprintf(&sb, " (%s)", s.Dur().Round(time.Microsecond))
		sb.WriteByte('\n')
	}
	for _, h := range t.Hops {
		fmt.Fprintf(&sb, "  hop %s |g|=%d bytes=%d/%d: measured=%.0f predicted=%.0f",
			h.Group, h.GroupSize, h.Bytes, h.RespBytes, h.Measured, h.Predicted)
		if h.Saved > 0 {
			fmt.Fprintf(&sb, " saved=%.0f (leased; vs ordered read)", h.Saved)
		} else {
			sb.WriteString(" (Fig.1 |g|(2α+β(|m|+|r|)))")
		}
		sb.WriteByte('\n')
	}
	for _, g := range t.Gaps {
		fmt.Fprintf(&sb, "  GAP under %s %016x: expected %d, got %d — %s\n",
			g.Name, g.Parent, g.Expected, g.Got, g.Note)
	}
	if len(t.Hops) > 0 {
		fmt.Fprintf(&sb, "  total: measured=%.0f predicted=%.0f", t.Measured, t.Predicted)
		if t.Saved > 0 {
			fmt.Fprintf(&sb, " saved=%.0f", t.Saved)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func offsetStr(s, base time.Time) string {
	if base.IsZero() || s.IsZero() {
		return "?"
	}
	return fmt.Sprintf("+%s", s.Sub(base).Round(time.Microsecond))
}

func childrenNamed(children map[uint64][]Span, parent uint64, name string) []Span {
	var out []Span
	for _, c := range children[parent] {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

func appendTree(out *[]Span, s Span, children map[uint64][]Span) {
	*out = append(*out, s)
	kids := children[s.ID]
	sortSpans(kids)
	for _, k := range kids {
		appendTree(out, k, children)
	}
}

func sortSpans(ss []Span) {
	sort.Slice(ss, func(i, j int) bool {
		if !ss[i].Start.Equal(ss[j].Start) {
			return ss[i].Start.Before(ss[j].Start)
		}
		return ss[i].ID < ss[j].ID
	})
}

package core

import (
	"fmt"
	"sort"
	"sync"

	"paso/internal/obs"
	"paso/internal/stats"
)

// OpKind labels PASO operations for cost accounting (Figure 1's rows).
type OpKind int

// Operation kinds.
const (
	// OpInsert is insert(o).
	OpInsert OpKind = iota + 1
	// OpReadLocal is a read(sc) served from the local replica (M ∈ wg(C)).
	OpReadLocal
	// OpReadRemote is a read(sc) served by gcast (M ∉ wg(C)).
	OpReadRemote
	// OpReadLeased is a read(sc) served by the epoch-fenced leased fast
	// path (M ∉ wg(C), no sequencer involved; PROTOCOL.md "Leased reads").
	OpReadLeased
	// OpReadDel is read&del(sc).
	OpReadDel
	// OpJoin is a g-join triggered by the adaptive policy or recovery.
	OpJoin
	// OpLeave is a policy-triggered g-leave.
	OpLeave
	// OpSwap is the atomic swap extension (one ordered remove+insert).
	OpSwap
)

// allOpKinds lists every operation kind in Figure 1 row order.
var allOpKinds = []OpKind{OpInsert, OpReadLocal, OpReadRemote, OpReadLeased, OpReadDel, OpJoin, OpLeave, OpSwap}

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpReadLocal:
		return "read-local"
	case OpReadRemote:
		return "read-remote"
	case OpReadLeased:
		return "read-leased"
	case OpReadDel:
		return "read&del"
	case OpJoin:
		return "g-join"
	case OpLeave:
		return "g-leave"
	case OpSwap:
		return "swap"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// OpStats aggregates the paper's three cost measures for one operation
// kind on one machine.
type OpStats struct {
	Count   int
	MsgCost float64 // Figure 1 msg-cost under the α+β model
	Work    float64 // summed server work (probe units × replicas)
	Time    float64 // critical-path units (one server's probes + transit)
	Fails   int
}

// add merges a single operation's costs.
func (s *OpStats) add(msg, work, tm float64, fail bool) {
	s.Count++
	s.MsgCost += msg
	s.Work += work
	s.Time += tm
	if fail {
		s.Fails++
	}
}

// opMeter is a concurrency-safe per-kind aggregator.
type opMeter struct {
	mu sync.Mutex
	m  map[OpKind]*OpStats
}

func newOpMeter() *opMeter {
	return &opMeter{m: make(map[OpKind]*OpStats)}
}

func (o *opMeter) add(kind OpKind, msg, work, tm float64, fail bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s, ok := o.m[kind]
	if !ok {
		s = &OpStats{}
		o.m[kind] = s
	}
	s.add(msg, work, tm, fail)
}

// snapshot returns a copy of the aggregates.
func (o *opMeter) snapshot() map[OpKind]OpStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[OpKind]OpStats, len(o.m))
	for k, v := range o.m {
		out[k] = *v
	}
	return out
}

// OpReport is one row of a machine's live per-op report: the Figure 1
// cost aggregates plus wall-clock latency (seconds) from the machine's
// per-kind histogram. LatCount is the histogram's population — zero means
// the latency columns are meaningless and render as "—".
type OpReport struct {
	Kind OpKind
	OpStats
	LatCount uint64
	LatMean  float64
	LatP50   float64
	LatP90   float64
	LatP99   float64
}

// latMs renders one latency quantile column: milliseconds, or "—" when the
// histogram recorded nothing (a 0.00 would read as a real measurement).
func latMs(count uint64, seconds float64) string {
	if count == 0 {
		return "—"
	}
	return stats.F(seconds * 1e3)
}

// RenderReport formats reports as the Figure-1-style per-op table: one row
// per operation kind with counts, the three model cost measures, and the
// observed latency quantiles in milliseconds. Rows are sorted by kind so
// repeated invocations render identically.
func RenderReport(rs []OpReport) string {
	rs = append([]OpReport(nil), rs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Kind < rs[j].Kind })
	tb := stats.NewTable("stats", "per-op costs (Figure 1 measures + live latency)",
		"op", "count", "fail", "msg-cost", "work", "time", "p50ms", "p90ms", "p99ms")
	for _, r := range rs {
		tb.AddRow(r.Kind.String(), stats.D(r.Count), stats.D(r.Fails),
			stats.F(r.MsgCost), stats.F(r.Work), stats.F(r.Time),
			latMs(r.LatCount, r.LatP50), latMs(r.LatCount, r.LatP90), latMs(r.LatCount, r.LatP99))
	}
	if len(rs) == 0 {
		tb.AddNote("no operations recorded yet")
	}
	return tb.Render()
}

// RenderStages formats the per-stage latency histograms (obs.Stage*) as a
// table in pipeline order: one row per stage with the population and the
// latency quantiles in milliseconds. Stages that recorded nothing render
// "—" columns; hists is keyed by stage histogram name as produced by
// obs.Registry.Snapshot.
func RenderStages(hists map[string]obs.HistSnapshot) string {
	tb := stats.NewTable("stages", "per-stage latency (pipeline order)",
		"stage", "count", "p50ms", "p90ms", "p99ms", "p999ms")
	for _, name := range obs.StageOrderNames {
		h := hists[name]
		tb.AddRow(obs.StageShort(name), stats.D(int(h.Count)),
			latMs(h.Count, h.P50), latMs(h.Count, h.P90),
			latMs(h.Count, h.P99), latMs(h.Count, h.P999))
	}
	return tb.Render()
}

// ReportMetrics flattens reports into scrape-time metrics for an
// obs.Collector, one name per (kind, measure):
// core.op.<kind>.{count,fails,msg_cost,work,time}, each declared in reg as
// a family labeled by kind.
func ReportMetrics(reg *obs.Registry, rs []OpReport) map[string]float64 {
	out := make(map[string]float64, len(rs)*5)
	for _, r := range rs {
		kind := r.Kind.String()
		out[reg.Series("core.op.{kind}.count", kind)] = float64(r.Count)
		out[reg.Series("core.op.{kind}.fails", kind)] = float64(r.Fails)
		out[reg.Series("core.op.{kind}.msg_cost", kind)] = r.MsgCost
		out[reg.Series("core.op.{kind}.work", kind)] = r.Work
		out[reg.Series("core.op.{kind}.time", kind)] = r.Time
	}
	return out
}

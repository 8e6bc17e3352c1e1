package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/stats"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// This file is the machine side of the leased-read fast path (PROTOCOL.md,
// "Leased reads"): target selection over the placement assignment or the
// pinned supports, the fast-path leg of Read with its fallback contract,
// and the per-class leased/fallback accounting plus the §3.3 audit of the
// ordering cost each leased read saved.

// leaseTimeout bounds how long a leased read waits for its reply before
// falling back to the ordered path (a crashed target the failure detector
// has not yet noticed).
const leaseTimeout = 200 * time.Millisecond

// leaseState is a machine's leased-read bookkeeping. The candidate cache
// is keyed by the node's view epoch: any membership edge invalidates it
// wholesale, so targets are always drawn from the current live view.
type leaseState struct {
	mu    sync.Mutex
	epoch uint64
	cands map[class.ID][]transport.NodeID
	rr    map[class.ID]uint32

	fallback int64
	// savedCost accumulates Model.LeasedReadSaving over every leased
	// read: the §3.3 msg-cost of the ordered gcasts that never happened.
	savedCost float64

	// The per-class core.read.{leased,fallback}.{class} counters, resolved
	// on a class's first outcome.
	cLeased   map[class.ID]*obs.Counter
	cFallback map[class.ID]*obs.Counter
}

// leaseTarget picks the serving member for one leased read: the class's
// visible write-group members under the current live view, round-robin so
// the read load spreads instead of hammering one replica. ok=false means
// no target is derivable (no placement and no pinned support, or no other
// member is live) and the read must take the ordered path.
func (m *Machine) leaseTarget(cls class.ID) (transport.NodeID, bool) {
	live, epoch := m.node.LiveView()
	if len(live) == 0 {
		return 0, false
	}
	ls := &m.lease
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.epoch != epoch || ls.cands == nil {
		ls.epoch = epoch
		ls.cands = make(map[class.ID][]transport.NodeID)
	}
	cands, ok := ls.cands[cls]
	if !ok {
		cands = m.leaseCandidates(cls, live)
		ls.cands[cls] = cands
	}
	if len(cands) == 0 {
		return 0, false
	}
	i := ls.rr[cls]
	ls.rr[cls] = i + 1
	return cands[int(i)%len(cands)], true
}

// leaseCandidates derives the live wg(C) members a non-member can see:
// the pinned Support list when one is configured (the chaos harness), the
// placement assignment otherwise (sharded mode). Both are the same
// membership source the cluster used to co-locate the class's replicas,
// filtered to the current live view with this machine excluded.
func (m *Machine) leaseCandidates(cls class.ID, live []transport.NodeID) []transport.NodeID {
	var base []transport.NodeID
	switch {
	case m.cfg.Support != nil:
		base = m.cfg.Support[cls]
	case m.pol != nil:
		base = m.pol.Assign(live).Members[cls]
	default:
		return nil
	}
	alive := make(map[transport.NodeID]bool, len(live))
	for _, id := range live {
		alive[id] = true
	}
	out := make([]transport.NodeID, 0, len(base))
	for _, id := range base {
		if id != m.id && alive[id] {
			out = append(out, id)
		}
	}
	return out
}

// leasedRead runs the fast-path leg of Read for one class: pick a target,
// send the epoch-fenced direct read, and account the outcome. served=false
// means the leg must be retried on the ordered gcast path — no target was
// derivable, the lease was fenced by a view change, or the reply timed
// out. The fallback is always safe: a leased read writes nothing anywhere.
func (m *Machine) leasedRead(cls class.ID, payload []byte, legStart time.Time, trace uint64) (t tuple.Tuple, ok, served bool) {
	target, haveTarget := m.leaseTarget(cls)
	if !haveTarget {
		m.leaseFallback(cls)
		return tuple.Tuple{}, false, false
	}
	res, err := m.node.LeaseRead(m.groupsOf(cls).wg, target, payload, leaseTimeout)
	if err != nil {
		m.leaseFallback(cls)
		return tuple.Tuple{}, false, false
	}
	r, derr := decodeResponse(res.Payload)
	if derr != nil {
		m.leaseFallback(cls)
		return tuple.Tuple{}, false, false
	}
	probes := int(r.probes)
	// Figure 1 measures for the leased row: msg-cost 2α+β(|sc|+|r|) (one
	// request, one response, no ordering round), work one server's probes,
	// time the probes plus one transit.
	m.record(OpReadLeased, legStart,
		m.cfg.Model.LeasedRead(len(payload), len(res.Payload)),
		float64(probes), float64(probes)+1, !r.ok)
	m.leaseServed(cls, m.cfg.Model.LeasedReadSaving(res.GroupSize, len(payload), len(res.Payload)))
	if trace != 0 {
		m.o.Spans().Record(obs.Span{
			Trace: trace, ID: obs.NextID(), Parent: trace,
			Machine: uint64(m.id), Name: "lease-read", Group: m.groupsOf(cls).wg,
			Start: legStart, Bytes: len(payload), RespBytes: len(res.Payload),
			GroupSize: res.GroupSize, Fail: !r.ok,
			Note: fmt.Sprintf("seq=%d epoch=%016x", res.Seq, res.Epoch),
		})
	}
	m.policyRead(cls, false, res.GroupSize)
	return r.obj, r.ok, true
}

// leaseServed accounts one fast-path read: the per-class counter and the
// §3.3 saving audit (the OpReadLeased row counts it in total).
func (m *Machine) leaseServed(cls class.ID, saved float64) {
	ls := &m.lease
	ls.mu.Lock()
	ls.savedCost += saved
	c, ok := ls.cLeased[cls]
	if !ok {
		c = m.o.Counter(m.o.Series("core.read.leased.{class}", string(cls)))
		ls.cLeased[cls] = c
	}
	ls.mu.Unlock()
	c.Inc()
}

// leaseFallback accounts one read that had to fall back to the ordered
// path (no target, fence, or timeout).
func (m *Machine) leaseFallback(cls class.ID) {
	ls := &m.lease
	ls.mu.Lock()
	ls.fallback++
	c, ok := ls.cFallback[cls]
	if !ok {
		c = m.o.Counter(m.o.Series("core.read.fallback.{class}", string(cls)))
		ls.cFallback[cls] = c
	}
	ls.mu.Unlock()
	c.Inc()
}

// LeaseStats reports the machine's leased-read outcomes: reads served on
// the fast path (its OpReadLeased row), reads that fell back to the ordered
// path, and the accumulated §3.3 msg-cost the served ones saved over the
// gcasts they replaced.
func (m *Machine) LeaseStats() (leased, fallback int64, savedCost float64) {
	leased = int64(m.ops.snapshot()[OpReadLeased].Count)
	ls := &m.lease
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return leased, ls.fallback, ls.savedCost
}

// RenderLeaseReport formats the machine's per-class leased/fallback table
// with the share of non-member reads the fast path served and the §3.3
// saving audit — the body of `pasoctl stats` when leases are enabled. The
// rows read the core.read.{leased,fallback}.{class} counters, which are
// this machine's own when it has an Obs to itself (cmd/pasod).
func (m *Machine) RenderLeaseReport() string {
	leased, _, saved := m.LeaseStats()
	ls := &m.lease
	ls.mu.Lock()
	rows := make(map[class.ID][2]int64, len(ls.cLeased)+len(ls.cFallback))
	for cls, c := range ls.cLeased {
		r := rows[cls]
		r[0] = c.Value()
		rows[cls] = r
	}
	for cls, c := range ls.cFallback {
		r := rows[cls]
		r[1] = c.Value()
		rows[cls] = r
	}
	ls.mu.Unlock()
	classes := make([]class.ID, 0, len(rows))
	for cls := range rows {
		classes = append(classes, cls)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	tb := stats.NewTable("leases", "leased reads per class (fast path vs ordered fallback)",
		"class", "leased", "fallback", "leased%")
	for _, cls := range classes {
		r := rows[cls]
		pct := "—"
		if total := r[0] + r[1]; total > 0 {
			pct = fmt.Sprintf("%.1f", 100*float64(r[0])/float64(total))
		}
		tb.AddRow(string(cls), stats.D(int(r[0])), stats.D(int(r[1])), pct)
	}
	if len(classes) == 0 {
		tb.AddNote("no leased reads attempted yet")
	} else {
		tb.AddNote("saved msg-cost=%.0f (%.1f per leased read, §3.3 audit)",
			saved, saved/float64(max(leased, 1)))
	}
	return strings.TrimRight(tb.Render(), "\n") + "\n"
}

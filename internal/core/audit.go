package core

import (
	"paso/internal/class"
	"paso/internal/opt"
)

// auditWindow caps the per-class event log backing the live
// competitive-ratio audit. When full, the window resets and accounting
// restarts, so the gauge reflects recent behavior; the reset forgets any
// join the machine paid before it, which the theorem's additive slack (one
// K) absorbs.
const auditWindow = 8192

// ratioAuditor is the live §5.1 competitive-ratio audit for one
// (machine, class) pair with the machine outside B(C). The hot-path hooks
// (policyRead, onUpdate) charge the online policy the model cost of what
// actually happened — member read 1, non-member read q·r, member update 1,
// join K at decision time, leave free — and append the same event to a
// replay log. At scrape time the log is run through opt.Optimal, and the
// gauge reports online/OPT with the theorem's additive slack subtracted,
// so tests and operators can watch the Theorem 2/3 bounds (3+λ/K, 6+2λ/K)
// hold on the running system. Callers hold polMu.
type ratioAuditor struct {
	events        []opt.Event
	online        float64
	joins, leaves int
	maxK          int
	costAware     bool
	resets        int
}

// read charges one read observed at this machine. joined marks a Join
// decision triggered by this read (charged K immediately, as opt.Run does).
func (a *ratioAuditor) read(member bool, rgSize, joinCost int, joined bool) {
	e := opt.Event{Kind: opt.Read, RgSize: rgSize, JoinCost: joinCost, QCost: 1}.Normalized()
	if member {
		a.online += e.CostIn()
	} else {
		a.online += e.CostOut()
		if joined {
			a.online += float64(e.JoinCost)
			a.joins++
		}
	}
	a.push(e)
}

// update charges one member update (cost 1; leaving is free).
func (a *ratioAuditor) update(joinCost int, left bool) {
	e := opt.Event{Kind: opt.Update, RgSize: 1, JoinCost: joinCost, QCost: 1}.Normalized()
	a.online += e.CostIn()
	if left {
		a.leaves++
	}
	a.push(e)
}

func (a *ratioAuditor) push(e opt.Event) {
	if e.JoinCost > a.maxK {
		a.maxK = e.JoinCost
	}
	if len(a.events) >= auditWindow {
		a.events = a.events[:0]
		a.online = 0
		a.joins, a.leaves = 0, 0
		a.resets++
	}
	a.events = append(a.events, e)
}

// ratio replays the event log through the exact offline optimum and
// returns (online − slack)/OPT along with OPT's cost. The slack is 2·K
// for threshold policies (Theorem 2's additive constant) and 4·K for
// cost-aware doubling/halving ones (Theorem 3 tracks a working K that can
// lag the real one by 2×). ok is false while no events have been
// observed. While online ≤ slack the reported ratio clamps to 0: the
// sequence is still inside the additive constant the theorems grant for
// free, so no bound can be violated yet.
func (a *ratioAuditor) ratio() (r, optCost float64, ok bool) {
	if len(a.events) == 0 {
		return 0, 0, false
	}
	sched := opt.Optimal(a.events)
	slack := float64(2 * a.maxK)
	if a.costAware {
		slack = float64(4 * a.maxK)
	}
	return opt.Ratio(a.online, sched.Cost, slack), sched.Cost, true
}

// auditFor returns (creating lazily) the class's auditor; callers hold
// polMu. Classes this machine basically supports are not audited — the
// §5.1 game is defined for M ∉ B(C), and a basic machine never leaves.
func (m *Machine) auditFor(cls class.ID, costAware bool) *ratioAuditor {
	a, ok := m.audits[cls]
	if !ok {
		a = &ratioAuditor{costAware: costAware}
		m.audits[cls] = a
	}
	return a
}

// collectAudit is the scrape-time collector behind the per-class
// adaptive.ratio gauges (surfaced under "derived" in /metrics JSON and as
// Prometheus gauges in the text format).
func (m *Machine) collectAudit() map[string]float64 {
	m.polMu.Lock()
	defer m.polMu.Unlock()
	out := make(map[string]float64)
	for cls, a := range m.audits {
		r, optCost, ok := a.ratio()
		if !ok {
			continue
		}
		c := string(cls)
		out[m.o.Series("adaptive.ratio.{class}", c)] = r
		out[m.o.Series("adaptive.online.{class}", c)] = a.online
		out[m.o.Series("adaptive.opt.{class}", c)] = optCost
		out[m.o.Series("adaptive.audit.events.{class}", c)] = float64(len(a.events))
		out[m.o.Series("adaptive.audit.joins.{class}", c)] = float64(a.joins)
	}
	return out
}

// AuditRatio reports the class's live competitive ratio against the
// offline optimum ((online − slack)/OPT; see ratioAuditor). ok is false
// when the class has no audit yet (no events, or this machine basically
// supports it).
func (m *Machine) AuditRatio(cls class.ID) (r float64, ok bool) {
	m.polMu.Lock()
	defer m.polMu.Unlock()
	a, exists := m.audits[cls]
	if !exists {
		return 0, false
	}
	r, _, ok = a.ratio()
	return r, ok
}

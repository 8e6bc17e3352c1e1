package faults

import (
	"fmt"
	"sync"

	"paso/internal/obs"
	"paso/internal/simnet"
	"paso/internal/transport"
)

// LinkRule subjects matching directed links to probabilistic noise. A zero
// NodeID in From or To is a wildcard. The first rule (in SetRules order)
// matching a frame's link decides its fate; within a rule the categories
// are mutually exclusive with precedence drop > duplicate > delay, each
// drawn from its own salted decision stream so enabling one category never
// shifts another's sequence.
type LinkRule struct {
	From, To transport.NodeID // 0 matches any node

	DropP  float64 // P(frame dropped)      — FAULTS.md §2.1
	DupP   float64 // P(frame duplicated)   — FAULTS.md §2.2
	DelayP float64 // P(frame held)         — FAULTS.md §2.3

	// DelayFrames is how many further bus traversals a held frame waits
	// out before delivery (minimum 1 when DelayP fires).
	DelayFrames int
}

func (r LinkRule) matches(from, to transport.NodeID) bool {
	return (r.From == 0 || r.From == from) && (r.To == 0 || r.To == to)
}

// String renders the rule for schedule listings.
func (r LinkRule) String() string {
	side := func(id transport.NodeID) string {
		if id == 0 {
			return "*"
		}
		return fmt.Sprintf("%d", id)
	}
	s := fmt.Sprintf("%s->%s", side(r.From), side(r.To))
	if r.DropP > 0 {
		s += fmt.Sprintf(" drop=%.2f", r.DropP)
	}
	if r.DupP > 0 {
		s += fmt.Sprintf(" dup=%.2f", r.DupP)
	}
	if r.DelayP > 0 {
		s += fmt.Sprintf(" delay=%.2f/%df", r.DelayP, r.DelayFrames)
	}
	return s
}

// link identifies a directed link for frame counters.
type link struct{ from, to transport.NodeID }

// FaultEvent records one fault that actually fired during execution.
type FaultEvent struct {
	Kind     Kind
	From, To transport.NodeID
	// Index is the frame's position in its link's full frame sequence
	// (the coordinate the decision is a pure function of).
	Index  uint64
	Detail string
}

// String renders the event as one log line.
func (e FaultEvent) String() string {
	s := fmt.Sprintf("%s %d->%d #%d", e.Kind, e.From, e.To, e.Index)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// Salts separating the per-category decision streams (FAULTS.md §5).
const (
	saltDrop uint64 = 0xd509
	saltDup  uint64 = 0xd5b1
	saltDel  uint64 = 0xde1a
)

// Plan is the seeded link-noise injector for simnet (FAULTS.md §2.1–2.3).
// Install it with simnet.Net.SetInjector; its Frame method is then called
// under the bus lock for every non-loopback frame.
//
// Determinism contract (§5): the fate of the i-th frame on a directed link
// is mix(seed, from, to, i, category) thresholded against the first
// matching rule — a pure function, independent of goroutine interleaving
// and of when rules were installed. The executed Events log records which
// decisions actually fired; around crash and cut races the set of
// consulted indices (not their decisions) may vary run to run, which is
// why the log is not part of cmd/paso-chaos's bit-reproducible surface.
//
// Frame must not block and must not call back into the Net; Plan obeys
// both (it only takes its own mutex and appends to the log).
type Plan struct {
	seed uint64
	o    *obs.Obs

	mu       sync.Mutex
	rules    []LinkRule
	counters map[link]uint64
	events   []FaultEvent
}

var _ simnet.Injector = (*Plan)(nil)

// NewPlan builds a plan with no rules (all frames pass). A nil Obs
// discards the per-fault events it would emit.
func NewPlan(seed uint64, o *obs.Obs) *Plan {
	if o == nil {
		o = obs.Nop()
	}
	return &Plan{seed: seed, o: o, counters: make(map[link]uint64)}
}

// SetRules replaces the active rule set. Frame counters are NOT reset:
// indices address a link's full frame history, so the same frame gets the
// same decision no matter when the rule window opened.
func (p *Plan) SetRules(rules ...LinkRule) {
	cp := append([]LinkRule(nil), rules...)
	p.mu.Lock()
	p.rules = cp
	p.mu.Unlock()
}

// ClearRules removes every rule; subsequent frames pass untouched.
func (p *Plan) ClearRules() { p.SetRules() }

// Frame implements simnet.Injector: count the frame on its link, decide
// its fate from the decision stream, and log the fault if one fired.
func (p *Plan) Frame(from, to transport.NodeID, size int) simnet.Fate {
	p.mu.Lock()
	l := link{from, to}
	idx := p.counters[l]
	p.counters[l] = idx + 1
	fate, kind, detail := p.decide(p.rules, from, to, idx)
	if kind != "" {
		p.events = append(p.events, FaultEvent{Kind: kind, From: from, To: to, Index: idx, Detail: detail})
	}
	p.mu.Unlock()
	if kind != "" {
		p.o.Emit("fault-injected",
			obs.KV("kind", string(kind)), obs.KV("from", from),
			obs.KV("to", to), obs.KV("index", idx))
	}
	return fate
}

// decide computes the pure per-coordinate decision. It reads no Plan state
// besides the seed, so Decisions can replay streams without counters.
func (p *Plan) decide(rules []LinkRule, from, to transport.NodeID, idx uint64) (simnet.Fate, Kind, string) {
	var r *LinkRule
	for i := range rules {
		if rules[i].matches(from, to) {
			r = &rules[i]
			break
		}
	}
	if r == nil {
		return simnet.Fate{}, "", ""
	}
	if r.DropP > 0 && unit(mix(p.seed, uint64(from), uint64(to), idx, saltDrop)) < r.DropP {
		return simnet.Fate{Drop: true}, KindDrop, ""
	}
	if r.DupP > 0 && unit(mix(p.seed, uint64(from), uint64(to), idx, saltDup)) < r.DupP {
		return simnet.Fate{Duplicate: 1}, KindDuplicate, ""
	}
	if r.DelayP > 0 && unit(mix(p.seed, uint64(from), uint64(to), idx, saltDel)) < r.DelayP {
		d := r.DelayFrames
		if d < 1 {
			d = 1
		}
		return simnet.Fate{DelayFrames: d}, KindDelay, fmt.Sprintf("held %d frames", d)
	}
	return simnet.Fate{}, "", ""
}

// Decisions replays the first count decisions of one link's stream under
// the given rules — a pure function of (seed, rules, link), independent of
// any execution. "-" marks a pass. Tests use it to prove same-seed
// equality and cross-seed divergence without running traffic.
func (p *Plan) Decisions(rules []LinkRule, from, to transport.NodeID, count int) []string {
	out := make([]string, 0, count)
	for i := 0; i < count; i++ {
		_, kind, _ := p.decide(rules, from, to, uint64(i))
		if kind == "" {
			out = append(out, "-")
			continue
		}
		out = append(out, string(kind))
	}
	return out
}

// Events returns a copy of the executed fault log in firing order.
func (p *Plan) Events() []FaultEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]FaultEvent(nil), p.events...)
}

// Package placement computes the deterministic per-class coordinator and
// support placement for sharded groups (PROTOCOL.md, "Coordinator placement
// and takeover") — the spreading alternative to vsync.LowestLive.
//
// One global sequencer caps aggregate ordering throughput at one machine's
// capacity; sharding runs the N object classes of §4.1 as N
// independently sequenced vsync groups. This package answers, for any
// observer, "who sequences class C right now?" as a pure function of the
// configured class universe and the observer's live machine set — no
// history, no negotiation, no shared state. Two nodes with equal live sets
// always compute equal assignments, in any arrival order of membership
// events; disagreement exists only while failure detectors disagree, the
// same transient the group layer already tolerates.
//
// The algorithm is capped rendezvous hashing: each class ranks the live
// machines by a stable per-(class, machine) hash (its preference list),
// classes are assigned in a canonical hash order, and each takes its
// most-preferred machine that still holds fewer than ⌈N/m⌉ coordinators.
// The cap bounds skew (no machine ever owns more than ⌈N/m⌉ classes), the
// hashes give stability (a crash moves the dead machine's classes, plus at
// most a bounded cascade when the cap itself changes — see DESIGN.md,
// "Placement policy" for why strict minimality is impossible under a hard
// cap), and processing in canonical order makes the whole map reproducible
// everywhere.
package placement

import (
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"paso/internal/class"
	"paso/internal/transport"
)

// Policy is the deterministic placement for a fixed class universe and
// replication degree λ. It is immutable after construction and safe for
// concurrent use (assignments are memoized behind a mutex).
type Policy struct {
	classes []class.ID // canonical (hash-sorted) assignment order
	inUniv  map[class.ID]bool
	lambda  int

	mu   sync.Mutex
	memo map[string]*Assignment // keyed by live-set fingerprint
}

// memoCap bounds the per-policy assignment cache. Live sets churn slowly
// (one entry per distinct failure-detector view), so a handful suffices;
// past the cap the cache resets rather than growing without bound.
const memoCap = 16

// New builds a placement policy for the given class universe and
// replication degree λ (each class's support has λ+1 machines, clamped to
// the live-set size). The universe must be the classifier's full Classes()
// list: every observer has to agree on N for the cap ⌈N/m⌉ to agree.
func New(classes []class.ID, lambda int) *Policy {
	if lambda < 0 {
		lambda = 0
	}
	p := &Policy{
		classes: append([]class.ID(nil), classes...),
		inUniv:  make(map[class.ID]bool, len(classes)),
		lambda:  lambda,
		memo:    make(map[string]*Assignment),
	}
	for _, c := range p.classes {
		p.inUniv[c] = true
	}
	// Canonical order: by the class key's own hash, ties toward the
	// lexically smaller key. Hash order (rather than lexical) decorrelates
	// assignment order from naming schemes like job0..jobN.
	sort.Slice(p.classes, func(i, j int) bool {
		hi, hj := hash64(string(p.classes[i])), hash64(string(p.classes[j]))
		if hi != hj {
			return hi < hj
		}
		return p.classes[i] < p.classes[j]
	})
	return p
}

// Classes returns the policy's class universe in canonical assignment
// order (a copy).
func (p *Policy) Classes() []class.ID {
	return append([]class.ID(nil), p.classes...)
}

// Assignment is the full placement for one live set: per-class coordinator
// and support membership, plus the balance cap in force.
type Assignment struct {
	// Coord maps each class in the universe to its coordinator.
	Coord map[class.ID]transport.NodeID
	// Members maps each class to its support membership wg(C): the
	// coordinator first, then the next λ live machines in the class's
	// preference order (fewer when the live set is smaller than λ+1).
	Members map[class.ID][]transport.NodeID
	// Cap is the balance bound ⌈N/m⌉ that held for this live set: no
	// machine coordinates more than Cap classes.
	Cap int
}

// Assign computes (or returns the memoized) placement for a live machine
// set. The input is not mutated; order does not matter. An empty live set
// yields an Assignment with empty maps.
func (p *Policy) Assign(live []transport.NodeID) *Assignment {
	ids := sortedIDs(live)
	key := fingerprint(ids)
	p.mu.Lock()
	if a, ok := p.memo[key]; ok {
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	a := p.assign(ids)
	p.mu.Lock()
	if len(p.memo) >= memoCap {
		p.memo = make(map[string]*Assignment)
	}
	p.memo[key] = a
	p.mu.Unlock()
	return a
}

// assign is the uncached placement computation over a sorted live set.
func (p *Policy) assign(live []transport.NodeID) *Assignment {
	a := &Assignment{
		Coord:   make(map[class.ID]transport.NodeID, len(p.classes)),
		Members: make(map[class.ID][]transport.NodeID, len(p.classes)),
	}
	m := len(live)
	if m == 0 {
		return a
	}
	a.Cap = (len(p.classes) + m - 1) / m
	load := make(map[transport.NodeID]int, m)
	pref := make([]transport.NodeID, m)
	for _, cls := range p.classes {
		preferenceList(cls, live, pref)
		chosen := pref[0]
		for _, cand := range pref {
			if load[cand] < a.Cap {
				chosen = cand
				break
			}
		}
		load[chosen]++
		a.Coord[cls] = chosen
		members := make([]transport.NodeID, 0, p.lambda+1)
		members = append(members, chosen)
		for _, cand := range pref {
			if len(members) == p.lambda+1 {
				break
			}
			if cand != chosen {
				members = append(members, cand)
			}
		}
		a.Members[cls] = members
	}
	return a
}

// GroupCoord resolves a raw vsync group name to its coordinator under a
// live set. Group names of the engine's "wg/<class>"/"rg/<class>" form
// with a class inside the universe take the placed assignment — both
// groups of a class always resolve to the same coordinator. Any other
// group falls back to uncapped rendezvous hashing on the raw name, so the
// group layer stays generic (PROTOCOL.md, "Placement function" rule 4).
// An empty live set yields 0; callers must guard.
func (p *Policy) GroupCoord(group string, live []transport.NodeID) transport.NodeID {
	if cls, ok := ClassOfGroup(group); ok && p.inUniv[cls] {
		return p.Assign(live).Coord[cls]
	}
	return RendezvousOwner(group, live)
}

// CoordFn adapts the policy to the group layer's placement hook
// (vsync.NodeOptions.Coord). The returned function is safe for concurrent
// use by multiple nodes' event loops.
func (p *Policy) CoordFn() func(group string, live []transport.NodeID) transport.NodeID {
	return p.GroupCoord
}

// ClassOfGroup strips the engine's write/read group prefix from a vsync
// group name, reporting whether the name had one. "wg/job/2" and
// "rg/job/2" both yield class "job/2".
func ClassOfGroup(group string) (class.ID, bool) {
	if rest, ok := strings.CutPrefix(group, "wg/"); ok {
		return class.ID(rest), true
	}
	if rest, ok := strings.CutPrefix(group, "rg/"); ok {
		return class.ID(rest), true
	}
	return "", false
}

// RendezvousOwner is the uncapped fallback rule: the live machine with the
// highest (name, machine) hash, ties toward the lower ID. It is what
// placed nodes use for groups outside any class universe. An empty live
// set yields 0.
func RendezvousOwner(name string, live []transport.NodeID) transport.NodeID {
	var best transport.NodeID
	var bestScore uint64
	first := true
	for _, id := range live {
		s := score(name, id)
		if first || s > bestScore || (s == bestScore && id < best) {
			best, bestScore, first = id, s, false
		}
	}
	return best
}

// MovedClasses lists the classes whose coordinator differs between two
// assignments, in the policy's canonical order — the exact set of groups a
// membership edge migrates.
func (p *Policy) MovedClasses(before, after *Assignment) []class.ID {
	var out []class.ID
	for _, cls := range p.classes {
		if before.Coord[cls] != after.Coord[cls] {
			out = append(out, cls)
		}
	}
	return out
}

// CoordCounts tallies how many classes each machine coordinates under an
// assignment — the spread that the ⌈N/m⌉ cap bounds.
func CoordCounts(a *Assignment) map[transport.NodeID]int {
	out := make(map[transport.NodeID]int)
	for _, id := range a.Coord {
		out[id]++
	}
	return out
}

// preferenceList fills dst with the live machines sorted by descending
// (class, machine) score, ties toward the lower ID — the class's
// rendezvous preference order.
func preferenceList(cls class.ID, live []transport.NodeID, dst []transport.NodeID) {
	copy(dst, live)
	name := string(cls)
	sort.Slice(dst, func(i, j int) bool {
		si, sj := score(name, dst[i]), score(name, dst[j])
		if si != sj {
			return si > sj
		}
		return dst[i] < dst[j]
	})
}

// score is the stable per-(name, machine) rendezvous hash.
func score(name string, id transport.NodeID) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	var b [8]byte
	v := uint64(id)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// hash64 hashes a bare string (canonical class ordering).
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// sortedIDs returns a sorted copy of a live set.
func sortedIDs(live []transport.NodeID) []transport.NodeID {
	ids := append([]transport.NodeID(nil), live...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// fingerprint keys the memo by the sorted live set.
func fingerprint(sorted []transport.NodeID) string {
	var sb strings.Builder
	sb.Grow(len(sorted) * 3)
	for _, id := range sorted {
		v := uint64(id)
		for v >= 0x80 {
			sb.WriteByte(byte(v) | 0x80)
			v >>= 7
		}
		sb.WriteByte(byte(v))
	}
	return sb.String()
}

package storage

import (
	"paso/internal/tuple"
)

// Hash is a dictionary store: fully ground templates (all fields OpEq) are
// answered with one hash probe (the paper's I(.)=Q(.)=D(.)=O(1) case used to
// normalize costs in §5). Non-ground templates fall back to an oldest-first
// linear scan, preserving correctness for general criteria.
//
// Entries sit on the arrival list and on the chain of their content hash
// (tuple.ContentHash), both in seq order. A ground lookup walks one chain
// and matches each entry against the template, so a hash collision costs a
// probe, never a wrong answer. An insert allocates its entry and nothing
// else; reads and removes allocate nothing.
type Hash struct {
	arrivals
	chains map[uint64]*entry // content hash → oldest entry of its chain
	stats  Stats
}

var _ Store = (*Hash)(nil)

// NewHash returns an empty hash store.
func NewHash() *Hash {
	return &Hash{chains: make(map[uint64]*entry)}
}

// Insert implements Store.
func (s *Hash) Insert(seq uint64, t tuple.Tuple) {
	s.link(&entry{Entry: Entry{Seq: seq, Tuple: t}, hash: t.ContentHash()})
	s.stats.Inserts++
	s.stats.InsertProbes++
}

// link appends e to the arrival list and to the tail of its hash's chain.
func (s *Hash) link(e *entry) {
	s.push(e)
	if head := s.chains[e.hash]; head != nil {
		tail := head.cprev
		tail.cnext, e.cprev, head.cprev = e, tail, e
		return
	}
	e.cprev = e
	s.chains[e.hash] = e
}

// drop takes e off the arrival list and its chain.
func (s *Hash) drop(e *entry) {
	s.unlink(e)
	head := s.chains[e.hash]
	switch {
	case e == head && e.cnext == nil:
		delete(s.chains, e.hash)
	case e == head:
		e.cnext.cprev = e.cprev // the new head keeps the tail
		s.chains[e.hash] = e.cnext
	default:
		e.cprev.cnext = e.cnext
		if e.cnext != nil {
			e.cnext.cprev = e.cprev
		} else {
			head.cprev = e.cprev
		}
	}
}

// find returns the oldest entry tp matches and the probes it took: for a
// ground template one for the hash plus one per chain entry passed over,
// else one per entry scanned.
func (s *Hash) find(tp tuple.Template) (*entry, int) {
	h, ground := tp.GroundHash()
	if !ground {
		return s.scan(tp)
	}
	return s.walk(h, tp)
}

// walk returns the oldest entry on h's chain that tp matches.
func (s *Hash) walk(h uint64, tp tuple.Template) (*entry, int) {
	probes := 1
	for e := s.chains[h]; e != nil; e = e.cnext {
		if tp.Matches(e.Tuple) {
			return e, probes
		}
		probes++
	}
	return nil, probes
}

// Read implements Store.
func (s *Hash) Read(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Reads++
	e, probes := s.find(tp)
	s.stats.ReadProbes += probes
	if e == nil {
		return tuple.Tuple{}, false
	}
	return e.Tuple, true
}

// Remove implements Store.
func (s *Hash) Remove(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Removes++
	e, probes := s.find(tp)
	s.stats.RemoveProbes += probes
	if e == nil {
		return tuple.Tuple{}, false
	}
	s.drop(e)
	return e.Tuple, true
}

// RemoveByID implements Store.
func (s *Hash) RemoveByID(id tuple.ID) bool {
	e := s.byID(id)
	if e != nil {
		s.drop(e)
	}
	return e != nil
}

// Restore implements Store.
func (s *Hash) Restore(entries []Entry) {
	s.arrivals = arrivals{}
	s.chains = make(map[uint64]*entry, len(entries))
	for _, e := range entries {
		s.link(&entry{Entry: e, hash: e.Tuple.ContentHash()})
	}
}

// Stats implements Store.
func (s *Hash) Stats() Stats { return s.stats }

package storage

import (
	"paso/internal/tuple"
)

// entry is one stored object on its store's arrival list. A Hash also
// chains it to the other entries of its content hash.
type entry struct {
	Entry
	prev, next *entry // arrival list, ascending seq
	// Hash only: the content hash and the hash's chain, ascending seq. A
	// chain head's cprev is the chain's tail, so appending is O(1).
	hash         uint64
	cprev, cnext *entry
}

// arrivals is an intrusive doubly linked list of entries in ascending seq:
// the order a scan visits candidates, so the first match is the oldest.
// The zero value is empty.
type arrivals struct {
	head, tail *entry
	n          int
}

func (l *arrivals) push(e *entry) {
	e.prev = l.tail
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *arrivals) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	l.n--
}

// scan returns the oldest entry tp matches, and the entries it visited.
func (l *arrivals) scan(tp tuple.Template) (*entry, int) {
	probes := 0
	for e := l.head; e != nil; e = e.next {
		probes++
		if tp.Matches(e.Tuple) {
			return e, probes
		}
	}
	return nil, probes
}

// byID walks the list for an identity: no store indexes identities, since
// only the tests remove by one.
func (l *arrivals) byID(id tuple.ID) *entry {
	for e := l.head; e != nil; e = e.next {
		if e.Tuple.ID() == id {
			return e
		}
	}
	return nil
}

// Len implements Store.
func (l *arrivals) Len() int { return l.n }

// Snapshot implements Store.
func (l *arrivals) Snapshot() []Entry {
	out := make([]Entry, 0, l.n)
	for e := l.head; e != nil; e = e.next {
		out = append(out, e.Entry)
	}
	return out
}

// List is a linear-scan store supporting arbitrary pattern matching. Insert
// appends (O(1)); Read and Remove scan from the oldest entry forward, so
// Remove naturally returns the oldest match.
type List struct {
	arrivals
	stats Stats
}

var _ Store = (*List)(nil)

// NewList returns an empty list store.
func NewList() *List { return &List{} }

// Insert implements Store.
func (s *List) Insert(seq uint64, t tuple.Tuple) {
	s.push(&entry{Entry: Entry{Seq: seq, Tuple: t}})
	s.stats.Inserts++
	s.stats.InsertProbes++
}

// Read implements Store.
func (s *List) Read(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Reads++
	e, probes := s.scan(tp)
	s.stats.ReadProbes += probes
	if e == nil {
		return tuple.Tuple{}, false
	}
	return e.Tuple, true
}

// Remove implements Store.
func (s *List) Remove(tp tuple.Template) (tuple.Tuple, bool) {
	s.stats.Removes++
	e, probes := s.scan(tp)
	s.stats.RemoveProbes += probes
	if e == nil {
		return tuple.Tuple{}, false
	}
	s.unlink(e)
	return e.Tuple, true
}

// RemoveByID implements Store.
func (s *List) RemoveByID(id tuple.ID) bool {
	e := s.byID(id)
	if e != nil {
		s.unlink(e)
	}
	return e != nil
}

// Restore implements Store.
func (s *List) Restore(entries []Entry) {
	s.arrivals = arrivals{}
	for _, e := range entries {
		s.push(&entry{Entry: e})
	}
}

// Stats implements Store.
func (s *List) Stats() Stats { return s.stats }

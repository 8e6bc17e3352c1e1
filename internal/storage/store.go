// Package storage implements the per-class local stores a memory server
// keeps (paper §4.2, §5).
//
// Each store supports the three atomic server operations: store (I), mem-read
// (Q), and remove (D). remove returns the OLDEST object matching the search
// criterion; because every write-group member applies the same totally
// ordered stream of store/remove commands, oldest-first removal keeps
// replicas identical without any extra coordination.
//
// Three data structures are provided, matching §5's menu: a hash table for
// dictionary queries (I=Q=D=O(1)), a balanced tree for range queries, and a
// linear list for general pattern matching. All three count "probes" so the
// q parameter of the q-cost adaptive algorithm can be measured rather than
// assumed.
package storage

import (
	"fmt"

	"paso/internal/tuple"
)

// Stats carries cumulative probe counts for the three operations. A probe
// is one element visit; I/Q/D cost functions of the paper are probe counts.
type Stats struct {
	Inserts      int
	Reads        int
	Removes      int
	InsertProbes int
	ReadProbes   int
	RemoveProbes int
}

// Store is a single-class object store. Implementations are not safe for
// concurrent use; the memory server serializes access (commands arrive in
// gcast total order).
type Store interface {
	// Insert stores an object. seq is the arrival index in the group's
	// total order; Insert with a lower seq is "older".
	Insert(seq uint64, t tuple.Tuple)
	// Read returns any object matching the template, or ok=false.
	Read(tp tuple.Template) (tuple.Tuple, bool)
	// Remove deletes and returns the oldest object matching the template,
	// or ok=false.
	Remove(tp tuple.Template) (tuple.Tuple, bool)
	// RemoveByID deletes the object with the given identity if present: a
	// way to replay a removal decided elsewhere. Replicas agree today by
	// applying the same ordered Remove, so nothing outside the tests calls
	// it and no store indexes identities: list and hash walk their arrival
	// list, the tree its leaves, O(ℓ).
	RemoveByID(id tuple.ID) bool
	// Len returns the number of live objects.
	Len() int
	// Snapshot returns all live objects with their sequence numbers in
	// ascending seq order; used for g-join state transfer (O(ℓ)).
	Snapshot() []Entry
	// Restore replaces the contents with the given entries (ascending seq).
	Restore(entries []Entry)
	// Stats returns cumulative probe counts.
	Stats() Stats
}

// Entry pairs an object with its total-order arrival index.
type Entry struct {
	Seq   uint64
	Tuple tuple.Tuple
}

// Kind selects a store implementation.
type Kind int

// Store kinds.
const (
	// KindList is a linear list: general pattern matching, Q=O(ℓ).
	KindList Kind = iota + 1
	// KindHash is a content-hash table: dictionary queries, Q=O(1) for
	// fully ground templates.
	KindHash
	// KindTree is an ordered tree on a key field: range queries,
	// Q=O(log ℓ + matches).
	KindTree
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindList:
		return "list"
	case KindHash:
		return "hash"
	case KindTree:
		return "tree"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// New constructs a store of the given kind. keyField is used only by
// KindTree (the field index the tree orders on).
func New(k Kind, keyField int) (Store, error) {
	switch k {
	case KindList:
		return NewList(), nil
	case KindHash:
		return NewHash(), nil
	case KindTree:
		return NewTree(keyField), nil
	default:
		return nil, fmt.Errorf("storage: unknown kind %d", int(k))
	}
}

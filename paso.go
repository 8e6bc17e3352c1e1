// Package paso implements PASO — a Persistent, Associative, Shared Object
// memory — after Westbrook & Zuck, "Adaptive Algorithms for PASO Systems"
// (Yale TR-1013, 1994).
//
// A PASO memory stores immutable tuples that any machine in an ensemble can
// access by associative pattern matching through three atomic primitives:
// Insert, Read, and ReadDel (read-and-delete). Objects are persistent (they
// survive their creating process), shared (visible from every machine), and
// replicated across "write groups" so the memory tolerates up to λ
// simultaneous machine crashes. Adaptive on-line algorithms relocate
// replicas in response to observed access patterns, with proven competitive
// ratios against the optimal offline replication schedule.
//
// # Quick start
//
//	space, err := paso.New(paso.Options{Machines: 4, Lambda: 1})
//	if err != nil { ... }
//	defer space.Close()
//
//	h := space.On(1) // a handle bound to machine 1
//	h.Insert(paso.Str("greeting"), paso.I(42))
//
//	tup, ok, err := space.On(2).Read(paso.MatchName("greeting", paso.AnyInt()))
//
// Handles are safe for concurrent use; each models a compute process on its
// machine. Crash and Restart simulate machine failures; data survives as
// long as at most λ machines are down simultaneously.
package paso

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/cost"
	"paso/internal/storage"
	"paso/internal/support"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// Re-exported building blocks. The tuple vocabulary is aliased rather than
// wrapped so library users and internal packages share one set of types.
type (
	// Tuple is an immutable PASO object.
	Tuple = tuple.Tuple
	// Template is an associative search criterion.
	Template = tuple.Template
	// Value is one typed tuple field.
	Value = tuple.Value
	// Matcher constrains one field of a Template.
	Matcher = tuple.Matcher
)

// Value constructors (short names keep tuple literals readable).
var (
	// I builds an int64 field.
	I = tuple.Int
	// F builds a float64 field.
	F = tuple.Float
	// Str builds a string field.
	Str = tuple.String
	// B builds a bool field.
	B = tuple.Bool
	// Raw builds a bytes field.
	Raw = tuple.Bytes
)

// Matcher constructors.
var (
	// Eq matches a field equal to v.
	Eq = tuple.Eq
	// Ne matches a field of v's kind not equal to v.
	Ne = tuple.Ne
	// Rng matches lo ≤ field ≤ hi.
	Rng = tuple.Range
	// Prefix matches string fields with a prefix.
	Prefix = tuple.Prefix
	// Contains matches string fields containing a substring.
	Contains = tuple.Contains
)

// Per-operation cost accounting re-exports (Figure 1 measures).
type (
	// OpKind labels PASO operations in Stats maps.
	OpKind = core.OpKind
	// OpStats aggregates msg-cost/work/time for one operation kind.
	OpStats = core.OpStats
)

// Operation kinds for Stats maps.
const (
	OpInsert     = core.OpInsert
	OpReadLocal  = core.OpReadLocal
	OpReadRemote = core.OpReadRemote
	OpReadDel    = core.OpReadDel
	OpJoin       = core.OpJoin
	OpLeave      = core.OpLeave
	OpSwap       = core.OpSwap
)

// AnyInt matches any int field.
func AnyInt() Matcher { return tuple.Any(tuple.KindInt) }

// AnyFloat matches any float field.
func AnyFloat() Matcher { return tuple.Any(tuple.KindFloat) }

// AnyStr matches any string field.
func AnyStr() Matcher { return tuple.Any(tuple.KindString) }

// AnyBool matches any bool field.
func AnyBool() Matcher { return tuple.Any(tuple.KindBool) }

// AnyBytes matches any bytes field.
func AnyBytes() Matcher { return tuple.Any(tuple.KindBytes) }

// Tup builds a tuple from field values.
func Tup(fields ...Value) Tuple { return tuple.Make(fields...) }

// Match builds a template from field matchers.
func Match(ms ...Matcher) Template { return tuple.NewTemplate(ms...) }

// MatchName builds a template whose first field is an exact string name —
// the Linda convention — followed by the given matchers.
func MatchName(name string, rest ...Matcher) Template {
	ms := make([]Matcher, 0, len(rest)+1)
	ms = append(ms, Eq(Str(name)))
	ms = append(ms, rest...)
	return tuple.NewTemplate(ms...)
}

// PolicyKind selects the adaptive replication algorithm (§5).
type PolicyKind int

// Replication policies.
const (
	// PolicyStatic keeps write groups at the basic support (no
	// adaptation) — the fault-tolerance-only baseline.
	PolicyStatic PolicyKind = iota + 1
	// PolicyBasic is the (3+λ/K)-competitive counter algorithm.
	PolicyBasic
	// PolicyQCost is the counter algorithm adjusted for query cost q.
	PolicyQCost
	// PolicyDoubling tracks drifting class sizes ((6+2λ/K)-competitive).
	PolicyDoubling
	// PolicyFull replicates on first read and never retreats.
	PolicyFull
	// PolicyRandomized draws the join threshold randomly (randomized
	// ski-rental): better expected adversarial cost than PolicyBasic.
	PolicyRandomized
)

// Options configures a PASO space.
type Options struct {
	// Machines is the ensemble size n. Required, ≥ 1.
	Machines int
	// Lambda is the crash-tolerance λ (< Machines). Default 1 (except
	// single-machine spaces, where it is 0).
	Lambda int
	// TupleNames optionally lists the tuple names the classifier should
	// give dedicated object classes (Linda-style name/arity routing).
	// Unknown names share catch-all classes. Empty means a single class.
	TupleNames []string
	// MaxArity bounds tuple arity for the name/arity classifier.
	// Default 8.
	MaxArity int
	// Policy selects the adaptive replication algorithm. Default
	// PolicyBasic.
	Policy PolicyKind
	// K is the counter threshold (join cost in op units). Default 8.
	K int
	// Q is the query cost for PolicyQCost. Default 2.
	Q int
	// Store selects the local data structure: "hash" (default), "tree",
	// or "list".
	Store string
	// TreeKeyField is the ordering field for tree stores. Default 1.
	TreeKeyField int
	// ReadGroups enables the §4.3 read-group optimization. Default true.
	ReadGroups *bool
	// Alpha and Beta override the communication cost model constants.
	Alpha, Beta float64
	// SupportMaintenance enables §5.2 dynamic support selection: when a
	// basic-support machine crashes it is immediately replaced by the
	// least-recently-failed live machine (LRF), so sequential crashes
	// beyond λ remain survivable as long as repairs complete in between.
	SupportMaintenance bool
	// RangeShard partitions one tuple family into key-range buckets so
	// range queries touch only overlapping classes. Mutually exclusive
	// with TupleNames; pairs naturally with Store "tree".
	RangeShard *RangeShardOptions
}

// RangeShardOptions configures key-range partitioning: tuples named Name
// are bucketed by the int value of field Field at the given split Bounds.
type RangeShardOptions struct {
	Name   string
	Field  int
	Bounds []int64
}

// Space is a running PASO memory over a simulated LAN of n machines.
type Space struct {
	cluster *core.Cluster
	opts    Options
}

// ErrNotFound is returned by TakeWait/ReadWait timeouts.
var ErrNotFound = errors.New("paso: no matching object")

// New builds and starts a PASO space.
func New(opts Options) (*Space, error) {
	if opts.Machines < 1 {
		return nil, fmt.Errorf("paso: Machines = %d < 1", opts.Machines)
	}
	if opts.Lambda == 0 {
		if opts.Machines > 1 {
			opts.Lambda = 1
		}
	}
	if opts.MaxArity == 0 {
		opts.MaxArity = 8
	}
	if opts.K == 0 {
		opts.K = 8
	}
	if opts.Q == 0 {
		opts.Q = 2
	}
	if opts.Policy == 0 {
		opts.Policy = PolicyBasic
	}
	var cls class.Classifier
	switch {
	case opts.RangeShard != nil:
		if len(opts.TupleNames) > 0 {
			return nil, fmt.Errorf("paso: RangeShard and TupleNames are mutually exclusive")
		}
		rs := opts.RangeShard
		rp, err := class.NewRangePartition(rs.Name, rs.Field, rs.Bounds)
		if err != nil {
			return nil, fmt.Errorf("paso: %w", err)
		}
		cls = rp
		if opts.TreeKeyField == 0 {
			opts.TreeKeyField = rs.Field
		}
	case len(opts.TupleNames) > 0:
		cls = class.NewNameArity(opts.TupleNames, opts.MaxArity)
	default:
		cls = class.Single{}
	}
	var kind storage.Kind
	switch opts.Store {
	case "", "hash":
		kind = storage.KindHash
	case "tree":
		kind = storage.KindTree
	case "list":
		kind = storage.KindList
	default:
		return nil, fmt.Errorf("paso: unknown store kind %q", opts.Store)
	}
	model := cost.DefaultModel()
	if opts.Alpha > 0 {
		model.Alpha = opts.Alpha
	}
	if opts.Beta > 0 {
		model.Beta = opts.Beta
	}
	useRG := true
	if opts.ReadGroups != nil {
		useRG = *opts.ReadGroups
	}
	treeKey := opts.TreeKeyField
	if treeKey == 0 {
		treeKey = 1
	}
	cfg := core.Config{
		Classifier:    cls,
		Lambda:        opts.Lambda,
		Model:         model,
		StoreKind:     kind,
		TreeKeyField:  treeKey,
		UseReadGroups: useRG,
		NewPolicy:     policyFactory(opts),
	}
	if opts.SupportMaintenance {
		cfg.SupportSelector = &support.LRF{}
	}
	cluster, err := core.NewCluster(cfg, opts.Machines)
	if err != nil {
		return nil, err
	}
	return &Space{cluster: cluster, opts: opts}, nil
}

func policyFactory(opts Options) func(class.ID) adaptive.Policy {
	switch opts.Policy {
	case PolicyStatic:
		return nil
	case PolicyQCost:
		return func(class.ID) adaptive.Policy {
			p, err := adaptive.NewQCost(opts.K, opts.Q)
			if err != nil {
				return adaptive.Static{}
			}
			return p
		}
	case PolicyDoubling:
		return func(class.ID) adaptive.Policy {
			p, err := adaptive.NewDoublingHalving(opts.K)
			if err != nil {
				return adaptive.Static{}
			}
			return p
		}
	case PolicyFull:
		return func(class.ID) adaptive.Policy { return &adaptive.FullReplication{} }
	case PolicyRandomized:
		// The factory is shared by every machine and invoked from their
		// event loops concurrently; the per-policy seed must be atomic.
		var seed atomic.Int64
		return func(class.ID) adaptive.Policy {
			p, err := adaptive.NewRandomized(opts.K, seed.Add(1))
			if err != nil {
				return adaptive.Static{}
			}
			return p
		}
	default:
		return func(class.ID) adaptive.Policy {
			p, err := adaptive.NewBasic(opts.K)
			if err != nil {
				return adaptive.Static{}
			}
			return p
		}
	}
}

// Close shuts every machine down.
func (s *Space) Close() { s.cluster.Shutdown() }

// Machines returns the configured ensemble size.
func (s *Space) Machines() int { return s.cluster.Size() }

// Crash fails a machine (its memory is lost). The memory's contents
// survive while at most λ machines are down simultaneously.
func (s *Space) Crash(machine int) { s.cluster.Crash(transport.NodeID(machine)) }

// Restart recovers a crashed machine: it re-joins its groups, receiving
// state transfers (the §3.1 initialization phase).
func (s *Space) Restart(machine int) error {
	return s.cluster.Restart(transport.NodeID(machine))
}

// CheckFaultTolerance validates the §4.1 replication invariant.
func (s *Space) CheckFaultTolerance() error { return s.cluster.CheckFaultTolerance() }

// Cluster exposes the underlying engine for benchmarks and tools.
func (s *Space) Cluster() *core.Cluster { return s.cluster }

// On returns a handle bound to the given machine (1-based). Operations on
// the handle behave as a compute process on that machine. Returns nil if
// the machine is down.
func (s *Space) On(machine int) *Handle {
	m := s.cluster.Machine(transport.NodeID(machine))
	if m == nil {
		return nil
	}
	return &Handle{m: m}
}

// Handle is a compute process's view of the space, bound to one machine.
// It is safe for concurrent use.
type Handle struct {
	m *core.Machine
}

// Machine returns the 1-based machine number this handle is bound to.
func (h *Handle) Machine() int { return int(h.m.ID()) }

// Insert stores a new object built from the given fields and returns it
// (with its assigned unique identity).
func (h *Handle) Insert(fields ...Value) (Tuple, error) {
	return h.m.Insert(Tup(fields...))
}

// InsertTuple stores a prebuilt tuple.
func (h *Handle) InsertTuple(t Tuple) (Tuple, error) { return h.m.Insert(t) }

// Read returns any live object matching the template without removing it
// (non-blocking; ok=false when nothing matches).
func (h *Handle) Read(tp Template) (Tuple, bool, error) { return h.m.Read(tp) }

// Take removes and returns the oldest matching object (the paper's
// read&del; non-blocking).
func (h *Handle) Take(tp Template) (Tuple, bool, error) { return h.m.ReadDel(tp) }

// Swap atomically replaces the oldest object matching tp with a new tuple
// built from fields — take and insert in one indivisible step. Returns the
// removed object; ok=false means nothing matched and nothing was inserted.
// The replacement must belong to the same object class as the match.
func (h *Handle) Swap(tp Template, fields ...Value) (Tuple, bool, error) {
	return h.m.Swap(tp, Tup(fields...))
}

// ReadWait blocks until a matching object exists (or the timeout passes),
// using marker-based waiting with a poll fallback.
func (h *Handle) ReadWait(tp Template, timeout time.Duration) (Tuple, error) {
	t, err := h.m.ReadWait(tp, timeout)
	if errors.Is(err, core.ErrTimeout) {
		return Tuple{}, ErrNotFound
	}
	return t, err
}

// TakeWait blocks until it removes a matching object (or the timeout
// passes).
func (h *Handle) TakeWait(tp Template, timeout time.Duration) (Tuple, error) {
	t, err := h.m.ReadDelWait(tp, timeout)
	if errors.Is(err, core.ErrTimeout) {
		return Tuple{}, ErrNotFound
	}
	return t, err
}

// Stats returns the machine's per-operation cost aggregates.
func (h *Handle) Stats() map[core.OpKind]core.OpStats { return h.m.Stats() }

// Totals aggregates per-operation cost statistics across every live
// machine — the space-wide view of the paper's msg-cost and work measures.
func (s *Space) Totals() map[OpKind]OpStats {
	out := make(map[OpKind]OpStats)
	for _, m := range s.cluster.Machines() {
		for kind, st := range m.Stats() {
			agg := out[kind]
			agg.Count += st.Count
			agg.MsgCost += st.MsgCost
			agg.Work += st.Work
			agg.Time += st.Time
			agg.Fails += st.Fails
			out[kind] = agg
		}
	}
	return out
}

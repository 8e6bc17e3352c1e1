package core

import (
	"fmt"
	"slices"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/cost"
	"paso/internal/obs"
	"paso/internal/placement"
	"paso/internal/storage"
	"paso/internal/support"
	"paso/internal/transport"
)

// Config parameterizes a PASO cluster.
type Config struct {
	// Classifier partitions objects into classes (obj-clss and sc-list of
	// §4.1). Required.
	Classifier class.Classifier

	// Lambda is the number of simultaneous crashes to tolerate (§3.1).
	// Each class's basic support B(C) has λ+1 machines. Must satisfy
	// λ < n.
	Lambda int

	// Model is the α+β communication cost model (§3.3).
	Model cost.Model

	// StoreKind selects the default per-class local data structure (§5:
	// hash for dictionary queries, tree for ranges, list for general
	// patterns).
	StoreKind storage.Kind

	// StoreKindFor optionally overrides the store kind per class (§5:
	// "several such data structures may be used" — e.g. tree stores for
	// range-partitioned buckets, a list for the catch-all). Returning 0
	// falls back to StoreKind.
	StoreKindFor func(cls class.ID) storage.Kind

	// TreeKeyField is the field index tree stores order on.
	TreeKeyField int

	// UseReadGroups routes read gcasts to rg(C) ⊆ wg(C) instead of the
	// whole write group (§4.3's read-group optimization).
	UseReadGroups bool

	// Placement chooses the coordinator placement function (PROTOCOL.md,
	// "Coordinator placement and takeover"). Off, every group is sequenced
	// by the lowest-ID live machine (vsync.LowestLive). On, each class's
	// write and read groups are sequenced by the machine the deterministic
	// capped-rendezvous policy (internal/placement) maps the class to,
	// spreading ordering load across the cluster. Every machine derives
	// the same placement locally from (Classifier.Classes(), Lambda) — no
	// coordination is needed to agree on it. When set and Support is nil,
	// basic supports B(C) are likewise taken from the placement (see
	// SupportMap).
	Placement bool

	// LeasedReads enables the sequencer-free read fast path (PROTOCOL.md,
	// "Leased reads"): a machine outside wg(C) sends an epoch-fenced
	// direct read to one write-group member instead of paying the ordered
	// gcast, falling back to the gcast path whenever the view moves under
	// it. Target selection needs a membership source visible to
	// non-members, so the fast path engages only when Placement is on or
	// Support pins the groups explicitly; otherwise every read silently
	// takes the ordered path, counted under read.fallback.
	LeasedReads bool

	// TraceOps mints a trace ID at every primitive's entry and propagates
	// it through the vsync wire envelopes, so each machine records spans
	// for its part of the operation (gcast, ordering, delivery) into its
	// Obs span store. Off by default: untraced operations carry zero
	// trace fields, costing two varint bytes per encoded frame.
	TraceOps bool

	// NewPolicy builds the adaptive replication policy for one
	// (machine, class) pair (§5.1). Nil means Static (no adaptation).
	NewPolicy func(cls class.ID) adaptive.Policy

	// Support fixes the basic support B(C) per class. If nil, supports
	// are derived by SupportMap (placement assignment or round-robin).
	Support map[class.ID][]transport.NodeID

	// PollInterval is the busy-wait retry period for blocking operations.
	PollInterval time.Duration

	// MarkerFallback is the slow-poll period backing marker-based
	// blocking reads (the "hybrid" strategy of §4.3). Zero disables the
	// fallback (pure markers).
	MarkerFallback time.Duration

	// Obs receives the machine's metrics (per-OpKind latency histograms,
	// fault-tolerance-condition violations, policy decisions) and
	// structured events. It is per-machine state: in multi-machine
	// in-process clusters leave it nil (each machine then records into its
	// own throwaway sink) — sharing one Obs across machines would conflate
	// their metrics. cmd/pasod, hosting exactly one machine, wires the
	// process-wide Obs here.
	Obs *obs.Obs

	// OnViewChange, when non-nil, is invoked after every ordered group
	// membership event a machine observes (join, leave, crash eviction),
	// with the machine's ID, the raw group name ("wg/<class>" or
	// "rg/<class>"), and the new membership. It is called from the
	// machine's vsync event loop: implementations must not block and must
	// not call back into the machine or its node (doing so deadlocks the
	// loop) — signal another goroutine instead. The fault-injection
	// harness uses this to assert the §4.1 λ−k+1 condition at every view
	// change (see FAULTS.md §4 and faults.Checker).
	OnViewChange func(machine transport.NodeID, group string, members []transport.NodeID)

	// SupportSelector enables dynamic support maintenance (§5.2): when a
	// basic-support machine crashes, the cluster immediately replaces it
	// in B(C) with a live machine chosen by this selector (e.g.
	// support.LRF for the paper's least-recently-failed heuristic),
	// keeping |wg(C)| = min(λ+1, n−f). Nil keeps supports static — a
	// crashed support machine's slot stays empty until it restarts.
	SupportSelector support.Selector
}

// withDefaults fills zero fields and validates.
func (c Config) withDefaults(n int) (Config, error) {
	if c.Classifier == nil {
		return c, fmt.Errorf("core: Classifier is required")
	}
	if c.Lambda < 0 {
		return c, fmt.Errorf("core: Lambda = %d < 0", c.Lambda)
	}
	if c.Lambda >= n && n > 0 {
		return c, fmt.Errorf("core: Lambda = %d must be < n = %d", c.Lambda, n)
	}
	if c.Model == (cost.Model{}) {
		c.Model = cost.DefaultModel()
	}
	if c.StoreKind == 0 {
		c.StoreKind = storage.KindHash
	}
	if c.PollInterval <= 0 {
		c.PollInterval = time.Millisecond
	}
	return c, nil
}

// placementPolicy builds the sharded-placement policy for this config, or
// nil when placement is disabled. Policies are pure functions of
// (class universe, λ), so independently constructed instances agree.
func (c Config) placementPolicy() *placement.Policy {
	if !c.Placement {
		return nil
	}
	return placement.New(c.Classifier.Classes(), c.Lambda)
}

// SupportMap derives every class's basic support B(C) over an ensemble of
// machine IDs — the one place the tree decides it, shared by Cluster,
// cmd/pasod and the experiments: the pinned Support when set; else, with
// Placement, the class's placed coordinator plus the next λ machines in its
// preference order, so sequencing and storage co-locate; else round-robin
// over the sorted IDs with |B(C)| = λ+1. The returned lists are copies.
func (c Config) SupportMap(ensemble []transport.NodeID) map[class.ID][]transport.NodeID {
	out := make(map[class.ID][]transport.NodeID)
	if c.Support != nil {
		for cls, ids := range c.Support {
			out[cls] = slices.Clone(ids)
		}
		return out
	}
	if pol := c.placementPolicy(); pol != nil {
		for cls, ids := range pol.Assign(ensemble).Members {
			out[cls] = slices.Clone(ids)
		}
		return out
	}
	ids := slices.Clone(ensemble)
	slices.Sort(ids)
	classes := c.Classifier.Classes()
	slices.Sort(classes)
	for i, cls := range classes {
		for k := 0; k <= c.Lambda && k < len(ids); k++ {
			out[cls] = append(out[cls], ids[(i+k)%len(ids)])
		}
	}
	return out
}

// BasicClasses returns the classes machine id basically supports within
// the ensemble (SupportMap restricted to one machine), sorted.
func (c Config) BasicClasses(id transport.NodeID, ensemble []transport.NodeID) []class.ID {
	return basicsOf(c.SupportMap(ensemble), id)
}

// basicsOf lists the classes whose support contains id, sorted.
func basicsOf(support map[class.ID][]transport.NodeID, id transport.NodeID) []class.ID {
	var basics []class.ID
	for cls, ids := range support {
		if slices.Contains(ids, id) {
			basics = append(basics, cls)
		}
	}
	slices.Sort(basics)
	return basics
}

// policyFor instantiates the policy for a class, defaulting to Static.
func (c Config) policyFor(cls class.ID) adaptive.Policy {
	if c.NewPolicy == nil {
		return adaptive.Static{}
	}
	if p := c.NewPolicy(cls); p != nil {
		return p
	}
	return adaptive.Static{}
}

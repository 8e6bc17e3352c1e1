package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"paso/internal/class"
	"paso/internal/cost"
	"paso/internal/simnet"
	"paso/internal/transport"
)

// Fabric is the network a Cluster stands on: it attaches a machine ID to
// the network, returning once the ID's endpoint and every attached peer can
// exchange messages, and it crashes an attached ID (queued messages lost).
// SimFabric wraps the simulated LAN; tcp.Loopback is real loopback sockets.
type Fabric interface {
	Join(id transport.NodeID) (transport.Endpoint, error)
	Crash(id transport.NodeID)
}

// SimFabric adapts a simulated LAN to Fabric (simnet's Join returns its
// concrete endpoint type). The caller keeps net for fault injection and
// cost metering.
func SimFabric(net *simnet.Net) Fabric { return simFabric{net} }

type simFabric struct{ *simnet.Net }

func (f simFabric) Join(id transport.NodeID) (transport.Endpoint, error) {
	ep, err := f.Net.Join(id)
	if err != nil {
		return nil, err
	}
	return ep, nil
}

// Ensemble returns the machine IDs 1..n every in-process cluster uses.
func Ensemble(n int) []transport.NodeID {
	ids := make([]transport.NodeID, n)
	for i := range ids {
		ids[i] = transport.NodeID(i + 1)
	}
	return ids
}

// Cluster assembles n machines over a Fabric into a PASO system and
// orchestrates crashes and restarts. A unit test, a chaos plan and the
// daemon all run this one assembly; only the fabric differs.
type Cluster struct {
	cfg    Config
	fabric Fabric
	n      int

	mu           sync.Mutex
	machines     map[transport.NodeID]*Machine
	support      map[class.ID][]transport.NodeID
	incarnations map[transport.NodeID]uint64

	// Support-maintenance state (§5.2), used when cfg.SupportSelector is
	// set: failure history for the selector and the copy-cost meter.
	failClock    int
	lastFailed   map[transport.NodeID]int
	replacements int
}

// NewCluster builds and starts a PASO system with machine IDs 1..n over a
// fresh simulated LAN priced by cfg.Model.
func NewCluster(cfg Config, n int) (*Cluster, error) {
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}
	return NewClusterOn(SimFabric(simnet.New(cfg.Model)), cfg, n)
}

// NewClusterOn builds and starts a PASO system with machine IDs 1..n over
// the given fabric. Every class's basic support B(C) comes from
// Config.SupportMap. Machines start in ID order, each joining a system
// whose earlier machines are already serving.
func NewClusterOn(fabric Fabric, cfg Config, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: cluster size %d < 1", n)
	}
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}
	ensemble := Ensemble(n)
	c := &Cluster{
		cfg:          cfg,
		fabric:       fabric,
		n:            n,
		machines:     make(map[transport.NodeID]*Machine, n),
		support:      cfg.SupportMap(ensemble),
		incarnations: make(map[transport.NodeID]uint64, n),
	}
	for cls, ids := range c.support {
		if len(ids) != cfg.Lambda+1 {
			return nil, fmt.Errorf("core: class %s support size %d != λ+1 = %d",
				cls, len(ids), cfg.Lambda+1)
		}
	}
	if cfg.SupportSelector != nil {
		cfg.SupportSelector.Reset(n)
	}
	for _, id := range ensemble {
		if err := c.startMachine(id); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	return c, nil
}

// startMachine attaches and initializes one machine.
func (c *Cluster) startMachine(id transport.NodeID) error {
	ep, err := c.fabric.Join(id)
	if err != nil {
		return fmt.Errorf("cluster: attach %d: %w", id, err)
	}
	c.mu.Lock()
	basics := basicsOf(c.support, id)
	c.incarnations[id]++
	inc := c.incarnations[id]
	c.mu.Unlock()
	m := newMachine(id, ep, c.cfg, basics, inc)
	if err := m.start(); err != nil {
		c.fabric.Crash(id)
		m.stop()
		return err
	}
	c.mu.Lock()
	c.machines[id] = m
	c.mu.Unlock()
	return nil
}

// Machine returns the live machine with the given ID, or nil if it is
// down.
func (c *Cluster) Machine(id transport.NodeID) *Machine {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.machines[id]
}

// Machines returns the live machines in ID order.
func (c *Cluster) Machines() []*Machine {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]transport.NodeID, 0, len(c.machines))
	for id := range c.machines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*Machine, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.machines[id])
	}
	return out
}

// Size returns the configured machine count n.
func (c *Cluster) Size() int { return c.n }

// Support returns B(C) for a class.
func (c *Cluster) Support(cls class.ID) []transport.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]transport.NodeID(nil), c.support[cls]...)
}

// Crash fails a machine: its endpoint detaches (queued messages lost) and
// its local memory is discarded (§3.1). A crashed ID can be Restarted.
// With a SupportSelector configured, every class the machine basically
// supported immediately gets a replacement support machine (§5.2).
func (c *Cluster) Crash(id transport.NodeID) {
	c.mu.Lock()
	m := c.machines[id]
	delete(c.machines, id)
	c.failClock++
	if c.lastFailed == nil {
		c.lastFailed = make(map[transport.NodeID]int)
	}
	c.lastFailed[id] = c.failClock
	c.mu.Unlock()
	if m == nil {
		return
	}
	c.fabric.Crash(id)
	m.stop()
	if c.cfg.SupportSelector != nil {
		c.maintainSupport(id)
	}
}

// maintainSupport replaces a crashed machine in every B(C) it belonged to,
// implementing the §5.2 constraint |wg(C)| = min(λ+1, n−f). The selector
// chooses among live machines outside the class's support; the promotion
// copies the class state (the g(ℓ) cost the support-selection analysis
// charges).
func (c *Cluster) maintainSupport(dead transport.NodeID) {
	c.mu.Lock()
	sel := c.cfg.SupportSelector
	now := c.failClock
	lastFailed := make(map[int]int, len(c.lastFailed))
	for id, t := range c.lastFailed {
		lastFailed[int(id)] = t
	}
	type job struct {
		cls  class.ID
		pick *Machine
	}
	var jobs []job
	for cls, sup := range c.support {
		idx := -1
		for i, sid := range sup {
			if sid == dead {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		// Candidates: live machines not already supporting this class.
		var outside []int
		for mid := range c.machines {
			inSup := false
			for _, sid := range sup {
				if sid == mid {
					inSup = true
					break
				}
			}
			if !inSup {
				outside = append(outside, int(mid))
			}
		}
		if len(outside) == 0 {
			// n−f < λ+1: nobody left to promote; the slot stays empty
			// until a restart (the §5.2 min(λ+1, n−f) regime).
			continue
		}
		sort.Ints(outside)
		pick := transport.NodeID(sel.Pick(outside, now, lastFailed, nil))
		repl := c.machines[pick]
		if repl == nil {
			continue
		}
		sup[idx] = pick
		c.replacements++
		jobs = append(jobs, job{cls: cls, pick: repl})
	}
	c.mu.Unlock()
	// Promotions (state transfers) happen outside the cluster lock.
	for _, j := range jobs {
		if err := j.pick.MakeBasic(j.cls); err != nil {
			continue // the replacement died too; the next crash retries
		}
	}
}

// Replacements reports how many support replacements the selector has
// performed (each one copied a class state — the §5.2 cost measure).
func (c *Cluster) Replacements() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replacements
}

// Restart brings a crashed machine back: a fresh memory server runs its
// initialization phase, re-joining its basic-support groups with state
// transfer. The machine counts as faulty until Restart returns (§3.1).
func (c *Cluster) Restart(id transport.NodeID) error {
	c.mu.Lock()
	_, alreadyUp := c.machines[id]
	c.mu.Unlock()
	if alreadyUp {
		return fmt.Errorf("cluster: machine %d already up", id)
	}
	return c.startMachine(id)
}

// Lambda returns the configured crash tolerance λ (§3.1).
func (c *Cluster) Lambda() int { return c.cfg.Lambda }

// Classes returns the classifier's class universe, sorted.
func (c *Cluster) Classes() []class.ID {
	out := append([]class.ID(nil), c.cfg.Classifier.Classes()...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Down reports how many machines are currently failed (k in §4.1).
func (c *Cluster) Down() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n - len(c.machines)
}

// CheckFaultTolerance verifies the §4.1 fault-tolerance condition: with k
// failed machines, every class has more than λ−k live write-group members.
func (c *Cluster) CheckFaultTolerance() error {
	machines := c.Machines()
	// The paper's condition is |wg(C)| > λ−k for k ≤ λ; beyond the
	// tolerated crash count the bound goes vacuous, but losing the last
	// replica is always a violation worth reporting.
	need := max(c.cfg.Lambda-(c.n-len(machines)), 0)
	for _, cls := range c.Classes() {
		count := 0
		for _, m := range machines {
			if m.MemberOf(cls) {
				count++
			}
		}
		if count <= need {
			return fmt.Errorf("core: class %s has %d live replicas, need > %d",
				cls, count, need)
		}
	}
	return nil
}

// CheckInvariants asserts the full §4.1 fault-tolerance contract (FAULTS.md
// §4): the λ−k+1 replica condition of CheckFaultTolerance, plus — when read
// groups are enabled — that every class's reads stay answerable from rg(C)
// (at least one live read-group member). Safe to call from any goroutine
// EXCEPT a vsync event loop (it queries the machines' nodes); view-change
// hooks must signal a separate checker goroutine instead.
func (c *Cluster) CheckInvariants() error {
	if err := c.CheckFaultTolerance(); err != nil {
		return err
	}
	if !c.cfg.UseReadGroups {
		return nil
	}
	machines := c.Machines()
	for _, cls := range c.Classes() {
		live := 0
		for _, m := range machines {
			if m.node.Member(rgName(cls)) {
				live++
			}
		}
		if live == 0 {
			return fmt.Errorf("core: class %s has no live read-group member; reads unanswerable from rg(C)", cls)
		}
	}
	return nil
}

// CheckConverged asserts replica convergence at quiescence, on top of
// CheckInvariants: every live machine's failure detector sees exactly the
// live machines, and for every class exactly one machine sequences wg(C)
// (and rg(C)), the machines that count themselves members are exactly the
// ones on that sequencer's member list, and they report the same ClassLen.
// A machine healed out of a partition still counts itself a member of its
// stale series until the coordinator restates it; this is the check that
// sees it. Same calling rule as CheckInvariants.
func (c *Cluster) CheckConverged() error {
	if err := c.CheckInvariants(); err != nil {
		return err
	}
	machines := c.Machines()
	for _, m := range machines {
		if alive, _ := m.node.LiveView(); len(alive) != len(machines) {
			return fmt.Errorf("core: machine %d sees %v alive, %d machines are up", m.id, alive, len(machines))
		}
	}
	for _, cls := range c.Classes() {
		groups := []string{wgName(cls)}
		if c.cfg.UseReadGroups {
			groups = append(groups, rgName(cls))
		}
		for _, g := range groups {
			var members []*Machine
			var self, listed []transport.NodeID
			owners := 0
			for _, m := range machines {
				if m.node.Member(g) {
					members = append(members, m)
					self = append(self, m.id)
				}
				if l, ok := m.node.Sequenced(g); ok {
					listed = l
					owners++
				}
			}
			slices.Sort(listed)
			if owners != 1 || !slices.Equal(listed, self) {
				return fmt.Errorf("core: %s: %d sequencer(s) listing %v, self-declared members are %v", g, owners, listed, self)
			}
			for _, m := range members {
				if a, b := members[0].ClassLen(cls), m.ClassLen(cls); a != b {
					return fmt.Errorf("core: %s: machine %d holds %d objects, machine %d holds %d", g, self[0], a, m.id, b)
				}
			}
		}
	}
	return nil
}

// BusTotals returns the simulated LAN's raw transport meter (actual frames
// sent by the protocol, as opposed to the Figure 1 model costs kept per
// machine). Zero on a fabric that does not meter.
func (c *Cluster) BusTotals() cost.Totals {
	if f, ok := c.fabric.(simFabric); ok {
		return f.Meter().Snapshot()
	}
	return cost.Totals{}
}

// Shutdown stops every machine. The cluster is unusable afterwards.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	ms := make([]*Machine, 0, len(c.machines))
	ids := make([]transport.NodeID, 0, len(c.machines))
	for id, m := range c.machines {
		ms = append(ms, m)
		ids = append(ids, id)
	}
	c.machines = make(map[transport.NodeID]*Machine)
	c.mu.Unlock()
	for i, m := range ms {
		c.fabric.Crash(ids[i])
		m.stop()
	}
}

package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/obs"
	"paso/internal/placement"
	"paso/internal/transport"
	"paso/internal/tuple"
	"paso/internal/vsync"
)

// Common engine errors.
var (
	// ErrNoReplicas is returned when an operation reaches a class whose
	// write group has no live members — the fault-tolerance condition
	// (§4.1) was violated, e.g. more than λ simultaneous crashes.
	ErrNoReplicas = errors.New("core: no live replicas for class")
	// ErrMachineDown is returned by operations on a crashed machine.
	ErrMachineDown = errors.New("core: machine is down")
	// ErrTimeout is returned by blocking operations that expire.
	ErrTimeout = errors.New("core: blocking operation timed out")
)

// Machine is one node of the PASO system: it hosts a memory server and
// serves PASO operations for the compute processes running on it. All
// methods are safe for concurrent use by multiple compute goroutines.
type Machine struct {
	id    transport.NodeID
	cfg   Config
	node  *vsync.Node
	srv   *server
	idgen *tuple.IDGen
	ops   *opMeter

	// pol is the sharded-placement policy (nil without Config.Placement);
	// leased-read target selection derives wg membership from it when no
	// Support pins the groups. lease is the leased-read fast path's
	// bookkeeping.
	pol   *placement.Policy
	lease leaseState

	basic map[class.ID]bool // classes with this machine in B(C)
	// names interns the group names of the classifier's classes: a primitive
	// looks its group up instead of concatenating it. Immutable once built.
	names map[class.ID]groupNames

	// Observability: per-OpKind wall-clock latency histograms plus event
	// counters, all feeding the machine's obs sink (cfg.Obs or a nop).
	o            *obs.Obs
	lat          map[OpKind]*obs.Histogram
	cFTC         *obs.Counter
	cPolicyJoin  *obs.Counter
	cPolicyLeave *obs.Counter

	polMu     sync.Mutex
	policies  map[class.ID]adaptive.Policy
	polGauges map[class.ID]*obs.Gauge // per-class policy counter gauges
	moving    map[class.ID]bool       // membership change in flight
	audits    map[class.ID]*ratioAuditor

	actions chan func()
	stopped chan struct{}
	wg      sync.WaitGroup

	wakeMu   sync.Mutex
	wakeCh   chan struct{} // closed+replaced on each marker wakeup
	initTime time.Duration
}

// machineHandler adapts the server to vsync.Handler while routing marker
// wakeups and policy decay through the machine.
type machineHandler struct {
	m *Machine
}

var _ vsync.Handler = machineHandler{}

func (h machineHandler) Deliver(group string, origin transport.NodeID, payload []byte) ([]byte, bool) {
	return h.m.srv.Deliver(group, origin, payload)
}
func (h machineHandler) Snapshot(group string) []byte       { return h.m.srv.Snapshot(group) }
func (h machineHandler) Install(group string, state []byte) { h.m.srv.Install(group, state) }
func (h machineHandler) Evict(group string)                 { h.m.srv.Evict(group) }
func (h machineHandler) ViewChange(group string, members []transport.NodeID) {
	h.m.srv.ViewChange(group, members)
	if h.m.cfg.OnViewChange != nil {
		h.m.cfg.OnViewChange(h.m.id, group, members)
	}
}
func (h machineHandler) AppMessage(from transport.NodeID, payload []byte) {
	h.m.wake()
}

// LeaseRead implements vsync.LeaseReader: serve an epoch-fenced leased
// read from the local replica (the group layer already verified this node
// is an active member under the requester's epoch).
func (h machineHandler) LeaseRead(group string, payload []byte) ([]byte, bool) {
	return h.m.srv.leaseRead(group, payload)
}

var _ vsync.LeaseReader = machineHandler{}

// StartMachine wires a standalone machine over any transport endpoint and
// runs its initialization phase. It is the entry point for deployments
// where each machine is its own process (cmd/pasod over the TCP
// transport), with basics from Config.BasicClasses; in-process clusters use
// NewCluster or NewClusterOn instead. The caller owns the endpoint's
// lifetime; Stop the machine before closing it.
func StartMachine(ep transport.Endpoint, cfg Config, basics []class.ID, incarnation uint64) (*Machine, error) {
	cfg, err := cfg.withDefaults(0)
	if err != nil {
		return nil, err
	}
	m := newMachine(ep.ID(), ep, cfg, basics, incarnation)
	if err := m.start(); err != nil {
		m.stop()
		return nil, err
	}
	return m, nil
}

// Stop shuts a standalone machine down (graceful or crash teardown).
func (m *Machine) Stop() { m.stop() }

// newMachine wires a machine over an endpoint. Call start to run the init
// phase (joining the basic-support groups). incarnation distinguishes
// restarts of the same machine ID so object identities stay globally
// unique across crash/restart cycles (§4: IDs are "signed by the creating
// process", and a restarted server is a new process).
func newMachine(id transport.NodeID, ep transport.Endpoint, cfg Config, basicClasses []class.ID, incarnation uint64) *Machine {
	o := cfg.Obs
	if o == nil {
		o = obs.Nop()
	}
	o = o.With(obs.KV("machine", id))
	m := &Machine{
		id:        id,
		cfg:       cfg,
		srv:       nil,
		idgen:     tuple.NewIDGen(uint64(id) | incarnation<<32),
		ops:       newOpMeter(),
		basic:     make(map[class.ID]bool, len(basicClasses)),
		names:     make(map[class.ID]groupNames),
		policies:  make(map[class.ID]adaptive.Policy),
		polGauges: make(map[class.ID]*obs.Gauge),
		moving:    make(map[class.ID]bool),
		audits:    make(map[class.ID]*ratioAuditor),
		actions:   make(chan func(), 64),
		stopped:   make(chan struct{}),
		wakeCh:    make(chan struct{}),

		o:            o,
		lat:          make(map[OpKind]*obs.Histogram, len(allOpKinds)),
		cFTC:         o.Counter("core.ftc.violations"),
		cPolicyJoin:  o.Counter("core.policy.joins"),
		cPolicyLeave: o.Counter("core.policy.leaves"),
	}
	for _, k := range allOpKinds {
		m.lat[k] = o.Histogram(o.Series("core.op.{kind}.latency.seconds", k.String()))
	}
	for _, cls := range basicClasses {
		m.basic[cls] = true
	}
	for _, cls := range cfg.Classifier.Classes() {
		m.names[cls] = groupNames{wg: wgName(cls), rg: rgName(cls)}
	}
	m.srv = newServer(cfg, o, m.onUpdate, m.notifyReader)
	m.pol = cfg.placementPolicy()
	m.lease.rr = make(map[class.ID]uint32)
	m.lease.cLeased = make(map[class.ID]*obs.Counter)
	m.lease.cFallback = make(map[class.ID]*obs.Counter)
	coord := vsync.CoordFn(vsync.LowestLive)
	if m.pol != nil {
		coord = m.pol.CoordFn()
	}
	m.node = vsync.NewNodeOpts(ep, machineHandler{m: m},
		vsync.NodeOptions{Obs: o, Coord: coord})
	// Namespaced per machine so in-process clusters sharing one Obs keep
	// every machine's collector registered (names replace on collision).
	o.AddCollector(fmt.Sprintf("core.audit.m%d", id), m.collectAudit)
	m.wg.Add(1)
	go m.actionWorker()
	return m
}

// groupsOf returns the class's group names: the interned pair for a class
// the classifier enumerated, a freshly built one otherwise.
func (m *Machine) groupsOf(cls class.ID) groupNames {
	if n, ok := m.names[cls]; ok {
		return n
	}
	return groupNames{wg: wgName(cls), rg: rgName(cls)}
}

// mintTrace returns a fresh trace ID when operation tracing is enabled,
// zero otherwise. The trace ID doubles as the root span's ID, so the value
// listed by /trace/ops is exactly what `pasoctl trace <op-id>` takes.
func (m *Machine) mintTrace() uint64 {
	if !m.cfg.TraceOps {
		return 0
	}
	return obs.NextID()
}

// traceRoot records the primitive's root span. A zero trace is a no-op.
func (m *Machine) traceRoot(trace uint64, name string, cls class.ID, start time.Time, fail bool, note string) {
	if trace == 0 {
		return
	}
	m.o.Spans().Record(obs.Span{
		Trace: trace, ID: trace, Machine: uint64(m.id),
		Name: name, Class: string(cls), Start: start, Fail: fail, Note: note,
	})
}

// gcastT issues a gcast carrying the primitive's tracing context (parented
// on the root span) when trace is non-zero.
func (m *Machine) gcastT(group string, payload []byte, trace uint64) (vsync.Result, error) {
	if trace != 0 {
		return m.node.GcastTraced(group, payload, trace, trace)
	}
	return m.node.Gcast(group, payload)
}

// record tracks one operation leg in both the Figure 1 cost meter and the
// wall-clock latency histogram (measured from legStart).
func (m *Machine) record(kind OpKind, legStart time.Time, msg, work, tm float64, fail bool) {
	m.ops.add(kind, msg, work, tm, fail)
	m.lat[kind].Observe(time.Since(legStart).Seconds())
}

// ftcViolation counts a sighting of the §4.1 fault-tolerance condition
// being violated: an operation reached a class with zero live replicas.
func (m *Machine) ftcViolation(op OpKind, cls class.ID) {
	m.cFTC.Inc()
	m.o.Emit("ftc-violation", obs.KV("op", op), obs.KV("class", cls))
}

// start runs the initialization phase (§3.1/§4.2): join the write group —
// and, when read groups are enabled, the read group — of every class this
// machine basically supports, receiving state transfers. The machine is
// "faulty" until start returns.
func (m *Machine) start() error {
	begin := time.Now()
	for cls := range m.basic {
		if err := m.node.Join(m.groupsOf(cls).wg); err != nil {
			return fmt.Errorf("machine %d: join %s: %w", m.id, m.groupsOf(cls).wg, err)
		}
		if m.cfg.UseReadGroups {
			if err := m.node.Join(m.groupsOf(cls).rg); err != nil {
				return fmt.Errorf("machine %d: join %s: %w", m.id, m.groupsOf(cls).rg, err)
			}
		}
	}
	m.initTime = time.Since(begin)
	return nil
}

// stop shuts the machine down (crash or graceful teardown).
func (m *Machine) stop() {
	select {
	case <-m.stopped:
		return
	default:
	}
	close(m.stopped)
	m.node.Close()
	m.wg.Wait()
}

// actionWorker executes policy-triggered joins and leaves asynchronously:
// decisions can originate inside vsync delivery callbacks, which must not
// call blocking node APIs themselves.
func (m *Machine) actionWorker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopped:
			return
		case f := <-m.actions:
			f()
		}
	}
}

// ID returns the machine's node ID.
func (m *Machine) ID() transport.NodeID { return m.id }

// InitTime reports how long the initialization phase took.
func (m *Machine) InitTime() time.Duration { return m.initTime }

// Stats returns per-operation cost aggregates (Figure 1 measures).
func (m *Machine) Stats() map[OpKind]OpStats { return m.ops.snapshot() }

// Obs returns the machine's observability sink (never nil).
func (m *Machine) Obs() *obs.Obs { return m.o }

// Report returns one row per operation kind with both the Figure 1 cost
// aggregates and the wall-clock latency quantiles, sorted by kind. It is
// the single source of truth behind the /metrics endpoint, the protocol's
// stats verb, and the experiment harness.
func (m *Machine) Report() []OpReport {
	st := m.ops.snapshot()
	out := make([]OpReport, 0, len(st))
	for _, k := range allOpKinds {
		s, ok := st[k]
		if !ok {
			continue
		}
		h := m.lat[k].Snapshot()
		out = append(out, OpReport{
			Kind:     k,
			OpStats:  s,
			LatCount: h.Count,
			LatMean:  h.Mean,
			LatP50:   h.P50,
			LatP90:   h.P90,
			LatP99:   h.P99,
		})
	}
	return out
}

// IsBasic reports whether this machine is basic support for the class.
func (m *Machine) IsBasic(cls class.ID) bool {
	m.polMu.Lock()
	defer m.polMu.Unlock()
	return m.basic[cls]
}

// MemberOf reports whether this machine currently replicates the class.
func (m *Machine) MemberOf(cls class.ID) bool { return m.node.Member(m.groupsOf(cls).wg) }

// ClassLen returns the local live-object count for a class (ℓ).
func (m *Machine) ClassLen(cls class.ID) int { return m.srv.classLen(cls) }

// ClassDigest hashes the class's write-group snapshot (FNV-64a). The
// snapshot lists entries in ascending arrival order, so replicas holding
// equal contents give equal digests. Computed on demand, never on the apply
// path (Cluster.CheckConverged).
func (m *Machine) ClassDigest(cls class.ID) uint64 {
	h := fnv.New64a()
	h.Write(m.srv.Snapshot(wgName(cls)))
	return h.Sum64()
}

// Node exposes the vsync node (used by the cluster layer and tests).
func (m *Machine) Node() *vsync.Node { return m.node }

// --- PASO primitives (Appendix A macro expansions) ---

// Insert implements insert(o): stamp a unique identity and gcast store(o)
// to the write group of the object's class. It returns the stored tuple
// (with its assigned ID). On error the stamped tuple is still returned:
// an insert interrupted by a crash may or may not have taken effect, and
// the caller needs the identity to reason about that ambiguity.
func (m *Machine) Insert(t tuple.Tuple) (tuple.Tuple, error) {
	if m.isDown() {
		return tuple.Tuple{}, ErrMachineDown
	}
	start := time.Now()
	trace := m.mintTrace()
	t = t.WithID(m.idgen.Next())
	cls := m.cfg.Classifier.ClassOf(t)
	payload := encodeCommand(&command{kind: cmdStore, class: cls, obj: t})
	res, err := m.gcastT(m.groupsOf(cls).wg, payload, trace)
	if err != nil {
		m.traceRoot(trace, "op.insert", cls, start, true, "error")
		return t, fmt.Errorf("insert: %w", err)
	}
	if res.Fail && res.GroupSize == 0 {
		m.ftcViolation(OpInsert, cls)
		m.traceRoot(trace, "op.insert", cls, start, true, "no replicas")
		return t, ErrNoReplicas
	}
	// Figure 1: msg-cost g(2α+β|o|)+α; work g·I; time I + transit.
	g := float64(res.GroupSize)
	m.record(OpInsert, start, m.cfg.Model.Insert(res.GroupSize, len(payload)), g, 1, false)
	m.traceRoot(trace, "op.insert", cls, start, false, "")
	return t, nil
}

// Read implements the non-blocking read(sc): walk the search list; serve
// locally for classes whose write group this machine belongs to, otherwise
// gcast a mem-read to the read group (or write group when read groups are
// disabled). Returns ok=false if no class yields a match.
func (m *Machine) Read(tp tuple.Template) (tuple.Tuple, bool, error) {
	if m.isDown() {
		return tuple.Tuple{}, false, ErrMachineDown
	}
	trace := m.mintTrace()
	opStart := time.Now()
	var lastCls class.ID
	for _, cls := range m.cfg.Classifier.SearchList(tp) {
		lastCls = cls
		legStart := time.Now()
		names := m.groupsOf(cls)
		if m.node.Member(names.wg) {
			// The zero-message path of Figure 1: classifier, store lock,
			// stats. held=false: this machine's own leave landed between the
			// membership test and the store lock. The class is still live in
			// wg(C), so the read goes on to the remote path below.
			if obj, ok, probes, held := m.srv.localRead(cls, tp); held {
				m.record(OpReadLocal, legStart, 0, float64(probes), float64(probes), !ok)
				if trace != 0 {
					m.o.Spans().Record(obs.Span{
						Trace: trace, ID: obs.NextID(), Parent: trace,
						Machine: uint64(m.id), Name: "local-read", Group: names.wg,
						Start: legStart, Fail: !ok,
						Note: fmt.Sprintf("probes=%d", probes),
					})
				}
				m.policyRead(cls, true, 0)
				if ok {
					m.traceRoot(trace, "op.read", cls, opStart, false, "")
					return obj, true, nil
				}
				continue
			}
		}
		target := names.wg
		if m.cfg.UseReadGroups {
			target = names.rg
		}
		payload := encodeCommand(&command{kind: cmdRead, class: cls, tpl: tp})
		if m.cfg.LeasedReads {
			// Sequencer-free fast path: one direct request to a wg member
			// under the current view epoch. Any fence, timeout, or missing
			// target falls through to the ordered gcast below — the lease
			// is an optimization, never a correctness dependency.
			if obj, ok, served := m.leasedRead(cls, payload, legStart, trace); served {
				if ok {
					m.traceRoot(trace, "op.read", cls, opStart, false, "")
					return obj, true, nil
				}
				continue
			}
		}
		res, err := m.gcastT(target, payload, trace)
		if err != nil {
			m.traceRoot(trace, "op.read", cls, opStart, true, "error")
			return tuple.Tuple{}, false, fmt.Errorf("read: %w", err)
		}
		if res.Fail && res.GroupSize == 0 {
			m.ftcViolation(OpReadRemote, cls)
		}
		obj, ok, probes := decodeResult(res)
		g := float64(res.GroupSize)
		m.record(OpReadRemote, legStart,
			m.cfg.Model.RemoteRead(res.GroupSize, len(payload), len(res.Payload)),
			g*float64(probes), float64(probes)+1, !ok)
		m.policyRead(cls, false, res.GroupSize)
		if ok {
			m.traceRoot(trace, "op.read", cls, opStart, false, "")
			return obj, true, nil
		}
	}
	m.traceRoot(trace, "op.read", lastCls, opStart, true, "no match")
	return tuple.Tuple{}, false, nil
}

// ReadDel implements the non-blocking read&del(sc): gcast remove to the
// write group of each class in the search list until one succeeds. Unlike
// read there is no purely local path — all replicas must apply the removal
// (§4.3).
func (m *Machine) ReadDel(tp tuple.Template) (tuple.Tuple, bool, error) {
	if m.isDown() {
		return tuple.Tuple{}, false, ErrMachineDown
	}
	trace := m.mintTrace()
	opStart := time.Now()
	var lastCls class.ID
	for _, cls := range m.cfg.Classifier.SearchList(tp) {
		lastCls = cls
		legStart := time.Now()
		payload := encodeCommand(&command{kind: cmdRemove, class: cls, tpl: tp})
		res, err := m.gcastT(m.groupsOf(cls).wg, payload, trace)
		if err != nil {
			m.traceRoot(trace, "op.read&del", cls, opStart, true, "error")
			return tuple.Tuple{}, false, fmt.Errorf("read&del: %w", err)
		}
		if res.Fail && res.GroupSize == 0 {
			m.ftcViolation(OpReadDel, cls)
		}
		obj, ok, probes := decodeResult(res)
		g := float64(res.GroupSize)
		m.record(OpReadDel, legStart,
			m.cfg.Model.RemoteRead(res.GroupSize, len(payload), len(res.Payload)),
			g*float64(probes), float64(probes)+1, !ok)
		if ok {
			m.traceRoot(trace, "op.read&del", cls, opStart, false, "")
			return obj, true, nil
		}
	}
	m.traceRoot(trace, "op.read&del", lastCls, opStart, true, "no match")
	return tuple.Tuple{}, false, nil
}

// Swap atomically replaces the oldest object matching tp with repl: the
// removal and insertion execute as ONE ordered command, so no concurrent
// operation can observe the gap between them (the tuple-swap operator of
// Bakken & Schlichting, cited in §1 for reliable bag-of-task programs).
// The replacement must belong to the same object class as the template's
// match — cross-class swaps cannot be atomic under per-class groups.
// Returns the removed object; ok=false (with repl NOT inserted) when
// nothing matched.
func (m *Machine) Swap(tp tuple.Template, repl tuple.Tuple) (tuple.Tuple, bool, error) {
	if m.isDown() {
		return tuple.Tuple{}, false, ErrMachineDown
	}
	repl = repl.WithID(m.idgen.Next())
	cls := m.cfg.Classifier.ClassOf(repl)
	inList := false
	for _, c := range m.cfg.Classifier.SearchList(tp) {
		if c == cls {
			inList = true
			break
		}
	}
	if !inList {
		return tuple.Tuple{}, false, fmt.Errorf(
			"swap: replacement class %s not reachable by the template (cross-class swap)", cls)
	}
	start := time.Now()
	trace := m.mintTrace()
	payload := encodeCommand(&command{kind: cmdSwap, class: cls, tpl: tp, obj: repl})
	res, err := m.gcastT(m.groupsOf(cls).wg, payload, trace)
	if err != nil {
		m.traceRoot(trace, "op.swap", cls, start, true, "error")
		return tuple.Tuple{}, false, fmt.Errorf("swap: %w", err)
	}
	if res.Fail && res.GroupSize == 0 {
		m.ftcViolation(OpSwap, cls)
		m.traceRoot(trace, "op.swap", cls, start, true, "no replicas")
		return tuple.Tuple{}, false, ErrNoReplicas
	}
	old, ok, probes := decodeResult(res)
	g := float64(res.GroupSize)
	m.record(OpSwap, start,
		m.cfg.Model.RemoteRead(res.GroupSize, len(payload), len(res.Payload)),
		g*float64(probes), float64(probes)+1, !ok)
	m.traceRoot(trace, "op.swap", cls, start, !ok, "")
	return old, ok, nil
}

// decodeResult unpacks a gcast reply into a tuple.
func decodeResult(res vsync.Result) (tuple.Tuple, bool, int) {
	if res.Fail || len(res.Payload) == 0 {
		// A fail reply may still carry probe accounting.
		if r, err := decodeResponse(res.Payload); err == nil {
			return tuple.Tuple{}, false, int(r.probes)
		}
		return tuple.Tuple{}, false, 0
	}
	r, err := decodeResponse(res.Payload)
	if err != nil || !r.ok {
		return tuple.Tuple{}, false, 0
	}
	return r.obj, true, int(r.probes)
}

// --- adaptive policy plumbing (§5.1) ---

// policyFor returns this machine's policy for a class, creating it lazily.
func (m *Machine) policyFor(cls class.ID) adaptive.Policy {
	p, ok := m.policies[cls]
	if !ok {
		p = m.cfg.policyFor(cls)
		m.policies[cls] = p
	}
	return p
}

// gaugeFor returns the class's policy-counter gauge; callers hold polMu.
func (m *Machine) gaugeFor(cls class.ID) *obs.Gauge {
	g, ok := m.polGauges[cls]
	if !ok {
		g = m.o.Gauge(m.o.Series("core.policy.counter.{class}", string(cls)))
		m.polGauges[cls] = g
	}
	return g
}

// policyThreshold extracts the join threshold K when the policy exposes it.
func policyThreshold(p adaptive.Policy) int {
	if t, ok := p.(adaptive.Thresholded); ok {
		return t.Threshold()
	}
	return 0
}

// policyRead feeds a local compute process's read into the policy and
// executes a Join decision.
func (m *Machine) policyRead(cls class.ID, member bool, rgSize int) {
	m.polMu.Lock()
	p := m.policyFor(cls)
	joinCost := maxInt(m.srv.classLen(cls), 1)
	ca, costAware := p.(adaptive.CostAware)
	if costAware {
		ca.ObserveJoinCost(joinCost)
	}
	d := p.LocalRead(member, rgSize)
	cnt := p.Counter()
	m.gaugeFor(cls).Set(int64(cnt))
	trigger := d == adaptive.Join && !member && !m.moving[cls] && !m.basic[cls]
	if trigger {
		m.moving[cls] = true
	}
	if !m.basic[cls] {
		m.auditFor(cls, costAware).read(member, rgSize, joinCost, trigger)
	}
	var thr int
	var name string
	if trigger { // Name formats with Sprintf: only the event reads it
		thr, name = policyThreshold(p), p.Name()
	}
	m.polMu.Unlock()
	if trigger {
		m.cPolicyJoin.Inc()
		m.o.Emit("policy-join",
			obs.KV("class", cls), obs.KV("counter", cnt),
			obs.KV("threshold", thr), obs.KV("policy", name))
		m.enqueueMove(cls, func() { m.doJoin(cls) })
	}
}

// onUpdate is the server's hook: an insert or remove was applied to a
// class this machine replicates; run the policy decay and execute a Leave
// decision. Called from the vsync delivery path, so membership changes are
// deferred to the action worker.
func (m *Machine) onUpdate(cls class.ID) {
	m.polMu.Lock()
	p := m.policyFor(cls)
	d := p.Update(true)
	cnt := p.Counter()
	m.gaugeFor(cls).Set(int64(cnt))
	trigger := d == adaptive.Leave && !m.basic[cls] && !m.moving[cls]
	if trigger {
		m.moving[cls] = true
	}
	if !m.basic[cls] {
		_, costAware := p.(adaptive.CostAware)
		m.auditFor(cls, costAware).update(maxInt(m.srv.classLen(cls), 1))
	}
	var thr int
	var name string
	if trigger {
		thr, name = policyThreshold(p), p.Name()
	}
	m.polMu.Unlock()
	if trigger {
		m.cPolicyLeave.Inc()
		m.o.Emit("policy-leave",
			obs.KV("class", cls), obs.KV("counter", cnt),
			obs.KV("threshold", thr), obs.KV("policy", name))
		m.enqueueMove(cls, func() { m.doLeave(cls) })
	}
}

// enqueueMove hands a membership change to the action worker. It must
// never block: callers may be on the vsync event loop, and the worker may
// itself be waiting on that loop. A full queue drops the action and clears
// the in-flight flag — the next policy event simply re-triggers it.
func (m *Machine) enqueueMove(cls class.ID, f func()) {
	select {
	case m.actions <- f:
	case <-m.stopped:
		m.clearMoving(cls)
	default:
		m.clearMoving(cls)
	}
}

func (m *Machine) doJoin(cls class.ID) {
	defer m.clearMoving(cls)
	start := time.Now()
	if err := m.node.Join(m.groupsOf(cls).wg); err != nil {
		return
	}
	// Joining costs K time units (state copy, §5.1): account ℓ work.
	l := float64(maxInt(m.srv.classLen(cls), 1))
	m.record(OpJoin, start, m.cfg.Model.Msg(m.srv.classLen(cls)*32), l, l, false)
	m.o.Emit("g-join", obs.KV("class", cls), obs.KV("objects", m.srv.classLen(cls)))
}

func (m *Machine) doLeave(cls class.ID) {
	defer m.clearMoving(cls)
	// Re-check: a racing read may have re-raised the counter; the policy
	// said Leave at decision time, which the competitive analysis permits
	// to execute (events are serialized there). Here we just execute.
	if !m.node.Member(m.groupsOf(cls).wg) {
		return
	}
	start := time.Now()
	if err := m.node.Leave(m.groupsOf(cls).wg); err != nil {
		return
	}
	m.record(OpLeave, start, 0, 0, 0, false)
	m.o.Emit("g-leave", obs.KV("class", cls))
}

func (m *Machine) clearMoving(cls class.ID) {
	m.polMu.Lock()
	defer m.polMu.Unlock()
	delete(m.moving, cls)
}

// MakeBasic promotes this machine to basic support for a class (§5.2
// support maintenance): it joins the class's write group — and read group
// when read groups are enabled — receiving a state transfer, and marks the
// class basic so the adaptive policy can never leave it. Blocking; called
// by the cluster's support-selection path.
func (m *Machine) MakeBasic(cls class.ID) error {
	m.polMu.Lock()
	m.basic[cls] = true
	m.polMu.Unlock()
	start := time.Now()
	if err := m.node.Join(m.groupsOf(cls).wg); err != nil {
		return fmt.Errorf("machine %d: promote to B(%s): %w", m.id, cls, err)
	}
	if m.cfg.UseReadGroups {
		if err := m.node.Join(m.groupsOf(cls).rg); err != nil {
			return fmt.Errorf("machine %d: promote to rg(%s): %w", m.id, cls, err)
		}
	}
	l := float64(maxInt(m.srv.classLen(cls), 1))
	m.record(OpJoin, start, m.cfg.Model.Msg(m.srv.classLen(cls)*32), l, l, false)
	m.o.Emit("make-basic", obs.KV("class", cls), obs.KV("objects", m.srv.classLen(cls)))
	return nil
}

// PolicyCounter exposes the class's adaptive counter (tests, ablations).
func (m *Machine) PolicyCounter(cls class.ID) int {
	m.polMu.Lock()
	defer m.polMu.Unlock()
	return m.policyFor(cls).Counter()
}

// --- marker wakeups ---

// notifyReader pings a remote machine whose marker fired.
func (m *Machine) notifyReader(to transport.NodeID) {
	_ = m.node.SendApp(to, []byte{1})
}

// wake releases every goroutine blocked in waitWake.
func (m *Machine) wake() {
	m.wakeMu.Lock()
	defer m.wakeMu.Unlock()
	close(m.wakeCh)
	m.wakeCh = make(chan struct{})
}

// wakeChan returns the current wakeup barrier channel.
func (m *Machine) wakeChan() <-chan struct{} {
	m.wakeMu.Lock()
	defer m.wakeMu.Unlock()
	return m.wakeCh
}

func (m *Machine) isDown() bool {
	select {
	case <-m.stopped:
		return true
	default:
		return false
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

package main

import (
	"fmt"
	"sync"
	"time"

	"paso/internal/adaptive"
	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/obs"
	"paso/internal/placement"
	"paso/internal/transport"
	"paso/internal/transport/tcp"
	"paso/internal/tuple"
)

// lambda is the replication degree of every workload: each class has λ+1 = 2
// basic-support machines out of 3.
const lambda = 1

// exactClassifier is an exact-N-class classifier: class cK holds every
// tuple named "cK". Unlike class.NameArity it adds no per-arity catch-all
// classes, so the class universe is exactly what the workload drives.
type exactClassifier struct {
	ids   []class.ID
	index map[string]int
}

func newExactClassifier(names []string) *exactClassifier {
	ec := &exactClassifier{index: make(map[string]int, len(names))}
	for i, n := range names {
		ec.ids = append(ec.ids, class.ID(n))
		ec.index[n] = i
	}
	return ec
}

func (ec *exactClassifier) ClassOf(t tuple.Tuple) class.ID {
	return ec.ids[ec.index[t.Name()]]
}

func (ec *exactClassifier) SearchList(tp tuple.Template) []class.ID {
	if name, ok := tp.Name(); ok {
		if i, known := ec.index[name]; known {
			return ec.ids[i : i+1]
		}
	}
	return ec.ids
}

func (ec *exactClassifier) Classes() []class.ID { return append([]class.ID(nil), ec.ids...) }

// cluster is a running 3-machine loopback-TCP PASO cluster inside this
// process. The machines share one Obs so transport and stage metrics
// aggregate cluster-wide.
type cluster struct {
	eps      []*tcp.Endpoint
	machines []*core.Machine
	classes  []class.ID
	obs      *obs.Obs
	// basic[m][c] reports whether machine m is basic support for class c.
	basic [][]bool
}

// hooks are the seams the traced run decorates; the untraced run leaves
// them nil and hands the cluster its parts undecorated.
type hooks struct {
	endpoint   func(m int, ep *tcp.Endpoint) transport.Endpoint
	classifier func(m int, c class.Classifier) class.Classifier
	policy     func(m, c int, basic bool, p adaptive.Policy) adaptive.Policy
}

// tcpOptions are the endpoint settings of every cluster and replay. The
// benchmark injects no faults, so the fail timeout is generous: a detector
// that fires because the 2-CPU box was busy would only add noise.
func tcpOptions(o *obs.Obs) tcp.Options {
	return tcp.Options{HeartbeatInterval: 10 * time.Millisecond, FailTimeout: 2 * time.Second, Obs: o}
}

// listenMesh opens n loopback endpoints, peers them fully, and waits for
// every failure detector to see every node.
func listenMesh(n int, o *obs.Obs) ([]*tcp.Endpoint, error) {
	eps := make([]*tcp.Endpoint, 0, n)
	fail := func(err error) ([]*tcp.Endpoint, error) {
		for _, ep := range eps {
			ep.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		ep, err := tcp.Listen(transport.NodeID(i+1), "127.0.0.1:0", tcpOptions(o))
		if err != nil {
			return fail(err)
		}
		eps = append(eps, ep)
	}
	for i, ep := range eps {
		for j, peer := range eps {
			if i != j {
				ep.AddPeer(peer.ID(), peer.Addr())
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, ep := range eps {
		for len(ep.Alive()) != n {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("failure detectors never converged"))
			}
			time.Sleep(time.Millisecond)
		}
	}
	return eps, nil
}

// startCluster is the measured set-up: listen, mesh, detector convergence,
// concurrent StartMachine joins, then the concurrent preload.
func startCluster(in *inputs, hk hooks) (*cluster, error) {
	s := in.spec
	o := obs.Nop()
	eps, err := listenMesh(machines, o)
	if err != nil {
		return nil, err
	}
	cl := &cluster{eps: eps, obs: o, basic: make([][]bool, machines)}
	ok := false
	defer func() {
		if !ok {
			cl.close()
		}
	}()

	classifier := newExactClassifier(in.names)
	cl.classes = classifier.Classes()
	cfg := core.Config{
		Lambda:       lambda,
		StoreKind:    s.store,
		TreeKeyField: 1,
		Placement:    s.placement,
		LeasedReads:  s.leases,
		Obs:          o,
	}

	// Basic supports: placement's assignment when sequencing is placed (so
	// storage and sequencing co-locate), round-robin when the workload asks
	// for one non-basic machine per class, machines 1..λ+1 otherwise.
	for m := range cl.basic {
		cl.basic[m] = make([]bool, s.classes)
	}
	switch {
	case s.placement:
		all := make([]transport.NodeID, machines)
		for i := range all {
			all[i] = transport.NodeID(i + 1)
		}
		members := placement.New(cl.classes, lambda).Assign(all).Members
		for c, cls := range cl.classes {
			for _, id := range members[cls] {
				cl.basic[int(id)-1][c] = true
			}
		}
	case s.roundSup:
		for c := range cl.classes {
			cl.basic[c%machines][c] = true
			cl.basic[(c+1)%machines][c] = true
		}
	default:
		for m := 0; m <= lambda; m++ {
			for c := range cl.classes {
				cl.basic[m][c] = true
			}
		}
	}

	if s.policyK > 0 {
		if _, err := adaptive.NewBasic(s.policyK); err != nil {
			return nil, err
		}
	}
	cl.machines = make([]*core.Machine, machines)
	errs := make([]error, machines)
	var wg sync.WaitGroup
	for m := 0; m < machines; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			c := cfg
			c.Classifier = classifier
			if hk.classifier != nil {
				c.Classifier = hk.classifier(m, classifier)
			}
			if s.policyK > 0 {
				c.NewPolicy = func(cls class.ID) adaptive.Policy {
					p, _ := adaptive.NewBasic(s.policyK) // K was validated above
					if hk.policy != nil {
						ci := classifier.index[string(cls)]
						return hk.policy(m, ci, cl.basic[m][ci], p)
					}
					return p
				}
			}
			var ep transport.Endpoint = eps[m]
			if hk.endpoint != nil {
				ep = hk.endpoint(m, eps[m])
			}
			var basics []class.ID
			for c, b := range cl.basic[m] {
				if b {
					basics = append(basics, cl.classes[c])
				}
			}
			cl.machines[m], errs[m] = core.StartMachine(ep, c, basics, 1)
		}(m)
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("machine %d: %w", m+1, err)
		}
	}

	// Concurrent preload, spread over the machines.
	const loaders = 12
	perr := make([]error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(in.preload); i += loaders {
				if _, err := cl.machines[l%machines].Insert(in.preload[i].tup); err != nil {
					perr[l] = err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	for _, err := range perr {
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	ok = true
	return cl, nil
}

// close stops the machines, then the endpoints, and returns once their
// goroutines have exited. Safe on a partially built cluster.
func (cl *cluster) close() {
	for _, m := range cl.machines {
		if m != nil {
			m.Stop()
		}
	}
	for _, ep := range cl.eps {
		ep.Close()
	}
}

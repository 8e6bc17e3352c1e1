package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/cost"
	"paso/internal/load"
	"paso/internal/obs"
	"paso/internal/simnet"
	"paso/internal/storage"
	"paso/internal/transport/tcp"
	"paso/internal/tuple"
)

// benchConfig builds the machine config every load experiment uses: λ=1
// (λ=0 for single-machine clusters, which cannot replicate) over a hash
// store. classes ≤ 1 keeps the historical single "job" class sequenced by
// the lowest live machine, so older trajectory points stay comparable;
// classes > 1 switches to an exact N-class universe with sharded
// coordinator placement — the multi-class scaling mode (EXPERIMENTS.md,
// E19). leases turns on the leased-read fast
// path (E21); it needs a non-member membership source, so leased runs imply
// placement even for one class.
func benchConfig(machines, classes int, leases bool) core.Config {
	cfg := core.Config{
		Classifier: class.NewNameArity([]string{"job"}, 3),
		Lambda:     1,
		StoreKind:  storage.KindHash,
	}
	if classes > 1 {
		cfg.Classifier = newBenchClassifier(classes)
		cfg.Placement = true
	}
	if leases {
		cfg.LeasedReads = true
		if classes <= 1 {
			// Lease targets come from the placement assignment; without it
			// (and with no pinned Support) every read would silently fall
			// back and the leases=on run would measure nothing. The
			// workload's plain "job" tuples still run: unknown names land in
			// benchClassifier's class 0 and searches cover every class.
			cfg.Classifier = newBenchClassifier(1)
			cfg.Placement = true
		}
	}
	if machines < 2 {
		cfg.Lambda = 0
	}
	return cfg
}

// benchClassifier is an exact-N-class classifier for the multi-class load
// experiments: class jobK holds every tuple named "jobK", nothing else.
// Unlike NameArity it adds no per-arity catchall classes, so the placement
// cap ⌈N/m⌉ is computed over exactly the N classes the workload drives.
type benchClassifier struct {
	names   []string
	classes []class.ID
	index   map[string]int
}

var _ class.Classifier = (*benchClassifier)(nil)

func newBenchClassifier(n int) *benchClassifier {
	bc := &benchClassifier{
		names:   make([]string, n),
		classes: make([]class.ID, n),
		index:   make(map[string]int, n),
	}
	for i := 0; i < n; i++ {
		bc.names[i] = fmt.Sprintf("job%d", i)
		bc.classes[i] = class.ID(bc.names[i])
		bc.index[bc.names[i]] = i
	}
	return bc
}

// ClassOf implements class.Classifier. Unknown names fall into class 0 —
// the bench workload never produces them.
func (bc *benchClassifier) ClassOf(t tuple.Tuple) class.ID {
	if i, ok := bc.index[t.Name()]; ok {
		return bc.classes[i]
	}
	return bc.classes[0]
}

// SearchList implements class.Classifier: a template naming one class
// searches only it; anything else searches every class.
func (bc *benchClassifier) SearchList(tp tuple.Template) []class.ID {
	if name, ok := tp.Name(); ok {
		if i, known := bc.index[name]; known {
			return bc.classes[i : i+1]
		}
	}
	return bc.classes
}

// Classes implements class.Classifier.
func (bc *benchClassifier) Classes() []class.ID {
	return append([]class.ID(nil), bc.classes...)
}

// startCluster stands the load experiments' cluster up on the named fabric
// — "tcp" for real loopback sockets, "simnet" for the simulated LAN —
// through the one assembly every harness shares (core.NewClusterOn).
// Machines and endpoints share o, so transport and stage metrics aggregate
// cluster-wide.
func startCluster(transport string, machines, classes int, leases bool, o *obs.Obs) (*core.Cluster, error) {
	var fabric core.Fabric
	switch transport {
	case "tcp":
		fabric = tcp.NewLoopback(tcp.Options{
			HeartbeatInterval: 10 * time.Millisecond,
			FailTimeout:       500 * time.Millisecond,
			Obs:               o,
		})
	case "simnet":
		fabric = core.SimFabric(simnet.New(cost.DefaultModel()))
	default:
		return nil, fmt.Errorf("unknown transport %q (want tcp or simnet)", transport)
	}
	cfg := benchConfig(machines, classes, leases)
	cfg.Obs = o
	return core.NewClusterOn(fabric, cfg, machines)
}

// jobTemplate matches any "job" tuple — the read/take query of the
// standard load mix.
var jobTemplate = tuple.NewTemplate(tuple.Eq(tuple.String("job")), tuple.Any(tuple.KindInt))

// zipfS and zipfV parameterize the multi-class popularity skew: s = 1.1
// is a mild, realistic skew (the hottest of 8 classes draws ~25% of ops)
// that still leaves every class warm.
const (
	zipfS = 1.1
	zipfV = 1.0
)

// workload is the class-aware op generator the load experiments share: one
// name and one exact-match template per class, with a per-worker Zipf pick
// over classes so popular classes stay hotter than the tail (a uniform mix
// would understate per-coordinator contention).
type benchWorkload struct {
	names []string
	tpls  []tuple.Template
	zipfs []*rand.Zipf // one per worker; nil in single-class mode
	rngs  []*rand.Rand
}

// newWorkload builds the generator for the given class count (≤ 1 keeps
// the historical single "job" class) and worker pool.
func newWorkload(classes, workers int, seed int64) *benchWorkload {
	wl := &benchWorkload{rngs: make([]*rand.Rand, workers)}
	for w := range wl.rngs {
		wl.rngs[w] = rand.New(rand.NewSource(seed + int64(w)))
	}
	if classes <= 1 {
		wl.names = []string{"job"}
		wl.tpls = []tuple.Template{jobTemplate}
		return wl
	}
	for i := 0; i < classes; i++ {
		name := fmt.Sprintf("job%d", i)
		wl.names = append(wl.names, name)
		wl.tpls = append(wl.tpls, tuple.NewTemplate(
			tuple.Eq(tuple.String(name)), tuple.Any(tuple.KindInt)))
	}
	wl.zipfs = make([]*rand.Zipf, workers)
	for w := range wl.zipfs {
		wl.zipfs[w] = rand.NewZipf(wl.rngs[w], zipfS, zipfV, uint64(classes-1))
	}
	return wl
}

// pick returns worker w's next class index.
func (wl *benchWorkload) pick(w int) int {
	if wl.zipfs == nil {
		return 0
	}
	return int(wl.zipfs[w%len(wl.zipfs)].Uint64())
}

// op runs one operation of the standard mix for worker w against machine
// m, Zipf-picking the class.
func (wl *benchWorkload) op(m *core.Machine, w int, seq int64, insertFrac, readFrac float64) (err error) {
	r := wl.rngs[w%len(wl.rngs)]
	c := wl.pick(w)
	switch p := r.Float64(); {
	case p < insertFrac:
		_, err = m.Insert(tuple.Make(tuple.String(wl.names[c]), tuple.Int(seq)))
	case p < insertFrac+readFrac:
		_, _, err = m.Read(wl.tpls[c])
	default:
		_, _, err = m.ReadDel(wl.tpls[c])
	}
	return err
}

// preload seeds the space with n tuples spread round-robin over the
// machines and classes so early reads hit everywhere.
func (wl *benchWorkload) preload(machines []*core.Machine, n int) error {
	for i := 0; i < n; i++ {
		if _, err := machines[i%len(machines)].Insert(
			tuple.Make(tuple.String(wl.names[i%len(wl.names)]), tuple.Int(int64(i)))); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// mix adapts the workload to the open-loop generator: worker w drives
// machines[w mod M] with its own seeded RNG, so the mix is reproducible and
// workers never share RNG state.
func (wl *benchWorkload) mix(machines []*core.Machine, insertFrac, readFrac float64) load.Op {
	return func(w int, seq int64) error {
		return wl.op(machines[w%len(machines)], w, seq, insertFrac, readFrac)
	}
}

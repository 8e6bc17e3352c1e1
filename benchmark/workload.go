package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"paso/internal/storage"
	"paso/internal/tuple"
)

// machines is the cluster size every workload runs on.
const machines = 3

// seqLen is the length of one client's generated op sequence. Clients cycle
// through it, so every sequence holds exactly as many inserts as read&dels
// per class: a full cycle leaves each class's population where it started
// and the store neither drains nor grows however long the window is.
const seqLen = 4096

// phaseLen is the length of one adaptive-phased phase. Two phases make one
// second, so every 1-second slice of the window holds one read-heavy and one
// write-heavy phase and the slices are alike; with the issue's 2-second
// phases the slice p99s fell into two populations and their median (p99_ms)
// jumped between them from run to run (spread 25%, against 5% this way).
const phaseLen = 500 * time.Millisecond

// mix is an operation mix; the remainder after insert and read is read&del.
// Every workload keeps insert == read&del so the population is stationary.
type mix struct{ insert, read float64 }

// spec describes one workload: the cluster configuration it runs on, the
// load shape, and why it exists.
type spec struct {
	name string
	why  string

	classes   int          // exact class universe: names c0..c(N-1)
	store     storage.Kind // per-class store
	placement bool         // placed coordinators (sharded sequencing)
	leases    bool         // leased local reads
	policyK   int          // adaptive.NewBasic(K) per (machine, class); 0 = static
	roundSup  bool         // round-robin basic supports instead of machines 1..λ+1

	clients  int     // issuing goroutines, client i on machine i mod 3
	openRate float64 // ops/s of the open loop; 0 = closed loop
	mixes    []mix   // one per phase; two mixes alternate every phaseLen
	zipf     bool    // Zipf(s=1.1) class popularity instead of uniform
	preload  int     // tuples inserted during set-up
	payload  int     // bytes field size; > 0 selects (name, key, bytes) tuples
	rangeW   int64   // width of range templates on the key; 0 = match-any
}

// keySpace bounds the int key of range workloads; with preload == keySpace
// distinct keys a width-8 range misses with probability about e^-8.
const keySpace = 20000

// specs lists the workloads in the order they run. The why strings are the
// ones BENCHMARK.json and the README carry.
var specs = []*spec{
	{
		name:    "mixed-sat",
		why:     "1 class, single sequencer, 32 closed-loop clients: the 36-42k ops/s plateau; vsync ordering and transport/tcp do nearly all the work",
		classes: 1, store: storage.KindHash,
		clients: 32, mixes: []mix{{0.30, 0.40}}, preload: 4096,
	},
	{
		name:    "mixed-paced",
		why:     "same cluster and mix, open loop at 24000 ops/s (a quarter of the plateau): batching that lifts mixed-sat by delaying a batch's first op shows its latency cost here",
		classes: 1, store: storage.KindHash,
		clients: 48, openRate: 24000, mixes: []mix{{0.30, 0.40}}, preload: 4096,
	},
	{
		name:    "sharded-reads",
		why:     "8 Zipf classes, placement and leased reads on, 5/90/5 mix: reads bypass the sequencer, so core's read path and lease fencing dominate; a sequencer gain should not show",
		classes: 8, store: storage.KindHash, placement: true, leases: true,
		clients: 16, mixes: []mix{{0.05, 0.90}}, zipf: true, preload: 4096,
	},
	{
		name:    "bulk-range",
		why:     "tree store of 20000 1-KiB tuples read by key range, 8 closed-loop clients: storage search, tuple codec and bytes on the wire dominate, ordering rounds/s are far below the plateau",
		classes: 1, store: storage.KindTree,
		clients: 8, mixes: []mix{{0.30, 0.40}}, preload: keySpace, payload: 1024, rangeW: 8,
	},
	{
		name:    "adaptive-phased",
		why:     "6 classes with one non-basic machine each, Basic(K=8) policy, alternating 0.5 s read-heavy and write-heavy phases: the only workload that runs the paper's join/leave algorithm",
		classes: 6, store: storage.KindHash, policyK: 8, roundSup: true,
		clients: 6, mixes: []mix{{0.025, 0.95}, {0.45, 0.10}}, preload: 4096,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// opKind is one of the three PASO primitives the benchmark issues.
type opKind uint8

const (
	opInsert opKind = iota
	opRead
	opReadDel
	numKinds
)

func (k opKind) String() string { return [...]string{"insert", "read", "read&del"}[k] }

// op is one generated operation. Tuples and templates are built with the
// inputs, before any cluster exists, so the measured loop only issues them.
type op struct {
	kind  opKind
	class int
	key   int64          // the insert's int field, or the centre of a range template
	tup   tuple.Tuple    // opInsert
	tpl   tuple.Template // opRead, opReadDel
}

// inputs is everything a run feeds the cluster, derived from (spec, seed)
// alone.
type inputs struct {
	spec     *spec
	names    []string
	payloads []tuple.Value // a few byte fields shared by every tuple that carries one
	preload  []op
	// seqs[phase][client] is a client's op sequence for one phase. An open
	// loop has one shared sequence (client 0), indexed by arrival number.
	seqs   [][][]op
	digest string
}

// nonBasicClasses returns the classes machine m (0-based) is not basic
// support for under round-robin supports with λ=1: class c is supported by
// machines c mod 3 and (c+1) mod 3.
func nonBasicClasses(m, classes int) []int {
	var out []int
	for c := 0; c < classes; c++ {
		if (c+2)%machines == m {
			out = append(out, c)
		}
	}
	return out
}

// build fills in the tuple or template an op issues.
func (in *inputs) build(o op) op {
	s := in.spec
	name := tuple.String(in.names[o.class])
	switch {
	case o.kind == opInsert && s.payload > 0:
		o.tup = tuple.Make(name, tuple.Int(o.key), in.payloads[int(o.key)%len(in.payloads)])
	case o.kind == opInsert:
		o.tup = tuple.Make(name, tuple.Int(o.key))
	case s.rangeW > 0:
		lo := min(max(o.key-s.rangeW/2, 0), keySpace-s.rangeW)
		o.tpl = tuple.NewTemplate(tuple.Eq(name),
			tuple.Range(tuple.Int(lo), tuple.Int(lo+s.rangeW-1)), tuple.Any(tuple.KindBytes))
	default:
		o.tpl = tuple.NewTemplate(tuple.Eq(name), tuple.Any(tuple.KindInt))
	}
	return o
}

// rekeyed returns the op a client issues on its cycle-th pass over its
// sequence. Match-any workloads repeat the sequence as is. A range workload
// may not: the same ranges taking from, and the same keys adding to, the same
// places every cycle would drain some key regions and pile up others, a
// drift no random stream has. From the second pass on, keys move to a
// position fixed by (key, cycle); a pair's insert and read&del share their
// key, so they move together.
func (in *inputs) rekeyed(o *op, cycle int) op {
	if cycle == 0 || in.spec.rangeW == 0 {
		return *o
	}
	x := uint64(o.key)*0x9E3779B97F4A7C15 + uint64(cycle)*0xBF58476D1CE4E5B9 // splitmix64 finaliser
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	moved := *o
	moved.key = int64(x % keySpace)
	return in.build(moved)
}

// generate builds a workload's inputs from the seed. It is the only place
// randomness enters a run.
func generate(s *spec, seed int64) *inputs {
	in := &inputs{spec: s}
	for c := 0; c < s.classes; c++ {
		in.names = append(in.names, fmt.Sprintf("c%d", c))
	}
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d\n", s.name, seed)
	for i := 0; s.payload > 0 && i < 16; i++ {
		b := make([]byte, s.payload)
		rng.Read(b)
		h.Write(b)
		in.payloads = append(in.payloads, tuple.Bytes(b))
	}
	var word [10]byte
	emit := func(o op) op {
		word[0], word[1] = byte(o.kind), byte(o.class)
		binary.LittleEndian.PutUint64(word[2:], uint64(o.key))
		h.Write(word[:])
		return in.build(o)
	}
	newKey := func() int64 {
		if s.rangeW > 0 {
			return rng.Int63n(keySpace)
		}
		return rng.Int63()
	}

	// Preload: round-robin over the classes; range workloads start with
	// every key present once.
	var perm []int
	if s.rangeW > 0 {
		perm = rng.Perm(s.preload)
	}
	for i := 0; i < s.preload; i++ {
		o := op{kind: opInsert, class: i % s.classes}
		if perm != nil {
			o.key = int64(perm[i])
		} else {
			o.key = newKey()
		}
		in.preload = append(in.preload, emit(o))
	}

	seqClients, n := s.clients, seqLen
	if s.openRate > 0 {
		// One arrival-indexed sequence, as long as the closed loops' total.
		seqClients, n = 1, seqLen*s.clients
	}
	for _, mx := range s.mixes {
		phase := make([][]op, seqClients)
		for c := range phase {
			pick := func() int { return rng.Intn(s.classes) }
			switch {
			case s.zipf:
				z := rand.NewZipf(rng, 1.1, 1.0, uint64(s.classes-1))
				pick = func() int { return int(z.Uint64()) }
			case s.roundSup:
				own := nonBasicClasses(c%machines, s.classes)
				pick = func() int { return own[rng.Intn(len(own))] }
			}
			pairs := int(mx.insert*float64(n) + 0.5)
			seq := make([]op, 0, n)
			for i := 0; i < pairs; i++ {
				// An insert and a read&del on the same class, and in a range
				// workload around the same key: the pair nets zero, class by
				// class and key region by key region, wherever the shuffle
				// puts its halves. Independent keys would leave each region's
				// population on an unbiased random walk that empties it.
				cls, key := pick(), newKey()
				seq = append(seq, op{kind: opInsert, class: cls, key: key},
					op{kind: opReadDel, class: cls, key: key})
			}
			for len(seq) < n {
				seq = append(seq, op{kind: opRead, class: pick(), key: newKey()})
			}
			rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
			for i := range seq {
				seq[i] = emit(seq[i])
			}
			phase[c] = seq
		}
		in.seqs = append(in.seqs, phase)
	}
	in.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return in
}

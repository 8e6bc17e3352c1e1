package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/storage"
	"paso/internal/transport"
	"paso/internal/tuple"
)

// cellF parses a float cell.
func cellF(t *testing.T, tb interface{ Cell(int, int) string }, row, col int) float64 {
	t.Helper()
	s := tb.Cell(row, col)
	s = strings.TrimSuffix(s, "ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, s, err)
	}
	return v
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tb := e.Run()
			if tb == nil {
				t.Fatal("nil table")
			}
			if tb.Rows() == 0 {
				t.Fatal("empty table")
			}
			if out := tb.Render(); !strings.Contains(out, e.ID) {
				t.Error("render missing id")
			}
		})
	}
}

func TestE1ModelMatchesPaperFormula(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E1InsertCost()
	for r := 0; r < tb.Rows(); r++ {
		model := cellF(t, tb, r, 5)
		paper := cellF(t, tb, r, 6)
		if rel := (model - paper) / paper; rel > 0.02 || rel < -0.02 {
			t.Errorf("row %d: model %v vs paper %v (rel %.3f)", r, model, paper, rel)
		}
		bus := cellF(t, tb, r, 7)
		if bus < model {
			t.Errorf("row %d: bus cost %v below model %v — protocol can't beat the model", r, bus, model)
		}
	}
}

func TestE4RatiosWithinBound(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E4BasicCompetitive()
	for r := 0; r < tb.Rows(); r++ {
		ratio := cellF(t, tb, r, 5)
		bound := cellF(t, tb, r, 6)
		if ratio > bound+1e-6 {
			t.Errorf("row %d (%s): ratio %v > bound %v", r, tb.Cell(r, 2), ratio, bound)
		}
	}
}

// TestE8Shape checks §4.3's comparison: busy-wait frames grow with the
// wait, marker frames do not. Marker frames per trial vary by a fraction of
// a frame from run to run (how acks share frames), so flat means within one
// frame per trial; busy-wait grows by dozens.
func TestE8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E8BlockingRead()
	if len(tb.Notes) != 1 { // the caption alone; a failed trial adds a note
		t.Fatalf("E8 notes %q", tb.Notes)
	}
	frames := make(map[string]float64) // by "strategy delay"
	for r := 0; r < tb.Rows(); r++ {
		frames[tb.Cell(r, 0)+" "+tb.Cell(r, 1)] = cellF(t, tb, r, 3)
	}
	if busy5, busy25 := frames["busy-wait 5ms"], frames["busy-wait 25ms"]; busy25 <= busy5 {
		t.Errorf("busy-wait frames %v at 25ms, not above %v at 5ms", busy25, busy5)
	}
	if m5, m25 := frames["markers 5ms"], frames["markers 25ms"]; m5 == 0 || math.Abs(m25-m5) >= 1 {
		t.Errorf("marker frames %v at 5ms and %v at 25ms, want equal within one", m5, m25)
	}
}

func TestE4AdversarialTight(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E4BasicCompetitive()
	sawTight := false
	for r := 0; r < tb.Rows(); r++ {
		if tb.Cell(r, 2) == "adversarial" && cellF(t, tb, r, 5) > 2.0 {
			sawTight = true
		}
	}
	if !sawTight {
		t.Error("no adversarial row got ratio > 2: the lower-bound demonstration is missing")
	}
}

func TestE7AdversarialSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E7SupportSelection()
	found := false
	for r := 0; r < tb.Rows(); r++ {
		if tb.Cell(r, 2) == "roundrobin(adv)" && tb.Cell(r, 3) == "lrf" {
			if ratio := cellF(t, tb, r, 6); ratio > 4 {
				found = true
			}
		}
	}
	if !found {
		t.Error("LRF did not show the Ω(n−λ−1) separation on the adversarial trace")
	}
}

func TestE9TransferScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E9Recovery()
	// Rows are (l, objsize) pairs; within the same objsize, transfer bytes
	// must grow roughly linearly with l.
	type key struct{ size string }
	byl := make(map[string][][2]float64)
	for r := 0; r < tb.Rows(); r++ {
		size := tb.Cell(r, 1)
		l := cellF(t, tb, r, 0)
		bytes := cellF(t, tb, r, 2)
		byl[size] = append(byl[size], [2]float64{l, bytes})
	}
	for size, points := range byl {
		if len(points) < 2 {
			continue
		}
		// Compare the two largest ℓ: the smallest row carries fixed
		// recovery overhead (sync/join frames) that dilutes the slope.
		a, b := points[len(points)-2], points[len(points)-1]
		growth := (b[1] / a[1]) / (b[0] / a[0])
		if growth < 0.5 || growth > 2.0 {
			t.Errorf("objsize %s: transfer growth factor %.2f not linear in ℓ", size, growth)
		}
	}
}

func TestE10AdaptiveBeatsStaticOnLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E10AdaptiveVsStatic()
	costs := make(map[string]map[string]float64) // workload → policy → msg-cost
	for r := 0; r < tb.Rows(); r++ {
		wl, pol := tb.Cell(r, 0), tb.Cell(r, 1)
		if costs[wl] == nil {
			costs[wl] = make(map[string]float64)
		}
		costs[wl][pol] = cellF(t, tb, r, 2)
	}
	if c := costs["hot-reader"]; c["basic(K=8)"] >= c["static"] {
		t.Errorf("hot-reader: basic %.0f not below static %.0f", c["basic(K=8)"], c["static"])
	}
	if c := costs["shifting"]; c["basic(K=8)"] >= c["static"] {
		t.Errorf("shifting: basic %.0f not below static %.0f", c["basic(K=8)"], c["static"])
	}
}

func TestE11StaticLosesDataAdaptiveSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E11SupportMaintenance()
	got := make(map[string][2]string) // selector → (violations, intact)
	for r := 0; r < tb.Rows(); r++ {
		got[tb.Cell(r, 0)] = [2]string{tb.Cell(r, 2), tb.Cell(r, 4)}
	}
	if got["static"][1] != "LOST" {
		t.Errorf("static survived overlapping churn: %v (the ablation should show the loss)", got["static"])
	}
	if got["lrf"][0] != "0" || got["lrf"][1] != "yes" {
		t.Errorf("lrf failed the churn: %v", got["lrf"])
	}
}

func TestE12ChurnDecreasesWithK(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E12KSweep()
	joins := make(map[string]map[int]float64)
	for r := 0; r < tb.Rows(); r++ {
		wl := tb.Cell(r, 0)
		k := int(cellF(t, tb, r, 1))
		if joins[wl] == nil {
			joins[wl] = make(map[int]float64)
		}
		joins[wl][k] = cellF(t, tb, r, 5)
	}
	if joins["random50"][1] <= joins["random50"][128] {
		t.Errorf("churn did not decrease with K: %v", joins["random50"])
	}
	// Ratios stay within Theorem 2 at every K.
	for r := 0; r < tb.Rows(); r++ {
		k := cellF(t, tb, r, 1)
		if ratio := cellF(t, tb, r, 4); ratio > 3+1/k+1e-9 {
			t.Errorf("row %d: ratio %v exceeds bound at K=%v", r, ratio, k)
		}
	}
}

func TestE13PartitioningReducesWork(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E13ClassPartitioning()
	work := make(map[string]float64)
	for r := 0; r < tb.Rows(); r++ {
		work[tb.Cell(r, 0)] = cellF(t, tb, r, 4)
	}
	if work["range-partitioned"] >= work["single-class"]/2 {
		t.Errorf("partitioning did not cut per-query work: %v", work)
	}
}

func TestE15FlatVsLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E15Scalability()
	if tb.Rows() < 3 {
		t.Fatal("too few rows")
	}
	firstIns := cellF(t, tb, 0, 2)
	lastIns := cellF(t, tb, tb.Rows()-1, 2)
	if lastIns > firstIns*1.2 {
		t.Errorf("λ+1-replicated insert cost grew with n: %v → %v", firstIns, lastIns)
	}
	firstFull := cellF(t, tb, 0, 4)
	lastFull := cellF(t, tb, tb.Rows()-1, 4)
	firstN := cellF(t, tb, 0, 0)
	lastN := cellF(t, tb, tb.Rows()-1, 0)
	growth := (lastFull / firstFull) / (lastN / firstN)
	if growth < 0.5 || growth > 2 {
		t.Errorf("full-replication cost not ~linear in n: growth factor %v", growth)
	}
}

func TestE16SystemBound(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E16SystemCompetitive()
	for r := 0; r < tb.Rows(); r++ {
		ratio := cellF(t, tb, r, 6)
		bound := cellF(t, tb, r, 7)
		if ratio > bound+1e-9 {
			t.Errorf("row %d (%s): system ratio %v > bound %v", r, tb.Cell(r, 3), ratio, bound)
		}
	}
}

// TestRunSweepMultiClass keeps the check the retired multi-class load
// sweep made, under its old name: 8 classes over 3 machines with placed
// per-class coordinators on the simulated LAN, a preload, then a Zipf-mixed
// insert/read/read&del workload from 8 concurrent workers. Every operation
// must succeed and the replicas must converge once the workers stop.
func TestRunSweepMultiClass(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent multi-class run; skipped in -short mode")
	}
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("job%d", i)
	}
	c, err := core.NewCluster(core.Config{
		Classifier: class.NewNameArity(names, 2),
		Lambda:     1,
		StoreKind:  storage.KindHash,
		Placement:  true,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if got := len(c.Classes()); got < len(names) {
		t.Fatalf("classes = %d, want at least %d", got, len(names))
	}
	for i := 0; i < 64; i++ {
		obj := tuple.Make(tuple.String(names[i%len(names)]), tuple.Int(int64(-1-i)))
		if _, err := c.Machine(transport.NodeID(i%3 + 1)).Insert(obj); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}

	const workers, ops = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := c.Machine(transport.NodeID(w%3 + 1))
			r := rand.New(rand.NewSource(int64(w) + 1))
			zipf := rand.NewZipf(r, 1.1, 1, uint64(len(names)-1))
			for i := 0; i < ops; i++ {
				name := names[zipf.Uint64()]
				tpl := tuple.NewTemplate(tuple.Eq(tuple.String(name)), tuple.Any(tuple.KindInt))
				var err error
				switch p := r.Float64(); {
				case p < 0.4:
					_, err = m.Insert(tuple.Make(tuple.String(name), tuple.Int(int64(w*ops+i))))
				case p < 0.8:
					_, _, err = m.Read(tpl)
				default:
					_, _, err = m.ReadDel(tpl)
				}
				if err != nil {
					t.Errorf("worker %d op %d on %s: %v", w, i, name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for err := c.CheckConverged(); err != nil; err = c.CheckConverged() {
		if time.Now().After(deadline) {
			t.Fatalf("replicas never converged: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestE4RandomizedBeatsDeterministicAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb := E4BasicCompetitive()
	// Pair adversarial rows with their randomized companions (same λ, K).
	type key struct{ l, k string }
	det := make(map[key]float64)
	rnd := make(map[key]float64)
	for r := 0; r < tb.Rows(); r++ {
		k := key{tb.Cell(r, 0), tb.Cell(r, 1)}
		switch tb.Cell(r, 2) {
		case "adversarial":
			det[k] = cellF(t, tb, r, 5)
		case "adversarial(rand)":
			rnd[k] = cellF(t, tb, r, 5)
		}
	}
	if len(rnd) == 0 {
		t.Fatal("no randomized rows")
	}
	strictWins := 0
	for k, dr := range det {
		rr, ok := rnd[k]
		if !ok {
			t.Errorf("missing randomized row for %v", k)
			continue
		}
		// When a single remote read already exceeds K (rgSize > K), both
		// variants join immediately and tie; otherwise randomization must
		// not hurt and should usually help.
		if rr > dr+1e-9 {
			t.Errorf("λ=%s K=%s: randomized ratio %.3f above deterministic %.3f",
				k.l, k.k, rr, dr)
		}
		if rr < dr-1e-9 {
			strictWins++
		}
	}
	if strictWins < len(det)/2 {
		t.Errorf("randomization strictly improved only %d of %d settings", strictWins, len(det))
	}
}

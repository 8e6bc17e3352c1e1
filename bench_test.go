package paso

import (
	"testing"
	"time"

	"paso/internal/adaptive"
	"paso/internal/experiments"
	"paso/internal/opt"
	"paso/internal/paging"
	"paso/internal/stats"
	"paso/internal/storage"
	"paso/internal/tuple"
	"paso/internal/workload"
)

// benchSink prevents dead-code elimination of experiment tables.
var benchSink *stats.Table

// --- one benchmark per paper artifact (see DESIGN.md §4) ---

func benchExperiment(b *testing.B, run func() *stats.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		benchSink = run()
	}
	if benchSink == nil || benchSink.Rows() == 0 {
		b.Fatal("experiment produced no rows")
	}
}

func BenchmarkE1InsertCost(b *testing.B)        { benchExperiment(b, experiments.E1InsertCost) }
func BenchmarkE2ReadCost(b *testing.B)          { benchExperiment(b, experiments.E2ReadCost) }
func BenchmarkE3ReadDelCost(b *testing.B)       { benchExperiment(b, experiments.E3ReadDelCost) }
func BenchmarkE4BasicCompetitive(b *testing.B)  { benchExperiment(b, experiments.E4BasicCompetitive) }
func BenchmarkE5QCostCompetitive(b *testing.B)  { benchExperiment(b, experiments.E5QCostCompetitive) }
func BenchmarkE6DoublingHalving(b *testing.B)   { benchExperiment(b, experiments.E6DoublingHalving) }
func BenchmarkE7SupportSelection(b *testing.B)  { benchExperiment(b, experiments.E7SupportSelection) }
func BenchmarkE8BlockingRead(b *testing.B)      { benchExperiment(b, experiments.E8BlockingRead) }
func BenchmarkE9Recovery(b *testing.B)          { benchExperiment(b, experiments.E9Recovery) }
func BenchmarkE10AdaptiveVsStatic(b *testing.B) { benchExperiment(b, experiments.E10AdaptiveVsStatic) }
func BenchmarkE11SupportMaintenance(b *testing.B) {
	benchExperiment(b, experiments.E11SupportMaintenance)
}
func BenchmarkE12KSweep(b *testing.B) { benchExperiment(b, experiments.E12KSweep) }
func BenchmarkE13ClassPartitioning(b *testing.B) {
	benchExperiment(b, experiments.E13ClassPartitioning)
}
func BenchmarkE14ResponseTime(b *testing.B) { benchExperiment(b, experiments.E14ResponseTime) }
func BenchmarkE15Scalability(b *testing.B)  { benchExperiment(b, experiments.E15Scalability) }
func BenchmarkE16SystemCompetitive(b *testing.B) {
	benchExperiment(b, experiments.E16SystemCompetitive)
}

// --- primitive micro-benchmarks on a live space ---

func benchSpace(b *testing.B, opts Options) *Space {
	b.Helper()
	s, err := New(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

func BenchmarkInsert(b *testing.B) {
	s := benchSpace(b, Options{Machines: 4, Policy: PolicyStatic})
	h := s.On(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(Str("bench"), I(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	reportOpCosts(b, s)
}

func BenchmarkReadLocal(b *testing.B) {
	s := benchSpace(b, Options{Machines: 4, Policy: PolicyStatic})
	// Machine 1 is in the single class's support (round-robin from 1).
	h := s.On(1)
	if _, err := h.Insert(Str("bench"), I(1)); err != nil {
		b.Fatal(err)
	}
	tpl := Match(Eq(Str("bench")), AnyInt())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := h.Read(tpl); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkReadRemote(b *testing.B) {
	s := benchSpace(b, Options{Machines: 4, Lambda: 1, Policy: PolicyStatic})
	if _, err := s.On(1).Insert(Str("bench"), I(1)); err != nil {
		b.Fatal(err)
	}
	// With λ=1 and round-robin support {1,2}, machine 4 reads remotely.
	h := s.On(4)
	tpl := Match(Eq(Str("bench")), AnyInt())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := h.Read(tpl); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
	reportOpCosts(b, s)
}

func BenchmarkTake(b *testing.B) {
	s := benchSpace(b, Options{Machines: 4, Policy: PolicyStatic})
	h := s.On(1)
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(Str("bench"), I(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	tpl := Match(Eq(Str("bench")), AnyInt())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := h.Take(tpl); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkTakeWaitRendezvous(b *testing.B) {
	s := benchSpace(b, Options{Machines: 3, TupleNames: []string{"rv"}})
	prod, cons := s.On(1), s.On(2)
	tpl := MatchName("rv", AnyInt())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, 1)
		go func(i int) {
			_, err := cons.TakeWait(tpl, 10*time.Second)
			done <- err
		}(i)
		if _, err := prod.Insert(Str("rv"), I(int64(i))); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// reportOpCosts attaches the α+β model costs as custom benchmark metrics.
func reportOpCosts(b *testing.B, s *Space) {
	var msg, work float64
	for _, m := range s.Cluster().Machines() {
		for _, st := range m.Stats() {
			msg += st.MsgCost
			work += st.Work
		}
	}
	b.ReportMetric(msg/float64(b.N), "msgcost/op")
	b.ReportMetric(work/float64(b.N), "work/op")
}

// --- substrate micro-benchmarks ---

func benchStore(b *testing.B, kind storage.Kind) {
	st, err := storage.New(kind, 1)
	if err != nil {
		b.Fatal(err)
	}
	const live = 1024
	for i := 0; i < live; i++ {
		st.Insert(uint64(i), tuple.New(
			tuple.ID{Origin: 1, Seq: uint64(i)},
			tuple.String("x"), tuple.Int(int64(i)),
		))
	}
	tpl := tuple.NewTemplate(tuple.Eq(tuple.String("x")), tuple.Eq(tuple.Int(512)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Read(tpl); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStoreHashRead(b *testing.B) { benchStore(b, storage.KindHash) }
func BenchmarkStoreTreeRead(b *testing.B) { benchStore(b, storage.KindTree) }
func BenchmarkStoreListRead(b *testing.B) { benchStore(b, storage.KindList) }

func BenchmarkOptimalDP(b *testing.B) {
	events := workload.RandomMix(workload.MixParams{
		Events: 100000, ReadFrac: 0.5, RgSize: 3, JoinCost: 16, QCost: 1, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := opt.Optimal(events)
		if s.Cost <= 0 {
			b.Fatal("degenerate OPT")
		}
	}
}

func BenchmarkPolicyBasic(b *testing.B) {
	events := workload.RandomMix(workload.MixParams{
		Events: 100000, ReadFrac: 0.5, RgSize: 3, JoinCost: 16, QCost: 1, Seed: 1,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := adaptive.NewBasic(16)
		res := opt.Run(p, events)
		if res.Cost <= 0 {
			b.Fatal("degenerate run")
		}
	}
}

func BenchmarkPagingLRU(b *testing.B) {
	trace := workload.UniformFailures(64, 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := (paging.LRU{}).Run(trace, 16); f == 0 {
			b.Fatal("no faults")
		}
	}
}

func BenchmarkPagingBelady(b *testing.B) {
	trace := workload.UniformFailures(64, 100000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := (paging.Belady{}).Run(trace, 16); f == 0 {
			b.Fatal("no faults")
		}
	}
}

func BenchmarkTupleEncode(b *testing.B) {
	tu := tuple.Make(tuple.String("bench"), tuple.Int(42), tuple.Bytes(make([]byte, 128)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tuple.EncodeTuple(tu)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

package storage

import (
	"math/rand"
	"testing"

	"paso/internal/tuple"
)

// The benchmarks below hold the repository benchmark's bulk-range shape: a
// tree keyed on field 1 with 20,000 distinct int keys, tuples of
// (name, key, 1 KiB bytes), and width-8 range templates on the key.
const (
	benchKeys  = 20000
	benchBatch = 4096 // ops between timer stops in the insert/remove benchmarks
)

type treeBench struct {
	st       *Tree
	payloads []tuple.Value
	tpls     []tuple.Template // benchBatch range templates, random centres
	keys     []int64          // the key each template is centred on
	eqTpls   []tuple.Template // the same keys, pinned with OpEq
	seq      uint64
}

func (tb *treeBench) tuple(key int64) tuple.Tuple {
	tb.seq++
	return tuple.New(tuple.ID{Origin: 1, Seq: tb.seq},
		tuple.String("c0"), tuple.Int(key), tb.payloads[int(key)%len(tb.payloads)])
}

func (tb *treeBench) insert(key int64) {
	t := tb.tuple(key)
	tb.st.Insert(t.ID().Seq, t)
}

func newTreeBench(keyOrder []int) *treeBench {
	rng := rand.New(rand.NewSource(1))
	tb := &treeBench{st: NewTree(1)}
	for i := 0; i < 16; i++ {
		b := make([]byte, 1024)
		rng.Read(b)
		tb.payloads = append(tb.payloads, tuple.Bytes(b))
	}
	for _, k := range keyOrder {
		tb.insert(int64(k))
	}
	for i := 0; i < benchBatch; i++ {
		key := rng.Int63n(benchKeys)
		lo := min(max(key-4, 0), benchKeys-8)
		tb.keys = append(tb.keys, key)
		tb.eqTpls = append(tb.eqTpls, tuple.NewTemplate(tuple.Eq(tuple.String("c0")),
			tuple.Eq(tuple.Int(key)), tuple.Any(tuple.KindBytes)))
		tb.tpls = append(tb.tpls, tuple.NewTemplate(tuple.Eq(tuple.String("c0")),
			tuple.Range(tuple.Int(lo), tuple.Int(lo+7)), tuple.Any(tuple.KindBytes)))
	}
	return tb
}

func BenchmarkTreeRead(b *testing.B) {
	tb := newTreeBench(rand.New(rand.NewSource(2)).Perm(benchKeys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.st.Read(tb.tpls[i%benchBatch]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkTreeInsert times inserts only: with the timer stopped, one entry
// of each inserted key is taken out again, so the tree stays at 20,000
// entries over the same keys.
func BenchmarkTreeInsert(b *testing.B) {
	tb := newTreeBench(rand.New(rand.NewSource(2)).Perm(benchKeys))
	batch := make([]tuple.Tuple, 0, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(batch) {
		b.StopTimer()
		for i := range batch {
			tb.st.Remove(tb.eqTpls[i])
		}
		batch = batch[:0]
		for i := 0; i < min(benchBatch, b.N-done); i++ {
			batch = append(batch, tb.tuple(tb.keys[i]))
		}
		b.StartTimer()
		for _, t := range batch {
			tb.st.Insert(t.ID().Seq, t)
		}
	}
}

// BenchmarkTreeRemove times range removes only: with the timer stopped,
// every batch first inserts one tuple at the centre of each range.
func BenchmarkTreeRemove(b *testing.B) {
	tb := newTreeBench(rand.New(rand.NewSource(2)).Perm(benchKeys))
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += benchBatch {
		n := min(benchBatch, b.N-done)
		b.StopTimer()
		for i := 0; i < n; i++ {
			tb.insert(tb.keys[i])
		}
		b.StartTimer()
		for i := 0; i < n; i++ {
			if _, ok := tb.st.Remove(tb.tpls[i]); !ok {
				b.Fatal("miss")
			}
		}
	}
}

// BenchmarkTreeSnapshot20k is a join's state transfer out of a tree class:
// the snapshot leaves key order for seq order.
func BenchmarkTreeSnapshot20k(b *testing.B) {
	tb := newTreeBench(rand.New(rand.NewSource(2)).Perm(benchKeys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tb.st.Snapshot()) != benchKeys {
			b.Fatal("short snapshot")
		}
	}
}

package main

import "testing"

func TestDigestFollowsSeed(t *testing.T) {
	for _, s := range specs {
		a, b, c := generate(s, 7), generate(s, 7), generate(s, 8)
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", s.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", s.name, a.digest)
		}
	}
	if generate(specs[0], 7).digest == generate(specs[1], 7).digest {
		t.Error("two workloads share a digest")
	}
}

// Every sequence must leave every class's population where it found it, or
// the store would drift over a long window.
func TestSequencesAreStationary(t *testing.T) {
	for _, s := range specs {
		in := generate(s, 3)
		if len(in.preload) != s.preload {
			t.Errorf("%s: %d preload ops, want %d", s.name, len(in.preload), s.preload)
		}
		for ph, phase := range in.seqs {
			for c, seq := range phase {
				net := make([]int, s.classes)
				var kinds [numKinds]int
				for _, o := range seq {
					kinds[o.kind]++
					switch o.kind {
					case opInsert:
						net[o.class]++
					case opReadDel:
						net[o.class]--
					}
				}
				for cls, n := range net {
					if n != 0 {
						t.Errorf("%s phase %d client %d: class %d nets %+d per cycle", s.name, ph, c, cls, n)
					}
				}
				want := int(s.mixes[ph].insert*float64(len(seq)) + 0.5)
				if kinds[opInsert] != want || kinds[opReadDel] != want {
					t.Errorf("%s phase %d client %d: %d inserts and %d read&dels, want %d each",
						s.name, ph, c, kinds[opInsert], kinds[opReadDel], want)
				}
				if s.roundSup {
					for _, o := range seq {
						if (o.class+2)%machines != c%machines {
							t.Fatalf("%s client %d drives class %d, which its machine supports", s.name, c, o.class)
						}
					}
				}
			}
		}
	}
}

// On later cycles a range workload moves its keys, and a pair's insert and
// read&del must still aim at the same place.
func TestRekeyedPairsMoveTogether(t *testing.T) {
	s := specByName("bulk-range")
	in := generate(s, 5)
	seq := in.seqs[0][0]
	byKey := make(map[int64][]op)
	for _, o := range seq {
		if o.kind != opRead {
			byKey[o.key] = append(byKey[o.key], o)
		}
	}
	moved := 0
	for i := range seq {
		o := &seq[i]
		if got := in.rekeyed(o, 0); got.key != o.key {
			t.Fatalf("cycle 0 moved key %d to %d", o.key, got.key)
		}
		a, b := in.rekeyed(o, 1), in.rekeyed(o, 2)
		if a.key < 0 || a.key >= keySpace {
			t.Fatalf("rekeyed key %d is outside the key space", a.key)
		}
		if a.key != o.key || b.key != a.key {
			moved++
		}
		if o.kind == opInsert {
			if !a.tup.Field(1).Equal(in.build(a).tup.Field(1)) || a.tup.Field(1).MustInt() != a.key {
				t.Fatalf("rekeyed insert carries key %v, want %d", a.tup.Field(1), a.key)
			}
		}
	}
	if moved < len(seq)*9/10 {
		t.Errorf("only %d of %d ops changed key across cycles", moved, len(seq))
	}
	for key, pair := range byKey {
		var ins, del *op
		for i := range pair {
			if pair[i].kind == opInsert {
				ins = &pair[i]
			} else {
				del = &pair[i]
			}
		}
		if ins == nil || del == nil {
			continue // two pairs drew the same key; nothing to compare
		}
		mi, md := in.rekeyed(ins, 4), in.rekeyed(del, 4)
		if mi.key != md.key {
			t.Fatalf("pair at key %d split: insert moved to %d, read&del to %d", key, mi.key, md.key)
		}
		if !md.tpl.Matches(mi.tup) {
			t.Fatalf("pair at key %d: the moved read&del %v no longer covers the moved insert", key, md.tpl)
		}
	}
}

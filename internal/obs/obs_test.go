package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestWithSharesState(t *testing.T) {
	o := New(Options{TraceCap: 8})
	child := o.With(KV("machine", 3))
	child.Counter("x").Inc()
	if o.Counter("x").Value() != 1 {
		t.Error("With view should share the registry")
	}
	child.Emit("peer-up", KV("peer", 2))
	evs := o.Events().Snapshot()
	if len(evs) != 1 {
		t.Fatalf("events = %+v", evs)
	}
	// Base attributes are stamped first, then the event's own.
	if len(evs[0].Attrs) != 2 ||
		evs[0].Attrs[0] != (Attr{"machine", "3"}) ||
		evs[0].Attrs[1] != (Attr{"peer", "2"}) {
		t.Errorf("attrs = %+v", evs[0].Attrs)
	}
}

func TestEmitLogs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	o := New(Options{Logger: logger}).With(KV("machine", 1))
	o.Emit("view-change", KV("group", "point"))
	out := buf.String()
	for _, want := range []string{"msg=view-change", "machine=1", "group=point"} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q: %s", want, out)
		}
	}
}

func TestNopDiscardsLogsButRecords(t *testing.T) {
	o := Nop()
	o.Counter("c").Inc()
	o.Emit("e")
	if o.Counter("c").Value() != 1 {
		t.Error("Nop should still count")
	}
	if o.Events().Total() != 1 {
		t.Error("Nop should still trace")
	}
}

func TestCollectMerges(t *testing.T) {
	o := New(Options{})
	o.AddCollector("a", func() map[string]float64 { return map[string]float64{"x": 1, "y": 2} })
	o.AddCollector("b", func() map[string]float64 { return map[string]float64{"z": 3} })
	got := o.Collect()
	if len(got) != 3 || got["x"] != 1 || got["z"] != 3 {
		t.Errorf("collect = %+v", got)
	}
	// Replacing a collector by name takes effect.
	o.AddCollector("b", func() map[string]float64 { return map[string]float64{"z": 9} })
	if got := o.Collect(); got["z"] != 9 {
		t.Errorf("replaced collector: z = %v", got["z"])
	}
}

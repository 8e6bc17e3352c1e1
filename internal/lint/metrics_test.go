package lint

import (
	"bufio"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/obs"
	"paso/internal/obs/flight"
	"paso/internal/transport/tcp"
	"paso/internal/tuple"
)

// family is one row of README's "Metric families" table.
type family struct {
	name      string // the name template, "{…}" marking the label part
	kind      string // counter, gauge, histogram or derived
	faultOnly bool
	re        *regexp.Regexp
	seen      bool // some registered series matched the row
	moved     bool // some matched series is non-zero
}

var labelPart = regexp.MustCompile(`\{[a-z]+\}`)

// readFamilies parses the table under README's "### Metric families".
func readFamilies(t *testing.T) []*family {
	t.Helper()
	var out []*family
	for _, line := range readmeRows(t, "### Metric families") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 {
			t.Fatalf("README metric row has %d cells, want 3: %s", len(cells)-2, line)
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		kind, flag, _ := strings.Cut(strings.TrimSpace(cells[2]), ", ")
		parts := labelPart.Split(name, -1)
		for i := range parts {
			parts[i] = regexp.QuoteMeta(parts[i])
		}
		out = append(out, &family{
			name: name, kind: kind, faultOnly: flag == "fault-only",
			re: regexp.MustCompile("^" + strings.Join(parts, "(.+)") + "$"),
		})
	}
	return out
}

// readmeRows returns the rows naming a backquoted item ("| `…") of the
// table under a README heading, failing when there are none.
func readmeRows(t *testing.T, heading string) []string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []string
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == heading:
			in = true
		case in && strings.HasPrefix(line, "#"):
			in = false
		case in && strings.HasPrefix(line, "| `"):
			rows = append(rows, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("README has no %q table", heading)
	}
	return rows
}

// TestMetricInventory checks README's metric table against a running
// cluster: every family the cluster registers has a row, every row names a
// family it registered, of the kind the row says, and every counter or
// histogram moved unless its row is fault-only. The cluster is three placed
// machines over loopback TCP with leased reads, a Basic(2) policy, a flight
// recorder, pasod's Figure 1 collector, and one crash.
func TestMetricInventory(t *testing.T) {
	rows := readFamilies(t)
	o := runInventoryCluster(t)

	match := func(name, kind string, moved bool) {
		var hits []*family
		for _, f := range rows {
			if f.re.MatchString(name) {
				hits = append(hits, f)
			}
		}
		switch {
		case len(hits) == 0:
			t.Errorf("%s %s is registered but has no README row", kind, name)
		case len(hits) > 1:
			t.Errorf("%s matches %d README rows", name, len(hits))
		case hits[0].kind != kind:
			t.Errorf("%s is a %s; its README row %s says %s", name, kind, hits[0].name, hits[0].kind)
		default:
			hits[0].seen = true
			hits[0].moved = hits[0].moved || moved
		}
	}
	snap := o.Reg().Snapshot()
	for name, v := range snap.Counters {
		match(name, "counter", v != 0)
	}
	for name, v := range snap.Gauges {
		match(name, "gauge", v != 0)
	}
	for name, h := range snap.Histograms {
		match(name, "histogram", h.Count != 0)
	}
	for name, v := range o.Collect() {
		match(name, "derived", v != 0)
	}
	for _, f := range rows {
		switch {
		case !f.seen:
			t.Errorf("README row %s names a family the cluster never registered", f.name)
		case !f.moved && !f.faultOnly && (f.kind == "counter" || f.kind == "histogram"):
			t.Errorf("%s %s stayed zero and its row is not fault-only", f.kind, f.name)
		}
	}
}

// runInventoryCluster drives every path a family is written on and returns
// the Obs the whole cluster recorded into.
func runInventoryCluster(t *testing.T) *obs.Obs {
	t.Helper()
	o := obs.New(obs.Options{})
	rec := flight.NewRecorder(flight.RecorderOptions{Dir: t.TempDir(), Obs: o, NoProfiles: true})
	cfg := core.Config{
		Classifier:  class.NewNameArity([]string{"task"}, 2),
		Lambda:      1,
		Placement:   true,
		LeasedReads: true,
		NewPolicy:   core.BasicPolicyFactory(2),
		Obs:         o,
	}
	// The fail timeout outlasts a leased read's 200 ms timeout, so the reads
	// right after the crash find the dead member still a lease target.
	fabric := tcp.NewLoopback(tcp.Options{HeartbeatInterval: 10 * time.Millisecond, FailTimeout: time.Second, Obs: o})
	c, err := core.NewClusterOn(fabric, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	o.AddCollector("core.ops", func() map[string]float64 { // as pasod does
		return core.ReportMetrics(o.Reg(), c.Machines()[0].Report())
	})

	task := func(i int64) tuple.Tuple { return tuple.Make(tuple.String("task"), tuple.Int(i)) }
	exact := func(i int64) tuple.Template {
		return tuple.NewTemplate(tuple.Eq(tuple.String("task")), tuple.Eq(tuple.Int(i)))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cls := cfg.Classifier.ClassOf(task(0))
	sup := c.Support(cls) // the placed sequencer first
	var outsider *core.Machine
	for _, m := range c.Machines() {
		if m.ID() != sup[0] && m.ID() != sup[1] {
			outsider = m
		}
	}

	// One insert from each machine while |wg(C)| = 2: the sequencer answers
	// from its gather, the other member for itself, and for the outsider.
	for _, m := range c.Machines() {
		_, err := m.Insert(task(0))
		must(err)
	}
	// A concurrent mix, so frames batch and runs carry several casts.
	var wg sync.WaitGroup
	for w := int64(0); w < 6; w++ {
		wg.Add(1)
		go func(m *core.Machine, w int64) {
			defer wg.Done()
			for i := w * 100; i < w*100+40; i++ {
				if _, err := m.Insert(task(i)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := m.Read(exact(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c.Machines()[w%3], w)
	}
	wg.Wait()
	// The outsider's reads make it join wg(C) (a state transfer); the
	// members' inserts then make it leave again. A join the mix left in
	// flight completes before that leave, and only reads trigger joins, so
	// the outsider stays out afterwards.
	leaves := o.Counter("core.policy.leaves")
	for deadline, left := time.Now().Add(10*time.Second), leaves.Value(); leaves.Value() == left || outsider.MemberOf(cls); {
		if time.Now().After(deadline) {
			t.Fatal("the outsider never joined and left wg(C)")
		}
		if outsider.MemberOf(cls) {
			_, err := c.Machine(sup[1]).Insert(task(1))
			must(err)
		} else {
			_, _, err := outsider.Read(exact(0))
			must(err)
		}
		time.Sleep(time.Millisecond)
	}
	// A tuple larger than a link's socket buffers: its frames leave inline
	// in part, and the writer sends the rest from the peer's backlog.
	big := tuple.Make(tuple.String("task"), tuple.Bytes(make([]byte, 12<<20)))
	if _, err := c.Machine(sup[1]).Insert(big); err != nil {
		t.Fatal(err)
	}
	// A read&del miss is a fail response.
	if _, ok, err := outsider.ReadDel(exact(-1)); err != nil || ok {
		t.Fatalf("read&del of an absent tuple: ok=%v err=%v", ok, err)
	}

	// Crash the sequencer. Of the outsider's next two leased reads one goes
	// to the dead member and falls back to the ordered path, which waits out
	// the takeover.
	c.Crash(sup[0])
	for i := 0; i < 2; i++ {
		_, _, err := outsider.Read(exact(0))
		must(err)
	}
	for deadline := time.Now().Add(10 * time.Second); c.CheckConverged() != nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no convergence after the crash: %v", c.CheckConverged())
		}
	}
	_, err = rec.Trigger("inventory", "metric inventory")
	must(err)
	return o
}

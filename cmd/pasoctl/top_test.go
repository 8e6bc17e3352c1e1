package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"paso/internal/class"
	"paso/internal/core"
	"paso/internal/placement"
	"paso/internal/storage"
	"paso/internal/transport"
)

// TestTopOwnershipRows: against a placed three-machine cluster, `pasoctl
// top` renders one ownership row per write group, owned where the placement
// function puts it — the rows come from each machine's event timeline
// (ownership events) via /placement.
func TestTopOwnershipRows(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp integration is slow; skipped in -short mode")
	}
	cfg := core.Config{
		Classifier: class.NewNameArity([]string{"job"}, 1),
		Lambda:     1,
		StoreKind:  storage.KindHash,
		Placement:  true,
	}
	ensemble := core.Ensemble(3)
	_, _, debugs := startDebugCluster(t, cfg, 3, func(id transport.NodeID) []class.ID {
		return cfg.BasicClasses(id, ensemble)
	})
	addrs := []string{debugs[1].Addr(), debugs[2].Addr(), debugs[3].Addr()}
	coord := placement.New(cfg.Classifier.Classes(), cfg.Lambda).CoordFn()

	want := make(map[string]string)
	for _, cls := range cfg.Classifier.Classes() {
		g := "wg/" + string(cls)
		want[g] = fmt.Sprintf("m%d", coord(g, ensemble))
	}
	client := &http.Client{Timeout: 5 * time.Second}
	var out strings.Builder
	var rows map[string][]string
	for deadline := time.Now().Add(5 * time.Second); len(rows) != len(want) && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		out.Reset()
		if err := topOnce(client, addrs, &out); err != nil {
			t.Fatalf("top: %v", err)
		}
		rows = ownershipRows(t, out.String())
	}
	if len(rows) != len(want) {
		t.Fatalf("top rendered %d ownership rows, want %d:\n%s", len(rows), len(want), out.String())
	}
	for g, owner := range want {
		row, ok := rows[g]
		if !ok || row[1] != owner {
			t.Fatalf("%s row = %v, want owner %s", g, row, owner)
		}
	}
}

// ownershipRows parses the GROUP table of top's output, keyed by group; a
// group listed twice fails the test.
func ownershipRows(t *testing.T, text string) map[string][]string {
	t.Helper()
	rows := make(map[string][]string)
	_, table, ok := strings.Cut(text, "\nGROUP")
	if !ok {
		return rows
	}
	for _, line := range strings.Split(table, "\n")[1:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if _, dup := rows[f[0]]; dup {
			t.Fatalf("group %s has two ownership rows:\n%s", f[0], text)
		}
		rows[f[0]] = f
	}
	return rows
}

package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"paso/internal/obs"
	"paso/internal/obs/flight"
)

// runTop implements the "top" subcommand: one scrape of every machine's
// debug endpoint rendered as a cluster-wide live view — per-machine load
// and stage latencies, then the per-group ownership map with backlog and
// ordering latency attributed to the current owner.
//
//	pasoctl top -debug 127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303
//	pasoctl top -debug ... -watch 2s
func runTop(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pasoctl top", flag.ContinueOnError)
	debug := fs.String("debug", "127.0.0.1:7301", "comma-separated debug addresses of the cluster's machines")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	watch := fs.Duration("watch", 0, "refresh period; 0 renders once and exits")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitAddrs(*debug)
	if len(addrs) == 0 {
		return fmt.Errorf("top: -debug needs at least one address")
	}
	client := &http.Client{Timeout: *timeout}
	for {
		if err := topOnce(client, addrs, out); err != nil {
			return err
		}
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
		fmt.Fprintln(out)
	}
}

// topMachine is one machine's scraped state.
type topMachine struct {
	addr       string
	counters   map[string]int64
	gauges     map[string]int64
	histograms map[string]obs.HistSnapshot
	owners     map[string]flight.OwnershipEvent
}

func topOnce(client *http.Client, addrs []string, out io.Writer) error {
	var machines []topMachine
	for _, addr := range addrs {
		var metrics struct {
			Counters   map[string]int64            `json:"counters"`
			Gauges     map[string]int64            `json:"gauges"`
			Histograms map[string]obs.HistSnapshot `json:"histograms"`
		}
		if err := getJSON(client, "http://"+addr+"/metrics.json", &metrics); err != nil {
			fmt.Fprintf(out, "# %s unreachable: %v\n", addr, err)
			continue
		}
		m := topMachine{
			addr:       addr,
			counters:   metrics.Counters,
			gauges:     metrics.Gauges,
			histograms: metrics.Histograms,
		}
		// /placement is best-effort: a daemon without the flight plane still
		// renders, just without the ownership map.
		var placement struct {
			Owners map[string]flight.OwnershipEvent `json:"owners"`
		}
		if err := getJSON(client, "http://"+addr+"/placement", &placement); err == nil {
			m.owners = placement.Owners
		}
		machines = append(machines, m)
	}
	if len(machines) == 0 {
		return fmt.Errorf("top: no debug endpoint reachable")
	}

	fmt.Fprintf(out, "%-21s  %6s  %7s  %9s  %9s  %9s  %9s  %6s  %9s\n",
		"MACHINE", "GROUPS", "BACKLOG", "CLIENTQ99", "ORDER-P99", "DELIVER99", "GCAST-P99", "STALLS", "SENDQ-HWM")
	for _, m := range machines {
		fmt.Fprintf(out, "%-21s  %6d  %7d  %9s  %9s  %9s  %9s  %6d  %9d\n",
			m.addr,
			m.gauges["vsync.coord.groups"],
			m.gauges["vsync.coord.backlog"],
			fmtSecs(m.histograms[obs.StageClientQueue].P99),
			fmtSecs(m.histograms[obs.StageOrder].P99),
			fmtSecs(m.histograms[obs.StageDeliver].P99),
			fmtSecs(m.histograms["vsync.gcast.latency.seconds"].P99),
			m.counters["transport.send.stalls"],
			maxGauge(m.gauges, "transport.sendq.hwm.p"))
	}

	// Ownership map: merge every machine's audit view, keeping the newest
	// record per group, and attribute backlog and ordering latency from
	// whichever machine currently sequences the group.
	type groupRow struct {
		group string
		own   flight.OwnershipEvent
	}
	newest := make(map[string]flight.OwnershipEvent)
	for _, m := range machines {
		for g, e := range m.owners {
			if cur, ok := newest[g]; !ok || e.Time.After(cur.Time) {
				newest[g] = e
			}
		}
	}
	if len(newest) == 0 {
		fmt.Fprintln(out, "\nno ownership records (no /placement endpoint?)")
		return nil
	}
	rows := make([]groupRow, 0, len(newest))
	for g, e := range newest {
		rows = append(rows, groupRow{group: g, own: e})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].group < rows[j].group })
	fmt.Fprintf(out, "\n%-24s  %-6s  %5s  %-9s  %9s  %7s  %9s\n",
		"GROUP", "OWNER", "EPOCH", "KIND", "TAKEOVER", "BACKLOG", "ORDER-P99")
	for _, r := range rows {
		var backlog int64
		var orderP99 float64
		for _, m := range machines {
			if b, ok := m.gauges["vsync.coord.backlog."+r.group]; ok && b > backlog {
				backlog = b
			}
			if h, ok := m.histograms["vsync.order.seconds."+r.group]; ok && h.P99 > orderP99 {
				orderP99 = h.P99
			}
		}
		takeover := "-"
		if r.own.TakeoverSeconds > 0 {
			takeover = fmtSecs(r.own.TakeoverSeconds)
		}
		fmt.Fprintf(out, "%-24s  m%-5d  %5d  %-9s  %9s  %7d  %9s\n",
			r.group, r.own.Owner, r.own.Epoch, r.own.Kind, takeover, backlog, fmtSecs(orderP99))
	}
	return nil
}

// fmtSecs renders a latency in seconds at ms/µs-friendly precision.
func fmtSecs(s float64) string {
	if s <= 0 {
		return "-"
	}
	d := time.Duration(s * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// maxGauge returns the largest gauge value whose name carries the prefix
// (the per-peer send-queue watermark family).
func maxGauge(gauges map[string]int64, prefix string) int64 {
	var max int64
	for name, v := range gauges {
		if strings.HasPrefix(name, prefix) && v > max {
			max = v
		}
	}
	return max
}

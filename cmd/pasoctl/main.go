// Command pasoctl is the client for pasod's line protocol: it sends one
// command to a daemon's client port and prints the response.
//
//	pasoctl -addr 127.0.0.1:7201 insert point s:origin i:3 i:4
//	pasoctl -addr 127.0.0.1:7201 read point ?s ?i ?i
//	pasoctl -addr 127.0.0.1:7201 take point ?s i:0..10 ?i
//	pasoctl -addr 127.0.0.1:7201 takewait 5s point ?s ?i ?i
//	pasoctl -addr 127.0.0.1:7201 stats
//	pasoctl -addr 127.0.0.1:7201 stats -stages
//
// Most commands get a single response line. "stats" streams the
// Figure-1-style per-op cost table (one row per operation kind, with
// latency quantiles) terminated by a lone "." line; "stats -stages"
// streams the per-stage latency attribution table instead (client queue,
// encode, send-queue wait, socket write, order, deliver, store apply),
// the same breakdown the saturation sweep uses to name the bottleneck.
//
// The "trace" subcommand talks to the debug endpoints instead of the
// client port: it merges the spans every machine recorded for one traced
// operation and prints the cross-machine timeline with per-hop measured
// bytes and predicted §3.3 cost (see README, "Tracing an operation"):
//
//	pasoctl trace -debug 127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303 list
//	pasoctl trace -debug 127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303 <op-id>
//
// "top" renders a one-shot (or -watch periodic) cluster view from the same
// debug endpoints: per-machine group counts, coordinator backlog, stage
// p99s, send stalls, and send-queue watermarks, plus the per-group
// ownership map assembled from every machine's placement audit trail.
// "flight" lists and downloads the diagnostic bundles machines' flight
// recorders captured (see README, "Flight recorder"):
//
//	pasoctl top -debug 127.0.0.1:7301,127.0.0.1:7302,127.0.0.1:7303
//	pasoctl flight -debug 127.0.0.1:7301,127.0.0.1:7302 list
//	pasoctl flight -debug 127.0.0.1:7301 get <bundle-id> -o ./bundles
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pasoctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "trace" {
		return runTrace(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "flight" {
		return runFlight(args[1:], os.Stdout)
	}
	if len(args) > 0 && args[0] == "top" {
		return runTop(args[1:], os.Stdout)
	}
	fs := flag.NewFlagSet("pasoctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7201", "pasod client address")
	timeout := fs.Duration("timeout", 30*time.Second, "connection/response timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := strings.Join(fs.Args(), " ")
	if cmd == "" {
		return fmt.Errorf("usage: pasoctl [-addr host:port] <command...>")
	}
	conn, err := net.DialTimeout("tcp", *addr, *timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(*timeout))
	if _, err := fmt.Fprintln(conn, cmd); err != nil {
		return err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("connection closed without response")
	}
	resp := sc.Text()
	fmt.Println(resp)
	if strings.HasPrefix(resp, "ERR") {
		os.Exit(2)
	}
	// Multi-line responses (the stats table) end with a lone "." line.
	if fs.Args()[0] == "stats" && resp == "OK" {
		for sc.Scan() {
			line := sc.Text()
			if line == "." {
				break
			}
			fmt.Println(line)
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	return nil
}

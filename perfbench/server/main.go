// Command server is the deployment under test of the benchmark: a thin main
// that opens the store a workload describes (deploy.Open: occ.Open plus the
// seeded keyspace) and serves every data center over the front door
// (kvserver.Serve), one ephemeral loopback port per DC.
//
//	server [-wan] [-data-dir <dir> [-fsync]]
//
// -wan carries inter-node traffic over the emulated WAN instead of loopback
// TCP; -data-dir turns the WAL on, and -fsync keeps its fsync on.
//
// Once seeded and listening it prints one line, "ready <addr-dc0>
// <addr-dc1> ...", then answers commands on stdin:
//
//	stats  -> one JSON line: deploy.Snapshot of the store's counters
//	quit   -> close the listeners and the store, then exit (so does EOF)
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/kvserver"
	"repro/perfbench/internal/deploy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	}
}

func run() error {
	var p deploy.Params
	flag.BoolVar(&p.WAN, "wan", false, "inter-node traffic over the emulated WAN instead of loopback TCP")
	flag.StringVar(&p.DataDir, "data-dir", "", "WAL directory (empty: in memory)")
	flag.BoolVar(&p.Fsync, "fsync", false, "keep the WAL's fsync on")
	flag.Parse()
	if p.Fsync && p.DataDir == "" {
		return fmt.Errorf("-fsync needs -data-dir")
	}
	store, err := deploy.Open(p)
	if err != nil {
		return err
	}
	defer store.Close()
	srv, err := kvserver.Serve(store, "127.0.0.1", 0)
	if err != nil {
		return err
	}
	defer srv.Close()

	addrs := make([]string, store.DataCenters())
	for dc := range addrs {
		addrs[dc] = srv.Addr(dc)
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "ready %s\n", strings.Join(addrs, " "))
	if err := out.Flush(); err != nil {
		return err
	}

	in := bufio.NewScanner(os.Stdin)
	enc := json.NewEncoder(out)
	for in.Scan() {
		switch cmd := strings.TrimSpace(in.Text()); cmd {
		case "stats":
			if err := enc.Encode(deploy.Snap(store)); err != nil {
				return err
			}
			if err := out.Flush(); err != nil {
				return err
			}
		case "quit":
			return nil
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
	}
	return in.Err()
}

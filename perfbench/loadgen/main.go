// Command loadgen is the benchmark of the geo-replicated store, end to end:
// it starts the deployment under test as its own server process (the
// perfbench server binary), drives it through client.Pool over the front
// door, checks every output, and prints every metric by name with its unit.
// The last line of standard output is the run's result as one JSON object.
//
//	loadgen -server <server binary> -out <scratch dir> \
//	    --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The run reads BENCHMARK.json from the working directory and fails, without
// a result, if the metrics it produced differ from the ones declared there.
//
// With --trace 0 a run measures the end-to-end metrics: set-up time, an
// open-loop phase at the workload's fixed rate with the visibility probe
// beside it, then a closed-loop capacity phase on a fresh deployment, each
// followed by a sweep that checks every key converged at every data center.
// The reported medians leave out the set-ups and half-second sub-windows in
// which the hypervisor ran other guests on the VM's CPUs (see steal.go).
// A check that fails prints the result with "correct": false and exits 1.
//
// With --trace 1 it replays the same seed through each layer's public entry
// point in turn (front door, in-process session, codecs, storage), records a
// span around every call and reports per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/perfbench/internal/deploy"
)

// runTimeout bounds a whole run; past it the servers are killed and the run
// fails without a result.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		server  = flag.String("server", "", "server binary")
		out     = flag.String("out", "", "directory for data dirs and span files")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	var bench *benchFile
	if err == nil {
		bench, err = loadBenchFile("BENCHMARK.json")
	}
	if err == nil && !has(bench.Workloads, w.name) {
		err = fmt.Errorf("workload %s not declared in BENCHMARK.json", w.name)
	}
	if err == nil && (*server == "" || *out == "") {
		err = fmt.Errorf("-server and -out are required")
	}
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("bad -seconds or -trace")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 2
	}
	time.AfterFunc(runTimeout, func() {
		killAll()
		fmt.Fprintln(os.Stderr, "loadgen: run exceeded", runTimeout)
		os.Exit(3)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		fmt.Fprintln(os.Stderr, "loadgen: stopped by", <-sig)
		killAll()
		os.Exit(3)
	}()

	printRecord(w, *seed, *seconds, *trace)
	r := newRunner(w, *seed, *trace == 1)
	if r.steadyBound, err = bench.bound("throughput_ops_s"); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	var ms metrics
	if *trace == 1 {
		ms, err = r.traced(*server, *out, window)
	} else {
		ms, err = r.endToEnd(*server, *out, window)
	}
	if err == nil {
		err = bench.check(ms, *trace == 1)
	}
	if err != nil {
		killAll()
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	ms.print()
	attempted, failed := r.attempted.Load(), r.failed.Load()
	fmt.Printf("failed_pct = %.4f %% (%d of %d ops failed or violated a check)\n",
		100*float64(failed)/float64(max(attempted, 1)), failed, attempted)
	for _, v := range r.viol.first {
		fmt.Println("violation:", v)
	}
	correct := r.viol.count() == 0
	res, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Println(string(res))
	if !correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

func (m metrics) print() {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s = %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printRecord states the host and the run's inputs.
func printRecord(w spec, seed uint64, seconds float64, trace int) {
	rec := map[string]any{
		"nproc":                  runtime.NumCPU(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"cpu_model":              cpuModel(),
		"go_version":             runtime.Version(),
		"workload":               w.name,
		"seed":                   seed,
		"seconds":                seconds,
		"trace":                  trace,
		"mix_get_put_rotx":       fmt.Sprintf("%d:%d:%d", w.mix[opGet], w.mix[opPut], w.mix[opROTx]),
		"open_rate_ops_s":        w.openRate,
		"closed_sessions_per_dc": w.closedSessions,
		"open_sessions_per_dc":   w.openSessions,
		"loaded_dcs":             loadedDCs,
		"pool_conns_per_dc":      1,
		"data_centers":           deploy.DataCenters,
		"partitions":             deploy.Partitions,
		"keys_per_partition":     deploy.KeysPerPartition,
		"value_bytes":            deploy.ValueSize,
		"zipf":                   zipfExponent,
		"gc_interval":            deploy.GCInterval.String(),
		"emulation_seed":         deploy.EmulationSeed,
		"network":                deploy.Network(w.wan),
		"flush_policy":           deploy.FlushPolicy(w.wal, w.wal && trace == 1),
		"probe_period":           w.probePeriod.String(),
		"probe_polls":            probePolls,
	}
	b, _ := json.Marshal(rec) // plain values only; cannot fail
	fmt.Println("record", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// dataDir returns a fresh data directory for a deployment with the WAL on,
// "" for an in-memory one.
func (r *runner) dataDir(out, tag string) (string, error) {
	if !r.w.wal {
		return "", nil
	}
	dir := filepath.Join(out, fmt.Sprintf("data-%d-%s", os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/keyspace"
	"repro/internal/workload"
	"repro/perfbench/internal/deploy"
)

// opKind is a client operation of the workload.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opROTx
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "rotx"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated client operation: one key for GET and PUT, the read
// set for RO-TX.
type op struct {
	kind opKind
	keys []string
}

// mix weights the op kinds. Every workload issues all three kinds so every
// end-to-end latency metric exists on every workload; the minor kinds ride
// at a small share beside the mix the workload is named for.
type mix [numKinds]int

// spec is one benchmark workload. Rates and session counts are constants of
// the workload, never derived from a run's measured capacity: a faster
// program must face the same offered load as a slower one.
type spec struct {
	name string
	mix  mix
	// openRate is the open-loop phase's fixed offered load (ops/s).
	openRate float64
	// closedSessions is the number of requests in flight per loaded DC in
	// the closed-loop (capacity) phase; openSessions bounds the sessions an
	// open-loop DC can run ops on at once.
	closedSessions int
	openSessions   int
	// wan carries inter-node traffic over the emulated WAN instead of
	// loopback TCP.
	wan bool
	// wal turns the write-ahead log on: every deployment gets a fresh data
	// directory. Its fsync is off in the end-to-end run and on in the traced
	// run (see runner.fsync).
	wal bool
	// probePeriod is how often each visibility probe key starts a probe.
	probePeriod time.Duration
}

const (
	zipfExponent = 0.99
	txPartitions = deploy.Partitions // an RO-TX reads one key per partition
	loadedDCs    = 2                 // load enters through DC0 and DC1
	// heartbeatDelta is the store's default heartbeat period Δ.
	heartbeatDelta = time.Millisecond
	// probePolls is how many GETs at DC1 each probe issues, whenever its
	// value shows up; a probe still invisible after them polls on until it
	// shows. A fixed count keeps the probe's load independent of the
	// visibility latency it measures.
	probePolls = 10
	// probeTick is the period of a probe's polls. Their grid starts at a
	// random offset within the first tick after the PUT's acknowledgement,
	// so a median visibility latency is not rounded to whole poll periods.
	probeTick = time.Millisecond
)

// Every workload runs on the deployment package deploy fixes: the paper's 3
// DCs × 4 partitions, 16k keys per partition, 64-byte values, GC every
// 100 ms; keys are drawn by zipf 0.99.
var workloads = []spec{
	{
		// §V-B default GET:PUT 32:1, in memory, inter-node traffic over
		// loopback TCP: the GET path (front door, core GET, storage read)
		// does most of the work; the WAL is off.
		name:           "read-heavy",
		mix:            mix{opGet: 32, opPut: 1, opROTx: 1},
		openRate:       12000,
		closedSessions: 64,
		openSessions:   128,
		probePeriod:    40 * time.Millisecond,
	},
	{
		// GET:PUT 1:1 with the WAL on: the PUT path (clock and dependency
		// waits, storage insert and GC, repl batching behind the sync
		// boundary, WAL group commit) dominates. The flush policy is the
		// shipped one except that the timed run keeps fsync off: fsync
		// latency on a shared virtual disk varies several-fold from run to
		// run, which no bound could absorb. The traced run keeps it on, so
		// the wal.* metrics measure real group commit.
		name:           "write-heavy-wal",
		mix:            mix{opGet: 6, opPut: 6, opROTx: 1},
		openRate:       4000,
		closedSessions: 64,
		openSessions:   128,
		wal:            true,
		probePeriod:    100 * time.Millisecond,
	},
	{
		// §V-C RO-TX over 4 partitions beside PUTs, over the emulated WAN
		// (AWS ×0.1, 10% jitter, ±1 ms skew): dependency blocking, RO-TX
		// fan-in and visibility under WAN delay. netemu hands Go values
		// across, so the wire codec, tcpnet and the WAL are bypassed.
		name:           "geo-rotx",
		mix:            mix{opGet: 1, opPut: 6, opROTx: 6},
		openRate:       6000,
		closedSessions: 128,
		openSessions:   256,
		wan:            true,
		probePeriod:    80 * time.Millisecond,
	},
}

func lookupWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// opGen draws a workload's op stream: the kind by the mix weights, the
// partition uniformly, the key within it by zipf rank.
type opGen struct {
	r     *rand.Rand
	table *keyspace.Table
	zipf  *workload.Zipf
	w     spec
	total int
	perm  []int
}

func newOpGen(w spec, table *keyspace.Table, zipf *workload.Zipf, seed, stream uint64) *opGen {
	total := 0
	for _, n := range w.mix {
		total += n
	}
	perm := make([]int, table.Partitions())
	return &opGen{r: rand.New(rand.NewPCG(seed, stream)), table: table, zipf: zipf, w: w, total: total, perm: perm}
}

func (g *opGen) key(part int) string {
	return g.table.Key(part, g.zipf.Sample(g.r))
}

func (g *opGen) next() op {
	pick := g.r.IntN(g.total)
	kind := opGet
	for kind < numKinds-1 && pick >= g.w.mix[kind] {
		pick -= g.w.mix[kind]
		kind++
	}
	if kind != opROTx {
		return op{kind: kind, keys: []string{g.key(g.r.IntN(g.table.Partitions()))}}
	}
	// Distinct partitions by a partial Fisher-Yates shuffle.
	for i := range g.perm {
		g.perm[i] = i
	}
	keys := make([]string, txPartitions)
	for i := range keys {
		j := i + g.r.IntN(len(g.perm)-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		keys[i] = g.key(g.perm[i])
	}
	return op{kind: opROTx, keys: keys}
}

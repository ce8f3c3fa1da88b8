// Package deploy is the deployment under test, shared by the benchmark's
// server process and the load generator's in-process leg: its fixed shape,
// the few parameters a workload varies, how they map onto occ.Config, the
// seeded keyspace, and a snapshot of the store's public counters.
package deploy

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	occ "repro"
	"repro/internal/keyspace"
)

// The shape every deployment shares: the paper's 3 DCs × 4 partitions with
// 16k keys in each, 64-byte values, GC every 100 ms.
const (
	DataCenters      = 3
	Partitions       = 4
	KeysPerPartition = 16384
	ValueSize        = 64
	GCInterval       = 100 * time.Millisecond
	// EmulationSeed seeds the emulated network's jitter and the nodes'
	// clock skews. It is part of the deployment, like its hardware, and
	// stays fixed; a run's seed varies only the workload's op stream.
	EmulationSeed = 1
)

// The emulated WAN: AWS inter-region delays ×0.1, 10% jitter, ±1 ms skew.
const (
	wanScale  = 0.1
	wanJitter = 0.1
	wanSkew   = time.Millisecond
)

// Params is what a workload varies about its deployment.
type Params struct {
	// WAN carries inter-node traffic over the emulated WAN (netemu);
	// otherwise it runs over loopback TCP (tcpnet + the binary wire codec).
	WAN bool
	// DataDir turns the WAL on with the shipped flush policy (AckSync, no
	// group-commit linger); "" keeps the store in memory.
	DataDir string
	// Fsync keeps the WAL's fsync on; without it the WAL skips the fsync
	// (NoSync).
	Fsync bool
}

// Config maps the parameters onto the store's configuration. Everything not
// named here keeps its shipped default.
func (p Params) Config() occ.Config {
	cfg := occ.Config{
		DataCenters: DataCenters,
		Partitions:  Partitions,
		Engine:      occ.POCC,
		TCP:         !p.WAN,
		DataDir:     p.DataDir,
		NoSync:      !p.Fsync,
		GCInterval:  GCInterval,
		Seed:        EmulationSeed,
	}
	if p.WAN {
		cfg.Latency = occ.AWSProfile(wanScale)
		cfg.JitterFrac = wanJitter
		cfg.ClockSkew = wanSkew
	}
	return cfg
}

// Table is the deployment's keyspace, the same on every call.
func Table() *keyspace.Table {
	return keyspace.Build(Partitions, KeysPerPartition)
}

// Network names the inter-node transport.
func Network(wan bool) string {
	if wan {
		return fmt.Sprintf("netemu WAN: AWS x%g, %g%% jitter, clock skew %v", wanScale, 100*wanJitter, wanSkew)
	}
	return "loopback TCP (tcpnet + wire)"
}

// FlushPolicy states the durability settings.
func FlushPolicy(wal, fsync bool) string {
	if !wal {
		return "in-memory (no WAL)"
	}
	f := "off (NoSync)"
	if fsync {
		f = "on"
	}
	return fmt.Sprintf("WAL on: AckSync, fsync %s, group-commit linger 0, GC every %v", f, GCInterval)
}

// seedWorkers is how many goroutines load the keyspace. With the WAL on,
// concurrent seeders share commit groups, so one fsync covers many keys.
const seedWorkers = 64

// Open starts the store and seeds every key of the table with its seed value
// in every data center.
func Open(p Params) (*occ.Store, error) {
	store, err := occ.Open(p.Config())
	if err != nil {
		return nil, err
	}
	table := Table()
	keys := make(chan string, seedWorkers)
	var wg sync.WaitGroup
	for i := 0; i < seedWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				store.Seed(k, SeedValue(k))
			}
		}()
	}
	for part := 0; part < table.Partitions(); part++ {
		for rank := 0; rank < table.KeysPerPartition(); rank++ {
			keys <- table.Key(part, rank)
		}
	}
	close(keys)
	wg.Wait()
	if err := store.StorageErr(); err != nil {
		store.Close()
		return nil, fmt.Errorf("deploy: seeding: %w", err)
	}
	// Start the measured phases from a collected heap, not from whatever
	// garbage seeding left behind.
	runtime.GC()
	return store, nil
}

// Snapshot is the subset of the store's public counters the benchmark
// reads. Sums replace the store's running means so a window's mean is the
// difference of two snapshots.
type Snapshot struct {
	Ops              uint64  `json:"ops"`
	Blocked          uint64  `json:"blocked"`
	BlockedNanos     float64 `json:"blocked_ns"`
	OldReadsPct      float64 `json:"old_reads_pct"`
	UnmergedReadsPct float64 `json:"unmerged_reads_pct"`
	Keys             int     `json:"keys"`
	Versions         int     `json:"versions"`
	MaxLagNanos      int64   `json:"max_lag_ns"`
	CatchUps         uint64  `json:"catchups"`
	Fsyncs           uint64  `json:"fsyncs"`
	CommitGroups     uint64  `json:"commit_groups"`
	WALRecords       uint64  `json:"wal_records"`
	AckLagSumNanos   float64 `json:"ack_lag_sum_ns"`
	AckLagMaxNanos   int64   `json:"ack_lag_max_ns"`
	Messages         uint64  `json:"messages"`
	StorageError     string  `json:"storage_error"`
}

// Snap reads the store's counters (occ.Store.Stats and Store.Messages).
// Stats walks every version chain, so it is for window boundaries and
// sparse sampling, not for the hot path.
func Snap(s *occ.Store) Snapshot {
	st := s.Stats()
	return Snapshot{
		Ops:              st.Operations,
		Blocked:          st.BlockedOperations,
		BlockedNanos:     float64(st.MeanBlockingTime) * float64(st.BlockedOperations),
		OldReadsPct:      st.PercentOldReads,
		UnmergedReadsPct: st.PercentUnmergedReads,
		Keys:             st.Keys,
		Versions:         st.Versions,
		MaxLagNanos:      int64(st.MaxReplicationLag()),
		CatchUps:         st.CatchUps,
		Fsyncs:           st.Fsyncs,
		CommitGroups:     st.CommitGroups,
		WALRecords:       st.WALRecords,
		AckLagSumNanos:   float64(st.AckToDurableMean) * float64(st.CommitGroups),
		AckLagMaxNanos:   int64(st.AckToDurableMax),
		Messages:         s.Messages(),
		StorageError:     st.StorageError,
	}
}

package cluster

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/causaltest"
	"repro/internal/keyspace"
	"repro/internal/vclock"
)

// TestCatchUpAfterCrashLostBufferTail is the deterministic stream-tail-loss
// scenario: the sibling DC's inbound replication plane is severed while
// the origin takes writes, then the origin servers crash (crash restarts
// discard the outbound buffer — no graceful flush). The sibling never
// received any of the writes; to it the old incarnation simply went silent.
// The restarted incarnation's WAL still holds the versions, and once the
// link heals the sibling must detect the new epoch and recover every
// acknowledged write via WAL-shipped catch-up.
func TestCatchUpAfterCrashLostBufferTail(t *testing.T) {
	c := NewTestCluster(t, Topology{DCs: 2, Partitions: 2},
		WithHeartbeat(time.Millisecond),
		WithDataDir(t.TempDir()),
		WithSeed(909),
		WithConfig(func(cfg *Config) { cfg.PutDepWait = true }))
	for p := 0; p < 2; p++ {
		if err := c.DropInboundReplication(1, p, true); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("tail-%d", i%10)
		val := fmt.Sprintf("v%d", i)
		if err := sess.Put(key, []byte(val)); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	// Nothing may have replicated: DC1 dropped every batch and heartbeat.
	// (So DC1's VV for DC0 cannot have covered these writes either.)
	for key := range want {
		reply, err := c.ReadAt(1, key)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Exists {
			t.Fatalf("key %s leaked to DC1 before the crash; the scenario needs a buffered tail", key)
		}
	}

	// Crash both DC0 servers: the old incarnations' streams are gone for
	// good. Then heal DC1's inbound plane.
	for p := 0; p < 2; p++ {
		if err := c.RestartServer(0, p); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 2; p++ {
		if err := c.DropInboundReplication(1, p, false); err != nil {
			t.Fatal(err)
		}
	}

	// The restarted incarnations heartbeat with a fresh epoch; DC1 detects
	// the discontinuity and pulls the lost tail out of DC0's WALs.
	if !waitUntil(t, 10*time.Second, func() bool {
		for key, val := range want {
			reply, err := c.ReadAt(1, key)
			if err != nil || !reply.Exists || string(reply.Value) != val {
				return false
			}
		}
		return true
	}) {
		st := c.ReplicationStats()
		t.Fatalf("DC1 never recovered the crashed buffer tail (catch-up stats %+v)", st)
	}
	st := c.ReplicationStats()
	if st.CatchUpsCompleted == 0 || st.CatchUpsServed == 0 {
		t.Fatalf("convergence without catch-up rounds (%+v); the scenario lost its teeth", st)
	}
	if err := c.StorageErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpAfterDroppedLink severs — drops, not pauses — the inbound
// replication plane of one node mid-workload: batches and heartbeats
// addressed to it are discarded while checked sessions keep the cluster
// busy. After the link heals, the lagging replica must detect the sequence
// gap, catch up via WAL shipping, and the whole cluster must satisfy the
// causal session guarantees and converge.
//
// The scenario is driven by protocol events, not by sleeps: the drop opens
// once the node has received workload batches, closes once the relay has
// discarded one, and the sessions keep running until a tail of operations
// after the heal — so the gap always exists and the heal always sees traffic.
func TestCatchUpAfterDroppedLink(t *testing.T) {
	const (
		dcs        = 3
		partitions = 2
		keys       = 8
		sessions   = 2
		tailOps    = 300 // operations the sessions run after the heal
	)
	c := NewTestCluster(t, Topology{DCs: dcs, Partitions: partitions},
		WithHeartbeat(time.Millisecond),
		WithGC(20*time.Millisecond),
		WithLatency(UniformLatency(50*time.Microsecond, 2*time.Millisecond), 0.3),
		WithDataDir(t.TempDir()),
		WithSeed(1010),
		WithConfig(func(cfg *Config) { cfg.PutDepWait = true }))
	tbl := keyspace.Build(partitions, keys)
	c.SeedTable(tbl)
	reg := causaltest.NewRegistry()

	var (
		wg   sync.WaitGroup
		ops  atomic.Uint64
		stop = make(chan struct{})
	)
	stopSessions := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopSessions()
	for dc := 0; dc < dcs; dc++ {
		for si := 0; si < sessions; si++ {
			sess, err := c.NewSession(dc)
			if err != nil {
				t.Fatal(err)
			}
			cs := causaltest.NewSession(reg, sess, sessionName(dc, si))
			wg.Add(1)
			go func(dc, si int, cs *causaltest.Session) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(1010, uint64(dc*1000+si)))
				for op := 0; ; op++ {
					select {
					case <-stop:
						return
					default:
					}
					key := tbl.Key(int(rng.Uint64N(partitions)), int(rng.Uint64N(keys)))
					var err error
					switch {
					case op%10 == 9:
						ks := []string{tbl.Key(0, int(rng.Uint64N(keys))), tbl.Key(1, int(rng.Uint64N(keys)))}
						_, err = cs.ROTx(ks)
					case op%3 == 2:
						err = cs.Put(key, []byte{byte(dc), byte(op)})
					default:
						_, err = cs.Get(key)
					}
					if err != nil {
						t.Errorf("dc%d s%d op %d: %v", dc, si, op, err)
						return
					}
					ops.Add(1)
				}
			}(dc, si, cs)
		}
	}

	// Open the drop only once workload batches reach dc2-p0: a head there
	// carrying a session's two-byte value from another DC (seeded values
	// are eight bytes) arrived in a replication batch.
	const victimDC, victimP = 2, 0
	if !waitUntil(t, 10*time.Second, func() bool {
		for r := 0; r < keys; r++ {
			h := c.Server(victimDC, victimP).Store().Head(tbl.Key(victimP, r))
			if h != nil && h.SrcReplica != victimDC && len(h.Value) == 2 {
				return true
			}
		}
		return false
	}) {
		t.Fatal("no workload batch ever reached dc2-p0")
	}
	// Sever the node's inbound replication plane until the relay has
	// discarded a workload batch, then heal it. Messages in the window are
	// gone, not delayed.
	if err := c.DropInboundReplication(victimDC, victimP, true); err != nil {
		t.Fatal(err)
	}
	rl := c.relays[victimDC][victimP]
	waitUntil(t, 10*time.Second, func() bool { return rl.droppedBatches.Load() > 0 })
	if err := c.DropInboundReplication(victimDC, victimP, false); err != nil {
		t.Fatal(err)
	}
	if rl.droppedBatches.Load() == 0 {
		t.Fatal("the drop window discarded no batch; the scenario needs a gap")
	}
	healedAt := ops.Load()
	if !waitUntil(t, 10*time.Second, func() bool { return ops.Load() >= healedAt+tailOps }) {
		t.Errorf("sessions stalled after the heal: %d of %d tail ops", ops.Load()-healedAt, tailOps)
	}
	stopSessions()

	for _, v := range reg.Violations() {
		t.Error(v)
	}

	// Convergence epilogue: every replica, including the one that lost part
	// of the stream, must land on identical heads.
	if !waitUntil(t, 10*time.Second, func() bool {
		for p := 0; p < partitions; p++ {
			for r := 0; r < keys; r++ {
				key := tbl.Key(p, r)
				h0 := c.Server(0, p).Store().Head(key)
				for dc := 1; dc < dcs; dc++ {
					h := c.Server(dc, p).Store().Head(key)
					if (h0 == nil) != (h == nil) {
						return false
					}
					if h0 != nil && !h0.Same(h) {
						return false
					}
				}
			}
		}
		return true
	}) {
		st := c.ReplicationStats()
		t.Fatalf("replicas did not converge after the dropped link (catch-up stats %+v)", st)
	}
	st := c.ReplicationStats()
	if st.CatchUpsCompleted == 0 {
		t.Fatalf("converged without any catch-up round (%+v); the drop window saw no traffic?", st)
	}
	t.Logf("catch-up stats: %+v, max lag %v", st, st.MaxLag())
	if err := c.StorageErr(); err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpCountersExposed pins that a quiet durable cluster reports a
// healthy replication plane: no active rounds, bounded lag.
func TestCatchUpCountersExposed(t *testing.T) {
	c := NewTestCluster(t, Topology{DCs: 2, Partitions: 1},
		WithHeartbeat(time.Millisecond),
		WithDataDir(t.TempDir()))
	sess, err := c.NewSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 5*time.Second, func() bool {
		st := c.ReplicationStats()
		return st.CatchUpsActive == 0 && st.MaxLag() < 250*time.Millisecond
	}) {
		t.Fatalf("replication plane never settled: %+v", c.ReplicationStats())
	}
}

// TestInMemoryLinksAdoptAtFirstContact: in-memory deployments verify the
// sequence on every replication link, as durable ones do. Over lossless
// FIFO links each stream is adopted at first contact, so a PUT workload
// moves every version-vector entry past the origin's last write without a
// single catch-up request.
func TestInMemoryLinksAdoptAtFirstContact(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"netemu", nil},
		{"tcp", []Option{WithTCP()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const dcs, partitions = 3, 2
			c := NewTestCluster(t, Topology{DCs: dcs, Partitions: partitions},
				append(tc.opts, WithHeartbeat(time.Millisecond))...)
			last := make([]vclock.Timestamp, dcs) // newest PUT per origin DC
			for dc := 0; dc < dcs; dc++ {
				sess, err := c.NewSession(dc)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 50; i++ {
					ut, _, err := sess.PutMeta(fmt.Sprintf("k%d-%d", dc, i), []byte("v"))
					if err != nil {
						t.Fatal(err)
					}
					last[dc] = max(last[dc], ut)
				}
			}
			if !waitUntil(t, 10*time.Second, func() bool {
				for dc := 0; dc < dcs; dc++ {
					for p := 0; p < partitions; p++ {
						vv := c.Server(dc, p).VV()
						for src := range last {
							if vv.Get(src) < last[src] {
								return false
							}
						}
					}
				}
				return true
			}) {
				t.Fatalf("version vectors never covered the workload (stats %+v)", c.ReplicationStats())
			}
			if st := c.ReplicationStats(); st.CatchUpsRequested != 0 {
				t.Fatalf("in-memory links requested %d catch-up rounds; want every stream adopted at first contact", st.CatchUpsRequested)
			}
		})
	}
}

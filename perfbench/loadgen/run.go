package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/perfbench/internal/deploy"
)

const (
	// setupRounds is how many times an end-to-end run sets the deployment
	// up; setup_s is the median, and the last two set-ups serve the run.
	setupRounds = 5
	// lagSampleEvery is the traced run's replication-lag sampling period;
	// each sample walks the store's chains, so it is kept sparse.
	lagSampleEvery = 100 * time.Millisecond
	// codecStreamSeconds is how much of the open-loop schedule the codec
	// and storage legs replay.
	codecStreamSeconds = 10
	// openShare is the open-loop phase's share of an end-to-end run's
	// window; the closed-loop phase gets the rest. Capacity under a
	// saturated CPU is the noisier of the two on a shared host, so it gets
	// the larger share.
	openShare = 0.4
)

// params is the workload's deployment with its data directory ("" for an
// in-memory one).
func (r *runner) params(dataDir string) deploy.Params {
	return deploy.Params{WAN: r.w.wan, DataDir: dataDir, Fsync: r.fsync && dataDir != ""}
}

func poolSessions(d *deployment) func(dc int) kv {
	return func(dc int) kv { return d.pools[dc].Session() }
}

// endToEnd is the untraced run. It sets the deployment up setupRounds
// times and reports the median set-up time. The last two set-ups serve one
// phase each, so neither phase inherits the other's state: first the
// open-loop phase at the workload's fixed rate with the visibility probe,
// then the closed-loop capacity phase. Each ends with the sweep.
func (r *runner) endToEnd(bin, out string, window time.Duration) (metrics, error) {
	var setups samples
	var setupSteal []float64
	setup := func(round int) (*deployment, string, error) {
		dir, err := r.dataDir(out, fmt.Sprint(round))
		if err != nil {
			return nil, "", err
		}
		t0, s0 := time.Now(), hostSteal()
		d, err := start(bin, r.params(dir))
		setups = append(setups, time.Since(t0))
		setupSteal = append(setupSteal, hostSteal().since(s0))
		return d, dir, err
	}
	finish := func(d *deployment, dir string, sweep bool) error {
		var err error
		if sweep {
			err = r.sweepDeployment(d)
		}
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	for i := 0; i < setupRounds-2; i++ {
		d, dir, err := setup(i)
		if err != nil {
			return nil, err
		}
		if err := finish(d, dir, false); err != nil {
			return nil, err
		}
	}

	d, dir, err := setup(setupRounds - 2)
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	openWindow := time.Duration(openShare * float64(window))
	open := r.openLoop(poolSessions(d), openWindow, "pool", nil)
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if err := finish(d, dir, true); err != nil {
		return nil, err
	}

	if d, dir, err = setup(setupRounds - 1); err != nil {
		return nil, err
	}
	closed := r.closedLoop(poolSessions(d), window-openWindow)
	if err := finish(d, dir, true); err != nil {
		return nil, err
	}

	m := metrics{}
	// The medians are taken over the calm set-ups and sub-windows only
	// (steal.go); the tails, printed below, over every sample.
	m.set("setup_s", filter(setups, calm(setupSteal)).quantile(0.5).Seconds(), "s")
	m.set("throughput_ops_s", closed.throughput(), "ops/s")
	for k := opKind(0); k < numKinds; k++ {
		m.set(k.String()+"_p50_us", us(open.calmLat[k].quantile(0.5)), "us")
	}
	m.set("vis_p50_ms", ms(open.calmVis.quantile(0.5)), "ms")
	// Per workload op: the probe's fixed load is in the CPU time but not in
	// the count.
	m.set("cpu_us_per_op", us(cpu1-cpu0)/float64(max(open.completed, 1)), "us")
	m.set("rss_mb", rss, "MiB") // the open-loop deployment's: fixed work

	// The tails are printed but carry no bound in BENCHMARK.json: their
	// run-to-run spread on a small host is several times any usable bound.
	for k := opKind(0); k < numKinds; k++ {
		printTail(k.String()+"_p99_us", open.lat[k], us, "us")
	}
	printTail("vis_p99_ms", open.vis, ms, "ms")
	h0, h1 := closed.halves()
	fmt.Printf("closed loop: %d sessions/DC, halves %d/%d ops (gap %.1f%%), mean rate %.0f ops/s (stalls included)\n",
		r.w.closedSessions, h0, h1, 100*closed.halvesGap(), closed.mean())
	fmt.Printf("host steal: set-ups %v; open loop %v sub-windows %v; closed loop %v\n",
		summarize(setupSteal), subWindow, summarize(open.steal), summarize(closed.steal))
	if closed.halvesGap() > r.steadyBound {
		fmt.Printf("flag: closed-loop halves differ by %.1f%% (> %.0f%%): throughput not steady\n",
			100*closed.halvesGap(), 100*r.steadyBound)
	}
	r.reportOpen(open)
	return m, nil
}

// reportOpen prints the open-loop phase's validity figures.
func (r *runner) reportOpen(o openResult) {
	fmt.Printf("open loop: %.0f ops/s offered, %d issued, loadgen.late p50 %.1f us p99 %.1f us, in flight mean %.1f (mid %.1f, end %.1f)\n",
		r.w.openRate, o.issued, us(o.late.quantile(0.5)), us(o.late.quantile(0.99)),
		o.inflight, o.inflightMid, o.inflightEnd)
	fmt.Printf("probe: %d probes, %d ops (%.1f%% of the phase's ops; not counted as completed), %d polls past the %d-poll budget\n",
		len(o.vis), o.probeOps, 100*ratio(float64(o.probeOps), float64(o.probeOps)+float64(o.issued)),
		o.probeExtra, probePolls)
	if o.backlogGrew() {
		fmt.Printf("flag: open-loop backlog grew (in flight %.1f mid-window, %.1f at the end)\n",
			o.inflightMid, o.inflightEnd)
	}
}

// printTail prints a p99 with its sample count, flagged when fewer than ten
// samples lie beyond it.
func printTail(name string, s samples, scale func(time.Duration) float64, unit string) {
	fmt.Printf("%s = %.6g %s (unbounded; %d samples)\n", name, scale(s.quantile(0.99)), unit, len(s))
	if b := beyond(0.99, len(s)); b < 10 {
		fmt.Printf("flag: %s rests on %d samples (%d beyond it)\n", name, len(s), b)
	}
}

// sweepDeployment runs the convergence sweep over all three data centers
// and then forgets the deployment's writes. The third DC's pool is dialed
// only now, after the measured phase.
func (r *runner) sweepDeployment(d *deployment) error {
	defer func() { r.written = make(map[string]struct{}) }()
	pools := []*client.Pool{d.pools[0], d.pools[1]}
	for _, addr := range d.addrs[loadedDCs:] {
		p, err := client.DialPool(client.PoolConfig{Addr: addr, Conns: 1})
		if err != nil {
			return err
		}
		defer p.Close()
		pools = append(pools, p)
	}
	return r.sweep(pools)
}

// traced is the per-layer run. After a warm-up, the same seed's open loop
// runs through the front door twice, untraced then traced (their p50 gap is
// the tracing overhead), with the store's counters read around the traced
// window; then in process through occ.Session; then the codec and storage
// legs replay the stream standalone.
func (r *runner) traced(bin, out string, window time.Duration) (metrics, error) {
	tr := newTracer()
	leg := window / 4
	dir, err := r.dataDir(out, "traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	d, err := start(bin, r.params(dir))
	if err != nil {
		return nil, err
	}
	r.openLoop(poolSessions(d), leg/2, "pool", nil)
	base := r.openLoop(poolSessions(d), leg, "pool", nil)
	s0, err := d.stats()
	if err != nil {
		return nil, err
	}
	stopLag := make(chan struct{})
	lagDone := sampleLag(d, stopLag)
	pooled := r.openLoop(poolSessions(d), leg, "pool", tr)
	close(stopLag)
	lags := <-lagDone
	if lags.err != nil {
		return nil, lags.err
	}
	s1, err := d.stats()
	if err != nil {
		return nil, err
	}
	if err := r.sweepDeployment(d); err != nil {
		return nil, err
	}
	if err := d.close(); err != nil {
		return nil, err
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	userBytes := r.putBytes.Load() + r.seededBytes()

	inDir, err := r.dataDir(out, "inproc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(inDir)
	store, err := deploy.Open(r.params(inDir))
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	inproc := r.openLoop(func(dc int) kv {
		s, err := store.Session(dc)
		if err != nil {
			panic(err) // loaded DCs always exist
		}
		return s
	}, leg, "core", tr)
	runtime.ReadMemStats(&m1)
	store.Close()

	n := int(r.w.openRate * codecStreamSeconds)
	fdEnc, fdDec, err := r.wireLeg(tr, n)
	if err != nil {
		return nil, err
	}
	replBytes, replEnc, replDec, err := r.replCodecLeg(tr, n)
	if err != nil {
		return nil, err
	}
	insNS, readNS, err := r.storageLeg(tr, n)
	if err != nil {
		return nil, err
	}
	tr.add(pooled.spans...)
	tr.add(inproc.spans...)
	spanFile := filepath.Join(out, "spans-"+r.w.name+".jsonl")
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spanFile)

	m := metrics{}
	m.set("kvserver.self_get_p50_us", us(p50(pooled.call[opGet])-p50(inproc.call[opGet])), "us")
	m.set("kvserver.self_put_p50_us", us(p50(pooled.call[opPut])-p50(inproc.call[opPut])), "us")
	m.set("client.inflight_mean", pooled.inflight, "count")
	m.set("wire.fd_encode_ns_per_op", fdEnc, "ns")
	m.set("wire.fd_decode_ns_per_op", fdDec, "ns")
	m.set("wire.repl_bytes_per_version", replBytes, "B")
	m.set("wire.repl_encode_ns_per_version", replEnc, "ns")
	m.set("wire.repl_decode_ns_per_version", replDec, "ns")
	m.set("core.get_p50_us", us(p50(inproc.call[opGet])), "us")
	m.set("core.put_p50_us", us(p50(inproc.call[opPut])), "us")
	m.set("core.rotx_p50_us", us(p50(inproc.call[opROTx])), "us")
	m.set("core.rotx_p99_us", us(inproc.call[opROTx].quantile(0.99)), "us")
	ops, blocked := float64(s1.Ops-s0.Ops), float64(s1.Blocked-s0.Blocked)
	m.set("core.blocking_pct", 100*ratio(blocked, ops), "%")
	m.set("core.block_mean_us", ratio(s1.BlockedNanos-s0.BlockedNanos, blocked)/1e3, "us")
	m.set("core.old_reads_pct", s1.OldReadsPct, "%")
	m.set("core.unmerged_reads_pct", s1.UnmergedReadsPct, "%")
	m.set("core.server_ops_per_op", ratio(ops, float64(pooled.completed)), "count")
	m.set("core.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), float64(inproc.completed)), "count")
	m.set("repl.msgs_per_op", ratio(float64(s1.Messages-s0.Messages), float64(pooled.completed)), "count")
	m.set("repl.lag_p99_ms", ms(lags.lags.quantile(0.99)), "ms")
	m.set("repl.catchups", float64(s1.CatchUps), "count")
	m.set("storage.insert_ns", insNS, "ns")
	m.set("storage.read_ns", readNS, "ns")
	m.set("storage.versions_per_key_start", ratio(float64(s0.Versions), float64(s0.Keys)), "count")
	m.set("storage.versions_per_key", ratio(float64(s1.Versions), float64(s1.Keys)), "count")
	groups := float64(s1.CommitGroups - s0.CommitGroups)
	m.set("wal.records_per_group", ratio(float64(s1.WALRecords-s0.WALRecords), groups), "count")
	m.set("wal.fsyncs_per_s", float64(s1.Fsyncs-s0.Fsyncs)/leg.Seconds(), "1/s")
	m.set("wal.ack_to_durable_mean_us", ratio(s1.AckLagSumNanos-s0.AckLagSumNanos, groups)/1e3, "us")
	m.set("wal.ack_to_durable_max_us", float64(s1.AckLagMaxNanos)/1e3, "us")
	m.set("wal.disk_bytes_per_user_byte", ratio(float64(disk), float64(userBytes)), "B/B")
	m.set("loadgen.late_p50_us", us(pooled.late.quantile(0.5)), "us")
	m.set("loadgen.late_p99_us", us(pooled.late.quantile(0.99)), "us")
	all := func(o openResult) samples {
		var s samples
		for k := range o.lat {
			s = append(s, o.lat[k]...)
		}
		return s
	}
	untracedP50 := p50(all(base))
	m.set("trace.overhead_pct", 100*ratio(float64(p50(all(pooled))-untracedP50), float64(untracedP50)), "%")

	r.reportOpen(pooled)
	if s1.CatchUps != 0 {
		fmt.Printf("flag: %d replication catch-ups during the run (expected none)\n", s1.CatchUps)
	}
	return m, nil
}

// seededBytes is the user payload the deployment seeds: every key once.
func (r *runner) seededBytes() int64 {
	var n int64
	for part := 0; part < r.table.Partitions(); part++ {
		for _, k := range r.table.AllKeys(part) {
			n += int64(len(k) + deploy.ValueSize)
		}
	}
	return n
}

type lagResult struct {
	lags samples
	err  error
}

// sampleLag samples the deployment's worst replication lag until stop.
func sampleLag(d *deployment, stop <-chan struct{}) <-chan lagResult {
	out := make(chan lagResult, 1)
	go func() {
		var res lagResult
		defer func() { out <- res }()
		tick := time.NewTicker(lagSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s, err := d.stats()
				if err != nil {
					res.err = err
					return
				}
				res.lags = append(res.lags, time.Duration(s.MaxLagNanos))
			}
		}
	}()
	return out
}

// dirBytes sums the sizes of the regular files under dir ("" = none).
func dirBytes(dir string) (int64, error) {
	if dir == "" {
		return 0, nil
	}
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

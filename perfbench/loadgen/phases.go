package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keyspace"
	"repro/internal/workload"
	"repro/perfbench/internal/deploy"
)

// runner holds what every phase of one run shares: the workload, its seed,
// the keyspace, and the run-wide tallies of ops and violations.
type runner struct {
	w    spec
	seed uint64
	// steadyBound is how far the closed loop's first and last sub-windows
	// may differ before the run is flagged: the throughput_ops_s bound.
	steadyBound float64
	// fsync keeps the WAL's fsync on: in the traced run only.
	fsync bool
	table *keyspace.Table
	zipf  *workload.Zipf

	viol      violations
	attempted atomic.Int64
	failed    atomic.Int64
	errs      atomic.Int64 // op errors printed so far
	putBytes  atomic.Int64 // key and value bytes of acknowledged PUTs

	nextID atomic.Uint32
	// probeSeq is the last probe number written per probe key. Probe
	// numbers keep rising across phases, so a DC can never hold a probe
	// value numbered above the one in flight.
	probeSeq []uint64
	mu       sync.Mutex
	// written is every key some session wrote to the current deployment
	// and saw acknowledged: none of them may still hold its seed value.
	written map[string]struct{}
}

func newRunner(w spec, seed uint64, traced bool) *runner {
	return &runner{
		w:        w,
		seed:     seed,
		fsync:    traced,
		table:    deploy.Table(),
		zipf:     workload.NewZipf(deploy.KeysPerPartition, zipfExponent),
		written:  make(map[string]struct{}),
		probeSeq: make([]uint64, deploy.Partitions),
	}
}

// session opens a checked session with a run-unique id.
func (r *runner) session(s kv) *session {
	return newSession(s, r.nextID.Add(1), &r.viol)
}

// retire folds a finished session's acknowledged writes into the run's set.
func (r *runner) retire(s *session) {
	r.mu.Lock()
	for k := range s.written {
		r.written[k] = struct{}{}
	}
	r.mu.Unlock()
}

// exec runs one op on s and counts it.
func (r *runner) exec(s *session, o op) error {
	r.attempted.Add(1)
	err := s.exec(o)
	if err == nil && o.kind == opPut {
		r.putBytes.Add(int64(len(o.keys[0]) + deploy.ValueSize))
	}
	if err != nil {
		r.failed.Add(1)
		if r.errs.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "op %s %v: %v\n", o.kind, o.keys, err)
		}
	}
	return err
}

// closedResult is the capacity phase's outcome.
type closedResult struct {
	// slices holds the ops completed in each subWindow of the window, and
	// steal the share of the host's CPU time stolen in it.
	slices []int64
	steal  []float64
}

// throughput is the median rate of the calm sub-windows: neither a stall
// of the program during a minority of the window nor the hypervisor running
// other guests on the VM's CPUs moves it.
func (c closedResult) throughput() float64 {
	var rates []float64
	for _, n := range filter(c.slices, calm(c.steal)) {
		rates = append(rates, float64(n)/subWindow.Seconds())
	}
	if len(rates) == 0 {
		return 0
	}
	sort.Float64s(rates)
	if n := len(rates); n%2 == 0 {
		return (rates[n/2-1] + rates[n/2]) / 2
	}
	return rates[len(rates)/2]
}

// mean is the window's mean rate, stalls included.
func (c closedResult) mean() float64 {
	a, b := c.halves()
	return float64(a+b) / (time.Duration(len(c.slices)) * subWindow).Seconds()
}

// halves is the ops completed in each half of the window.
func (c closedResult) halves() (a, b int64) {
	for i, n := range c.slices {
		if i < len(c.slices)/2 {
			a += n
		} else {
			b += n
		}
	}
	return a, b
}

// halvesGap is the relative difference between the two halves' throughput.
func (c closedResult) halvesGap() float64 {
	a, b := c.halves()
	if a+b == 0 {
		return 0
	}
	return 2 * math.Abs(float64(a-b)) / float64(a+b)
}

// closedLoop runs the capacity phase: closedSessions sessions per loaded DC,
// each issuing its next op as soon as the previous one completes, so the
// number of requests in flight stays fixed. Ops completed during a short
// warm-up are not counted; the rest are counted per subWindow.
func (r *runner) closedLoop(open func(dc int) kv, window time.Duration) closedResult {
	n := max(int(window/subWindow), 2)
	counts := make([]atomic.Int64, n)
	start := time.Now().Add(window / 10)
	end := start.Add(time.Duration(n) * subWindow)
	steal := sampleSteal(start, n)
	var wg sync.WaitGroup
	for dc := 0; dc < loadedDCs; dc++ {
		for i := 0; i < r.w.closedSessions; i++ {
			s := r.session(open(dc))
			gen := newOpGen(r.w, r.table, r.zipf, r.seed, uint64(s.id))
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer r.retire(s)
				for time.Now().Before(end) {
					if r.exec(s, gen.next()) != nil {
						continue
					}
					if done := time.Now(); !done.Before(start) && done.Before(end) {
						counts[done.Sub(start)/subWindow].Add(1)
					}
				}
			}()
		}
	}
	wg.Wait()
	res := closedResult{slices: make([]int64, n), steal: <-steal}
	for i := range counts {
		res.slices[i] = counts[i].Load()
	}
	return res
}

// openResult is an open-loop phase's outcome.
type openResult struct {
	// lat is each op's latency from its due time; call from its send.
	lat, call [numKinds]samples
	late      samples // how late the generator handed each op off
	vis       samples // probe: PUT acked at DC0 until DC1 returns the value
	// calmLat and calmVis are the samples of lat and vis that belong to
	// calm sub-windows (see calm), ops by their due time and probes by
	// their PUT, plus every failed one wherever it fell. steal is the share of the host's CPU time stolen in each
	// subWindow of the phase.
	calmLat   [numKinds]samples
	calmVis   samples
	steal     []float64
	completed int64 // workload ops that completed
	issued    int
	// probeOps is how many ops the visibility probe issued beside the
	// workload; probeExtra how many of its polls went past the budget.
	probeOps, probeExtra int64
	// inflight is the mean number of ops issued but not completed over the
	// whole window, around its middle and over its last tenth.
	inflight, inflightMid, inflightEnd float64
	spans                              []span
}

// backlogGrew reports an open loop that ended with a growing queue: the
// in-flight count at the end well above the mid-window count.
func (o openResult) backlogGrew() bool {
	return o.inflightEnd > 1.5*o.inflightMid+8
}

// failedLatency is the latency recorded for an op that failed: it misses
// every limit, so a program that turns slow ops into fast errors cannot
// improve a percentile by it.
const failedLatency = time.Duration(math.MaxInt64)

type job struct {
	i   int
	op  op
	due time.Time
}

// worker is one open-loop session: it runs the ops handed to its DC, timing
// each from its due time.
type worker struct {
	lat, call [numKinds]samples
	slot      [numKinds][]int32 // each lat sample's sub-window
	spans     []span
	done      int64
}

// openLoop offers the workload's fixed rate for window: op i is due at
// start + i/rate and goes to loaded DC i mod 2, where the first free session
// runs it. The visibility probe runs alongside. With a tracer, every op gets
// a span from due to completion and a child span around the call.
func (r *runner) openLoop(open func(dc int) kv, window time.Duration, leg string, tr *tracer) openResult {
	var res openResult
	// A second of offered load: the pacer only blocks on a full queue once
	// every session of a DC is a full second behind.
	var jobs [loadedDCs]chan job
	for dc := range jobs {
		jobs[dc] = make(chan job, int(r.w.openRate))
	}
	var inflight atomic.Int64
	var legID int64
	if tr != nil {
		legID = tr.newID()
	}
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(window)
	nSlots := max(int(window/subWindow), 1)
	slot := func(t time.Time) int32 {
		return int32(min(max(int(t.Sub(start)/subWindow), 0), nSlots-1))
	}
	steal := sampleSteal(start, nSlots)
	workers := make([]*worker, 0, loadedDCs*r.w.openSessions)
	var wg sync.WaitGroup
	for dc := 0; dc < loadedDCs; dc++ {
		for i := 0; i < r.w.openSessions; i++ {
			s, wk := r.session(open(dc)), &worker{}
			workers = append(workers, wk)
			wg.Add(1)
			go func(ch <-chan job) {
				defer wg.Done()
				defer r.retire(s)
				for j := range ch {
					sent := time.Now()
					err := r.exec(s, j.op)
					end := time.Now()
					inflight.Add(-1)
					if err != nil {
						// A failed op misses every latency limit.
						wk.lat[j.op.kind] = append(wk.lat[j.op.kind], failedLatency)
						wk.call[j.op.kind] = append(wk.call[j.op.kind], failedLatency)
						wk.slot[j.op.kind] = append(wk.slot[j.op.kind], slot(j.due))
						continue
					}
					wk.done++
					wk.lat[j.op.kind] = append(wk.lat[j.op.kind], end.Sub(j.due))
					wk.slot[j.op.kind] = append(wk.slot[j.op.kind], slot(j.due))
					wk.call[j.op.kind] = append(wk.call[j.op.kind], end.Sub(sent))
					if tr != nil {
						opID := tr.newID()
						wk.spans = append(wk.spans,
							tr.span(opID, legID, j.i, leg+".op", j.due, end),
							tr.span(tr.newID(), opID, j.i, leg+"."+j.op.kind.String(), sent, end))
					}
				}
			}(jobs[dc])
		}
	}

	stopProbe := make(chan struct{})
	probes := r.startProbes(open, start, stopProbe)
	sampled := sampleInflight(&inflight, start, end)

	gen := newOpGen(r.w, r.table, r.zipf, r.seed, 0)
	p := newPacer(start, r.w.openRate)
	res.issued = p.run(end, func(i int, due, issued time.Time) {
		res.late = append(res.late, issued.Sub(due))
		inflight.Add(1)
		jobs[i%loadedDCs] <- job{i: i, op: gen.next(), due: due}
	})
	for _, ch := range jobs {
		close(ch)
	}
	close(stopProbe)
	wg.Wait()
	s := <-sampled
	res.inflight, res.inflightMid, res.inflightEnd = s.mean, s.mid, s.end
	res.steal = <-steal
	keep := calm(res.steal)
	for _, pr := range probes.wait() {
		res.vis = append(res.vis, pr.vis...)
		for i, at := range pr.at {
			if keep[slot(at)] || pr.vis[i] == failedLatency {
				res.calmVis = append(res.calmVis, pr.vis[i])
			}
		}
		res.probeOps += pr.ops
		res.probeExtra += pr.extra
	}
	for _, wk := range workers {
		res.completed += wk.done
		for k := range wk.lat {
			res.lat[k] = append(res.lat[k], wk.lat[k]...)
			res.call[k] = append(res.call[k], wk.call[k]...)
			for i, sl := range wk.slot[k] {
				if keep[sl] || wk.lat[k][i] == failedLatency {
					res.calmLat[k] = append(res.calmLat[k], wk.lat[k][i])
				}
			}
		}
		res.spans = append(res.spans, wk.spans...)
	}
	if tr != nil {
		res.spans = append(res.spans, tr.span(legID, 0, -1, "leg."+leg, start, time.Now()))
	}
	return res
}

type inflightSummary struct{ mean, mid, end float64 }

// sampleInflight samples the in-flight count every millisecond of the
// window and reports its means.
func sampleInflight(n *atomic.Int64, start, end time.Time) <-chan inflightSummary {
	out := make(chan inflightSummary, 1)
	go func() {
		window := end.Sub(start)
		var all, mid, last [2]float64 // sum, count
		time.Sleep(time.Until(start))
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for now := range tick.C {
			if !now.Before(end) {
				break
			}
			v, at := float64(n.Load()), now.Sub(start)
			all[0], all[1] = all[0]+v, all[1]+1
			if at >= window*4/10 && at < window*6/10 {
				mid[0], mid[1] = mid[0]+v, mid[1]+1
			}
			if at >= window*9/10 {
				last[0], last[1] = last[0]+v, last[1]+1
			}
		}
		m := func(a [2]float64) float64 {
			if a[1] == 0 {
				return 0
			}
			return a[0] / a[1]
		}
		out <- inflightSummary{mean: m(all), mid: m(mid), end: m(last)}
	}()
	return out
}

// probeResult is one probe key's outcome.
type probeResult struct {
	vis   samples
	at    []time.Time // when each vis sample's PUT was sent
	ops   int64       // probe PUTs and GETs issued
	extra int64       // polls past the probePolls budget: probes slower than it
}

type probeSet struct {
	wg  sync.WaitGroup
	res []*probeResult
}

func (p *probeSet) wait() []*probeResult {
	p.wg.Wait()
	return p.res
}

// probeKeys returns one probe key per partition, outside the workload's
// keyspace so the probe never races the workload's writes.
func probeKeys(partitions int) []string {
	keys := make([]string, partitions)
	found := 0
	for i := 0; found < partitions; i++ {
		k := fmt.Sprintf("probe%d", i)
		if p := keyspace.PartitionOf(k, partitions); keys[p] == "" {
			keys[p] = k
			found++
		}
	}
	return keys
}

// probeTimeout bounds how long a probe may stay invisible at DC1.
const probeTimeout = 10 * time.Second

// startProbes runs the visibility probe on a fixed schedule from start until
// stop: every probePeriod, per probe key (the keys staggered across the
// period), a PUT of a fresh value at DC0, then probePolls GETs at DC1. A
// probe that outlasts its period makes its key skip the starts it missed.
func (r *runner) startProbes(open func(dc int) kv, start time.Time, stop <-chan struct{}) *probeSet {
	ps := &probeSet{}
	keys := probeKeys(deploy.Partitions)
	period := r.w.probePeriod
	for i, key := range keys {
		res := &probeResult{}
		ps.res = append(ps.res, res)
		writer, reader := open(0), open(1)
		rng := rand.New(rand.NewPCG(r.seed, probeStream+uint64(i)))
		due := start.Add(period * time.Duration(i) / time.Duration(len(keys)))
		ps.wg.Add(1)
		go func() {
			defer ps.wg.Done()
			for ; ; due = due.Add(period) {
				for now := time.Now(); due.Before(now); {
					due = due.Add(period)
				}
				select {
				case <-stop:
					return
				case <-time.After(time.Until(due)):
				}
				r.probeSeq[i]++
				offset := time.Duration(rng.Int64N(int64(probeTick)))
				if !r.probeOnce(writer, reader, key, r.probeSeq[i], offset, res) {
					return
				}
			}
		}()
	}
	return ps
}

// probeStream is the first random stream of the probe keys' poll offsets,
// clear of the op generators' streams (0 and the session ids).
const probeStream = 1 << 32

// probeOnce writes probe n and polls for it at DC1, probePolls times or
// until it shows, whichever is later. The polls are due every probeTick from
// offset after the PUT's acknowledgement; one that comes due while the last
// is still running waits for the next tick. The visibility latency runs from
// the acknowledgement to the return of the first GET that reads the value; a
// probe that fails counts as never visible. It reports false when the probe
// cannot go on.
func (r *runner) probeOnce(writer, reader kv, key string, n uint64, offset time.Duration, res *probeResult) bool {
	val := deploy.ProbeValue(key, n)
	seen := false
	sent := time.Now()
	record := func(d time.Duration) {
		res.vis = append(res.vis, d)
		res.at = append(res.at, sent)
		seen = true
	}
	fail := func(err error) bool {
		r.failed.Add(1)
		fmt.Fprintf(os.Stderr, "probe %s #%d: %v\n", key, n, err)
		if !seen {
			record(failedLatency)
		}
		return false
	}
	r.attempted.Add(1)
	res.ops++
	if err := writer.Put(key, val); err != nil {
		return fail(err)
	}
	acked := time.Now()
	r.putBytes.Add(int64(len(key) + deploy.ValueSize))
	next := acked.Add(offset)
	for poll := 1; ; poll++ {
		time.Sleep(time.Until(next))
		r.attempted.Add(1)
		res.ops++
		if poll > probePolls {
			res.extra++
		}
		v, err := reader.Get(key)
		now := time.Now()
		if err != nil {
			return fail(err)
		}
		switch {
		case bytes.Equal(v, val):
			if !seen {
				record(now.Sub(acked))
			}
		case seen:
			// The reader's session saw the value, so it must keep seeing it.
			r.viol.add(fmt.Errorf("probe %s #%d: DC1 returned %q after showing the probe", key, n, v))
			r.failed.Add(1)
			return false
		case v != nil:
			// Until it arrives, DC1 may only show an earlier probe of the key.
			tag, err := deploy.Parse(v, key)
			if err == nil && (tag.Kind != deploy.KindProbe || tag.Seq >= n) {
				err = fmt.Errorf("probe %s #%d: DC1 returned %q", key, n, v)
			}
			if err != nil {
				r.viol.add(err)
				r.failed.Add(1)
				return false
			}
		}
		if seen && poll >= probePolls {
			return true
		}
		if !seen && now.Sub(acked) > probeTimeout {
			r.viol.add(fmt.Errorf("probe %s #%d not visible at DC1 after %v", key, n, probeTimeout))
			r.failed.Add(1)
			return false
		}
		for next = next.Add(probeTick); next.Before(now); {
			next = next.Add(probeTick)
		}
	}
}

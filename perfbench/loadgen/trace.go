package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/item"
	"repro/internal/keyspace"
	"repro/internal/msg"
	"repro/internal/netemu"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/internal/wire"
	"repro/perfbench/internal/deploy"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public entry point. Spans of the same op share Op (the op's index
// in the seed's stream) across legs; Parent links a call to its op and an op
// to its leg.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer hands out span ids and keeps every span in memory until the run
// ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) span(id, parent int64, op int, name string, start, end time.Time) span {
	return span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
}

func (t *tracer) add(s ...span) { t.spans = append(t.spans, s...) }

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// chunk is how many ops one span covers in the codec and storage legs, whose
// calls are too short to time one by one without timing the clock.
const chunk = 1000

// wireLeg costs the front-door codec on the workload's own request and
// response frames: every op of the first n of the seed's stream is encoded
// (request and response), then decoded back.
func (r *runner) wireLeg(tr *tracer, n int) (encNS, decNS float64, err error) {
	gen := newOpGen(r.w, r.table, r.zipf, r.seed, 0)
	reqs := make([]wire.FrontDoorRequest, n)
	resps := make([]wire.FrontDoorResponse, n)
	for i := range reqs {
		o := gen.next()
		reqs[i] = wire.FrontDoorRequest{ID: uint64(i), Session: uint64(i % 256)}
		resps[i] = wire.FrontDoorResponse{ID: uint64(i)}
		switch o.kind {
		case opGet:
			reqs[i].Op, reqs[i].Key = wire.FDGet, o.keys[0]
			resps[i].Kind, resps[i].Exists = wire.FDValue, true
			resps[i].Value = deploy.SeedValue(o.keys[0])
		case opPut:
			reqs[i].Op, reqs[i].Key = wire.FDPut, o.keys[0]
			reqs[i].Value = deploy.WriteValue(o.keys[0], 1, uint64(i))
			resps[i].Kind = wire.FDOK
		default:
			reqs[i].Op, reqs[i].Keys = wire.FDROTx, o.keys
			resps[i].Kind = wire.FDTx
			for _, k := range o.keys {
				resps[i].Items = append(resps[i].Items, wire.FrontDoorTxItem{
					Key: k, Exists: true, Value: deploy.SeedValue(k)})
			}
		}
	}
	leg := tr.newID()
	legStart := time.Now()
	// Each chunk is encoded into reused buffers, as the pool's and the
	// server's writers batch frames, and copied out untimed for decoding.
	var reqBuf, respBuf, reqBatch, respBatch []byte
	var enc, dec time.Duration
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		reqBatch, respBatch = reqBatch[:0], respBatch[:0]
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			reqBatch = wire.AppendFrontDoorRequest(reqBatch, &reqs[i])
			respBatch = wire.AppendFrontDoorResponse(respBatch, &resps[i])
		}
		t1 := time.Now()
		enc += t1.Sub(t0)
		tr.add(tr.span(tr.newID(), leg, lo, "wire.fd_encode", t0, t1))
		reqBuf, respBuf = append(reqBuf, reqBatch...), append(respBuf, respBatch...)
	}
	reqR := bufio.NewReader(bytes.NewReader(reqBuf))
	respR := bufio.NewReader(bytes.NewReader(respBuf))
	var frame []byte
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if frame, err = wire.ReadFrontDoorFrame(reqR, frame); err != nil {
				return 0, 0, err
			}
			if _, err = wire.DecodeFrontDoorRequest(frame); err != nil {
				return 0, 0, err
			}
			if frame, err = wire.ReadFrontDoorFrame(respR, frame); err != nil {
				return 0, 0, err
			}
			if _, err = wire.DecodeFrontDoorResponse(frame); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		dec += t1.Sub(t0)
		tr.add(tr.span(tr.newID(), leg, lo, "wire.fd_decode", t0, t1))
	}
	tr.add(tr.span(leg, 0, -1, "leg.wire", legStart, time.Now()))
	return float64(enc.Nanoseconds()) / float64(n), float64(dec.Nanoseconds()) / float64(n), nil
}

// streamVersions turns the PUTs among the first n ops of the seed's stream
// into versions as a partition server would create them: stamped with the
// op's due time on a clock some seconds old, from the loaded DC the op
// entered, depending on a recent local and a WAN-old remote past.
func (r *runner) streamVersions(n int) []*item.Version {
	gen := newOpGen(r.w, r.table, r.zipf, r.seed, 0)
	p := newPacer(time.Time{}, r.w.openRate)
	const age = vclock.Timestamp(10 * time.Second)
	var out []*item.Version
	for i := 0; i < n; i++ {
		o := gen.next()
		if o.kind != opPut {
			continue
		}
		ut := age + vclock.Timestamp(p.due(i).Sub(time.Time{}))
		src := i % loadedDCs
		deps := vclock.New(deploy.DataCenters)
		for dc := range deps {
			deps[dc] = ut - vclock.Timestamp(2*time.Millisecond)
		}
		deps[src] = ut - vclock.Timestamp(time.Microsecond)
		out = append(out, &item.Version{
			Key: o.keys[0], Value: deploy.WriteValue(o.keys[0], 1, uint64(i)),
			SrcReplica: src, UpdateTime: ut, Deps: deps, Optimistic: true,
		})
	}
	return out
}

// replBatchSize is how many versions one partition server of one loaded DC
// creates in a heartbeat interval Δ at the open-loop rate: the size of the
// replication batches it flushes.
func (w spec) replBatchSize() int {
	total := 0
	for _, n := range w.mix {
		total += n
	}
	perServer := w.openRate * float64(w.mix[opPut]) / float64(total) / float64(loadedDCs*deploy.Partitions)
	return max(1, int(perServer*heartbeatDelta.Seconds()+0.5))
}

// replCodecLeg costs the replication codec: the stream's PUT versions,
// grouped per origin server into Δ-sized batches, are encoded as replication
// envelopes and decoded back.
func (r *runner) replCodecLeg(tr *tracer, n int) (bytesPerVersion, encNS, decNS float64, err error) {
	type origin struct{ dc, part int }
	pending := map[origin][]*item.Version{}
	var batches []wire.Envelope
	size := r.w.replBatchSize()
	var seq uint64
	for _, v := range r.streamVersions(n) {
		o := origin{v.SrcReplica, keyspace.PartitionOf(v.Key, deploy.Partitions)}
		pending[o] = append(pending[o], v)
		if len(pending[o]) == size {
			seq++
			batches = append(batches, wire.Envelope{
				Src: netemu.NodeID{DC: o.dc, Partition: o.part},
				Msg: msg.ReplicateBatch{Versions: pending[o], HBTime: v.UpdateTime, Epoch: 1, Seq: seq},
			})
			pending[o] = nil
		}
	}
	versions := len(batches) * size
	if versions == 0 {
		return 0, 0, 0, fmt.Errorf("no replication batches in %d ops", n)
	}
	leg := tr.newID()
	legStart := time.Now()
	var buf bytes.Buffer
	enc := wire.NewBinaryEncoder(&buf)
	t0 := time.Now()
	for _, b := range batches {
		if err := enc.Encode(b); err != nil {
			return 0, 0, 0, err
		}
	}
	t1 := time.Now()
	encoded := buf.Len()
	dec := wire.NewBinaryDecoder(bytes.NewReader(buf.Bytes()))
	for range batches {
		if _, err := dec.Decode(); err != nil {
			return 0, 0, 0, err
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		return 0, 0, 0, fmt.Errorf("replication stream did not end cleanly: %v", err)
	}
	t2 := time.Now()
	tr.add(tr.span(tr.newID(), leg, 0, "wire.repl_encode", t0, t1),
		tr.span(tr.newID(), leg, 0, "wire.repl_decode", t1, t2),
		tr.span(leg, 0, -1, "leg.repl_codec", legStart, t2))
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(versions) }
	return float64(encoded) / float64(versions), per(t1.Sub(t0)), per(t2.Sub(t1)), nil
}

// storageLeg costs the storage engine alone: a storage.Mem seeded with one
// partition's keys replays that partition's share of the first n ops of the
// stream (PUTs insert, GETs read the chain head as POCC does, RO-TX reads
// within a snapshot vector), collecting garbage at the deployment's cadence
// on the stream's own schedule.
func (r *runner) storageLeg(tr *tracer, n int) (insertNS, readNS float64, err error) {
	const part = 0
	mem := storage.New()
	for rank := 0; rank < r.table.KeysPerPartition(); rank++ {
		k := r.table.Key(part, rank)
		mem.Insert(&item.Version{Key: k, Value: deploy.SeedValue(k), Deps: vclock.New(deploy.DataCenters)})
	}
	versions := r.streamVersions(n)
	gen := newOpGen(r.w, r.table, r.zipf, r.seed, 0)
	p := newPacer(time.Time{}, r.w.openRate)
	always := func(*item.Version) bool { return true }
	snapshot := vclock.New(deploy.DataCenters)
	var gcFloor vclock.VC // the vector one GC interval ago
	nextGC := deploy.GCInterval
	leg := tr.newID()
	legStart, chunkStart := time.Now(), time.Now()
	var inserts, reads int
	var insertT, readT time.Duration
	for i, vi := 0, 0; i < n; i++ {
		o := gen.next()
		var v *item.Version
		if o.kind == opPut {
			v, vi = versions[vi], vi+1
			for dc, t := range v.Deps {
				snapshot[dc] = max(snapshot[dc], t)
			}
			snapshot[v.SrcReplica] = max(snapshot[v.SrcReplica], v.UpdateTime)
		}
		if at := p.due(i).Sub(time.Time{}); at >= nextGC {
			if gcFloor != nil {
				mem.CollectGarbage(gcFloor)
			}
			gcFloor = snapshot.Clone()
			nextGC += deploy.GCInterval
		}
		for _, k := range o.keys {
			if keyspace.PartitionOf(k, r.table.Partitions()) != part {
				continue
			}
			t0 := time.Now()
			switch o.kind {
			case opPut:
				mem.Insert(v)
				insertT += time.Since(t0)
				inserts++
			case opGet:
				if mem.ReadVisible(k, always).V == nil {
					return 0, 0, fmt.Errorf("storage leg: %s missing", k)
				}
				readT += time.Since(t0)
				reads++
			default:
				if mem.ReadWithin(k, snapshot).V == nil {
					return 0, 0, fmt.Errorf("storage leg: %s missing", k)
				}
				readT += time.Since(t0)
				reads++
			}
		}
		if (i+1)%chunk == 0 {
			now := time.Now()
			tr.add(tr.span(tr.newID(), leg, i+1-chunk, "storage.replay", chunkStart, now))
			chunkStart = now
		}
	}
	tr.add(tr.span(leg, 0, -1, "leg.storage", legStart, time.Now()))
	if inserts == 0 || reads == 0 {
		return 0, 0, fmt.Errorf("storage leg: %d inserts, %d reads", inserts, reads)
	}
	return float64(insertT.Nanoseconds()) / float64(inserts), float64(readT.Nanoseconds()) / float64(reads), nil
}

// p50 is the median of a copy of s.
func p50(s samples) time.Duration { return slices.Clone(s).quantile(0.5) }

package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/perfbench/internal/deploy"
)

const (
	// sweepBatch is how many keys one sweep RO-TX reads.
	sweepBatch = 64
	// sweepReaders is how many sessions read each DC in parallel.
	sweepReaders = 8
	// convergeTimeout bounds how long keys may still differ across DCs
	// after the load stopped.
	convergeTimeout = 10 * time.Second
)

// sweep reads every key at every data center once the load has stopped.
// Each key must hold a well-formed value of its own, the same one at every
// DC (keys still in flight get re-read until convergeTimeout), and a key
// some session wrote with an acknowledgement must no longer hold its seed.
func (r *runner) sweep(pools []*client.Pool) error {
	var pending []string
	for part := 0; part < r.table.Partitions(); part++ {
		for rank := 0; rank < r.table.KeysPerPartition(); rank++ {
			pending = append(pending, r.table.Key(part, rank))
		}
	}
	deadline := time.Now().Add(convergeTimeout)
	for {
		vals := make([][][]byte, len(pools))
		for dc, p := range pools {
			var err error
			if vals[dc], err = readKeys(p, pending); err != nil {
				return fmt.Errorf("sweep dc%d: %w", dc, err)
			}
		}
		var diverged []string
		for i, k := range pending {
			same := true
			for dc := range pools {
				if _, err := deploy.Parse(vals[dc][i], k); err != nil {
					r.viol.add(fmt.Errorf("sweep dc%d: %w", dc, err))
				}
				same = same && bytes.Equal(vals[dc][i], vals[0][i])
			}
			if !same {
				diverged = append(diverged, k)
				continue
			}
			if _, wrote := r.written[k]; wrote {
				if tag, err := deploy.Parse(vals[0][i], k); err == nil && tag.Kind == deploy.KindSeed {
					r.viol.add(fmt.Errorf("sweep: acknowledged write to %s lost (reads its seed)", k))
				}
			}
		}
		if len(diverged) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			for _, k := range diverged {
				r.viol.add(fmt.Errorf("sweep: %s did not converge across DCs within %v", k, convergeTimeout))
			}
			return nil
		}
		pending = diverged
		time.Sleep(50 * time.Millisecond)
	}
}

// readKeys reads keys through one pool in RO-TX batches, several sessions in
// parallel, and returns the values in key order.
func readKeys(p *client.Pool, keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	errs := make([]error, sweepReaders)
	var wg sync.WaitGroup
	for w := 0; w < sweepReaders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.Session()
			for lo := w * sweepBatch; lo < len(keys); lo += sweepReaders * sweepBatch {
				hi := min(lo+sweepBatch, len(keys))
				vals, err := s.ROTx(keys[lo:hi])
				if err != nil {
					errs[w] = err
					return
				}
				for i := lo; i < hi; i++ {
					out[i] = vals[keys[i]]
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

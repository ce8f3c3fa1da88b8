package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/perfbench/internal/deploy"
)

// kv is the session surface every leg drives: client.RemoteSession through
// the front door, occ.Session in process.
type kv interface {
	Get(key string) ([]byte, error)
	Put(key string, value []byte) error
	ROTx(keys []string) (map[string][]byte, error)
}

// violations collects correctness violations from every goroutine. Any one
// fails the run.
type violations struct {
	n     atomic.Int64
	mu    sync.Mutex
	first []string
}

const keptViolations = 10

func (v *violations) add(err error) {
	if v.n.Add(1) > keptViolations {
		return
	}
	v.mu.Lock()
	v.first = append(v.first, err.Error())
	v.mu.Unlock()
}

func (v *violations) count() int64 { return v.n.Load() }

// session is one client session of the load generator: it tags every PUT
// with its id and sequence number and checks every value it reads.
type session struct {
	kv  kv
	id  uint32
	seq uint64
	// written maps each key this session wrote (and saw acknowledged) to the
	// sequence number of its latest such write.
	written map[string]uint64
	viol    *violations
}

func newSession(s kv, id uint32, viol *violations) *session {
	return &session{kv: s, id: id, written: make(map[string]uint64), viol: viol}
}

// errViolation marks an op whose output failed a check, as opposed to an op
// the store failed or refused.
var errViolation = errors.New("check failed")

// exec runs one op and checks its output. The returned error is non-nil when
// the op failed or its output violated a check (wrapping errViolation).
func (s *session) exec(o op) error {
	switch o.kind {
	case opGet:
		v, err := s.kv.Get(o.keys[0])
		if err != nil {
			return err
		}
		return s.check(o.keys[0], v)
	case opPut:
		s.seq++
		if err := s.kv.Put(o.keys[0], deploy.WriteValue(o.keys[0], s.id, s.seq)); err != nil {
			return err
		}
		s.written[o.keys[0]] = s.seq
		return nil
	default:
		vals, err := s.kv.ROTx(o.keys)
		if err != nil {
			return err
		}
		for _, k := range o.keys {
			if err := s.check(k, vals[k]); err != nil {
				return err
			}
		}
		return nil
	}
}

// check validates a value read from key: it must be a well-formed seeded or
// written value of that key (every key is seeded, so never missing), and a
// key this session wrote must read back its own latest write or a newer one
// (read-your-writes). Another session's write is accepted as newer: without
// the versions' timestamps the client cannot order it against its own.
func (s *session) check(key string, v []byte) error {
	err := s.checkValue(key, v)
	if err != nil {
		err = fmt.Errorf("%w: session %d: %w", errViolation, s.id, err)
		s.viol.add(err)
	}
	return err
}

func (s *session) checkValue(key string, v []byte) error {
	if v == nil {
		return fmt.Errorf("seeded key %s read as missing", key)
	}
	tag, err := deploy.Parse(v, key)
	if err != nil {
		return err
	}
	if tag.Kind == deploy.KindProbe {
		return fmt.Errorf("probe value read from workload key %s", key)
	}
	last, wrote := s.written[key]
	if !wrote {
		return nil
	}
	switch {
	case tag.Kind == deploy.KindSeed:
		return fmt.Errorf("read-your-writes: %s read its seed after write %d", key, last)
	case tag.Session == s.id && tag.Seq < last:
		return fmt.Errorf("read-your-writes: %s read write %d after write %d", key, tag.Seq, last)
	}
	return nil
}

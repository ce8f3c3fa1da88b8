package main

import (
	"errors"
	"testing"

	"repro/perfbench/internal/deploy"
)

// stubKV is a store whose reads the test controls.
type stubKV struct{ vals map[string][]byte }

func (s *stubKV) Get(key string) ([]byte, error) { return s.vals[key], nil }

func (s *stubKV) Put(key string, value []byte) error {
	s.vals[key] = value
	return nil
}

func (s *stubKV) ROTx(keys []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		out[k] = s.vals[k]
	}
	return out, nil
}

func newStub(keys ...string) *stubKV {
	s := &stubKV{vals: map[string][]byte{}}
	for _, k := range keys {
		s.vals[k] = deploy.SeedValue(k)
	}
	return s
}

func TestReadYourWritesFlagsInjectedStaleRead(t *testing.T) {
	get := op{kind: opGet, keys: []string{"k1"}}
	put := op{kind: opPut, keys: []string{"k1"}}
	tx := op{kind: opROTx, keys: []string{"k2", "k1"}}
	cases := []struct {
		name   string
		inject func(*stubKV, *session) // after the session's two writes to k1
		stale  bool
	}{
		{"own latest write", func(*stubKV, *session) {}, false},
		{"newer write of another session", func(kv *stubKV, s *session) {
			kv.vals["k1"] = deploy.WriteValue("k1", s.id+1, 1)
		}, false},
		{"seed after own write", func(kv *stubKV, _ *session) {
			kv.vals["k1"] = deploy.SeedValue("k1")
		}, true},
		{"own earlier write", func(kv *stubKV, s *session) {
			kv.vals["k1"] = deploy.WriteValue("k1", s.id, 1)
		}, true},
		{"value of another key", func(kv *stubKV, _ *session) {
			kv.vals["k1"] = deploy.SeedValue("k2")
		}, true},
		{"missing key", func(kv *stubKV, _ *session) { delete(kv.vals, "k1") }, true},
		{"probe value", func(kv *stubKV, _ *session) {
			kv.vals["k1"] = deploy.ProbeValue("k1", 1)
		}, true},
	}
	for _, c := range cases {
		for _, read := range []op{get, tx} {
			kv := newStub("k1", "k2")
			var viol violations
			s := newSession(kv, 7, &viol)
			for i := 0; i < 2; i++ {
				if err := s.exec(put); err != nil {
					t.Fatal(err)
				}
			}
			c.inject(kv, s)
			err := s.exec(read)
			if got := errors.Is(err, errViolation); got != c.stale {
				t.Errorf("%s via %s: violation=%v (err %v), want %v", c.name, read.kind, got, err, c.stale)
			}
			want := int64(0)
			if c.stale {
				want = 1
			}
			if viol.count() != want {
				t.Errorf("%s via %s: %d violations recorded, want %d", c.name, read.kind, viol.count(), want)
			}
		}
	}
}

func TestUnwrittenKeyAcceptsSeedAndOtherWrites(t *testing.T) {
	kv := newStub("k1")
	var viol violations
	s := newSession(kv, 3, &viol)
	get := op{kind: opGet, keys: []string{"k1"}}
	if err := s.exec(get); err != nil {
		t.Fatalf("seed read: %v", err)
	}
	kv.vals["k1"] = deploy.WriteValue("k1", 9, 4)
	if err := s.exec(get); err != nil {
		t.Fatalf("another session's write: %v", err)
	}
}

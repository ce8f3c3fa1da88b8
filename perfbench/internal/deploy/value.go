package deploy

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// Every value the benchmark stores is exactly ValueSize bytes: a
// '|'-separated tag naming its key and origin, padded with '.'.
//
//	s|<key>|                  seeded by the deployment
//	w|<key>|<session>|<seq>|  written by a load-generator session
//	p|<key>|<n>|              written by the visibility probe
//
// A read can therefore be checked without remembering every write: the tag
// says which key the value belongs to and which write produced it.
const (
	KindSeed  = 's'
	KindWrite = 'w'
	KindProbe = 'p'
)

// Tag is a parsed value tag. Session and Seq are zero for seed values; a
// probe value carries its probe number in Seq.
type Tag struct {
	Kind    byte
	Session uint32
	Seq     uint64
}

// SeedValue is the value the deployment seeds key with.
func SeedValue(key string) []byte {
	return pad(fmt.Appendf(make([]byte, 0, ValueSize), "s|%s|", key))
}

// WriteValue is the value session writes to key as its seq-th write.
func WriteValue(key string, session uint32, seq uint64) []byte {
	return pad(fmt.Appendf(make([]byte, 0, ValueSize), "w|%s|%d|%d|", key, session, seq))
}

// ProbeValue is the visibility probe's n-th value for key.
func ProbeValue(key string, n uint64) []byte {
	return pad(fmt.Appendf(make([]byte, 0, ValueSize), "p|%s|%d|", key, n))
}

func pad(b []byte) []byte {
	for len(b) < ValueSize {
		b = append(b, '.')
	}
	return b
}

// ErrMalformed reports a value that no benchmark writer could have produced
// for the key it was read from.
var ErrMalformed = errors.New("malformed value")

// Parse checks that v is a well-formed tagged value belonging to key, and
// returns its tag.
func Parse(v []byte, key string) (Tag, error) {
	bad := func(why string) (Tag, error) {
		return Tag{}, fmt.Errorf("%w for %s (%s): %q", ErrMalformed, key, why, v)
	}
	if len(v) != ValueSize {
		return bad("size")
	}
	fields := bytes.Split(bytes.TrimRight(v, "."), []byte{'|'})
	// A trailing '|' leaves one empty last field.
	if len(fields) < 3 || len(fields[0]) != 1 || len(fields[len(fields)-1]) != 0 {
		return bad("shape")
	}
	if string(fields[1]) != key {
		return bad("key")
	}
	tag := Tag{Kind: fields[0][0]}
	nums := fields[2 : len(fields)-1]
	var want int
	switch tag.Kind {
	case KindSeed:
		want = 0
	case KindWrite:
		want = 2
	case KindProbe:
		want = 1
	default:
		return bad("kind")
	}
	if len(nums) != want {
		return bad("fields")
	}
	for i, f := range nums {
		n, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return bad("number")
		}
		if tag.Kind == KindWrite && i == 0 {
			if n > 1<<32-1 {
				return bad("session")
			}
			tag.Session = uint32(n)
		} else {
			tag.Seq = n
		}
	}
	return tag, nil
}

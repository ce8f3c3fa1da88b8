package deploy

import (
	"errors"
	"math"
	"testing"
)

func TestValuesRoundTrip(t *testing.T) {
	cases := []struct {
		key  string
		v    []byte
		want Tag
	}{
		{"k12", SeedValue("k12"), Tag{Kind: KindSeed}},
		{"k12", WriteValue("k12", 4000000000, 123456789), Tag{Kind: KindWrite, Session: 4000000000, Seq: 123456789}},
		{"k12", ProbeValue("k12", 77), Tag{Kind: KindProbe, Seq: 77}},
		// The widest tag: a key longer than any of the table's, the largest
		// session id and sequence number.
		{"k9999999", WriteValue("k9999999", math.MaxUint32, math.MaxUint64), Tag{Kind: KindWrite, Session: math.MaxUint32, Seq: math.MaxUint64}},
	}
	for _, c := range cases {
		if len(c.v) != ValueSize {
			t.Fatalf("%q: %d bytes, want %d", c.v, len(c.v), ValueSize)
		}
		got, err := Parse(c.v, c.key)
		if err != nil || got != c.want {
			t.Fatalf("Parse(%q) = %+v, %v; want %+v", c.v, got, err, c.want)
		}
	}
}

func TestParseRejectsForeignValues(t *testing.T) {
	bad := [][]byte{
		nil,
		SeedValue("k1")[:ValueSize-1],
		SeedValue("k2"),
		[]byte("x|k1|" + string(make([]byte, ValueSize-5))),
		pad([]byte("w|k1|5|")),
		pad([]byte("w|k1|a|1|")),
		pad([]byte("s|k1|9|")),
		pad([]byte("p|k1|")),
	}
	for _, v := range bad {
		if _, err := Parse(v, "k1"); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) = %v, want ErrMalformed", v, err)
		}
	}
}

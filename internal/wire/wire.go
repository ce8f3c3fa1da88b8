// Package wire serializes protocol messages for transports that cross a
// real network (internal/tcpnet). Messages are framed as envelopes carrying
// the source node and one protocol message.
//
// Two codecs are provided:
//
//   - Binary (the default): a hand-rolled, length-prefixed binary format
//     with varint-encoded timestamps and reusable scratch buffers — the
//     zero-allocation encode path of the replication hot loop (see
//     binary.go).
//   - Gob: the original reflection-based encoding/gob stream, kept as the
//     reference the binary codec is cross-checked and benchmarked against.
//
// Both codecs carry the same envelope and message set; a stream uses one
// codec end to end.
package wire

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/item"
	"repro/internal/msg"
	"repro/internal/netemu"
)

// Envelope frames one protocol message on the wire.
type Envelope struct {
	Src netemu.NodeID
	Msg any
}

// Encoder writes envelopes to a stream.
type Encoder interface {
	Encode(Envelope) error
}

// Decoder reads envelopes from a stream. Decode returns io.EOF unwrapped at
// a clean end of stream so callers can end their read loops.
type Decoder interface {
	Decode() (Envelope, error)
}

// Codec selects a wire format.
type Codec int

// Codecs.
const (
	// Binary is the hand-rolled length-prefixed binary codec (default).
	Binary Codec = iota
	// Gob is the reflection-based encoding/gob codec (compatibility
	// fallback).
	Gob
)

func (c Codec) String() string {
	switch c {
	case Binary:
		return "binary"
	case Gob:
		return "gob"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// NewEncoder returns an encoder for the codec writing to w.
func (c Codec) NewEncoder(w io.Writer) Encoder {
	if c == Gob {
		return NewGobEncoder(w)
	}
	return NewBinaryEncoder(w)
}

// NewDecoder returns a decoder for the codec reading from r.
func (c Codec) NewDecoder(r io.Reader) Decoder {
	if c == Gob {
		return NewGobDecoder(r)
	}
	return NewBinaryDecoder(r)
}

// NewEncoder returns the default (binary) encoder.
func NewEncoder(w io.Writer) Encoder { return Binary.NewEncoder(w) }

// NewDecoder returns the default (binary) decoder.
func NewDecoder(r io.Reader) Decoder { return Binary.NewDecoder(r) }

// registerTypes teaches gob every concrete message type carried in the Msg
// interface field. Called by the Encoder/Decoder constructors; gob.Register
// is idempotent for identical type/name pairs.
func registerTypes() {
	gob.Register(msg.ReplicateBatch{})
	gob.Register(msg.Heartbeat{})
	gob.Register(msg.SliceReq{})
	gob.Register(msg.SliceResp{})
	gob.Register(msg.VVExchange{})
	gob.Register(msg.GCExchange{})
	gob.Register(msg.CatchUpRequest{})
	gob.Register(msg.CatchUpReply{})
	gob.Register(msg.CatchUpAck{})
	gob.Register(msg.JoinRequest{})
	gob.Register(msg.JoinAccept{})
	gob.Register(msg.MembershipUpdate{})
	gob.Register(msg.LeaveNotice{})
	gob.Register(msg.EvictProposal{})
	gob.Register(msg.EvictAck{})
	gob.Register(msg.EvictNotice{})
	gob.Register(msg.SlotMapUpdate{})
	gob.Register(msg.SlotHandoff{})
	gob.Register(&item.Version{})
}

// GobEncoder writes gob-encoded envelopes to a stream.
type GobEncoder struct {
	enc *gob.Encoder
}

// NewGobEncoder wraps w.
func NewGobEncoder(w io.Writer) *GobEncoder {
	registerTypes()
	return &GobEncoder{enc: gob.NewEncoder(w)}
}

// Encode writes one envelope.
func (e *GobEncoder) Encode(env Envelope) error {
	if err := e.enc.Encode(env); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return nil
}

// GobDecoder reads gob-encoded envelopes from a stream.
type GobDecoder struct {
	dec *gob.Decoder
}

// NewGobDecoder wraps r.
func NewGobDecoder(r io.Reader) *GobDecoder {
	registerTypes()
	return &GobDecoder{dec: gob.NewDecoder(r)}
}

// Decode reads one envelope. It returns io.EOF unwrapped so callers can end
// their read loops cleanly.
func (d *GobDecoder) Decode() (Envelope, error) {
	var env Envelope
	if err := d.dec.Decode(&env); err != nil {
		if err == io.EOF {
			return env, io.EOF
		}
		return env, fmt.Errorf("wire: decode: %w", err)
	}
	return env, nil
}

package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"xar/internal/geo"
)

// OpKind names what an Op does.
type OpKind uint8

const (
	OpCreate   OpKind = iota // offer a ride: Source → Dest at T, N seats, detour Limit
	OpSearch                 // search Source → Dest, departing in [T, T+Span], walk Limit, k = N
	OpBook                   // book match N of the last search, for that search's request
	OpCancel                 // cancel booking N of the history
	OpTrack                  // track ride N of the history to time T
	OpComplete               // complete ride N of the history
	numOpKinds
)

// Op is one engine operation as data, so a history of them can be
// replayed, decoded from a fuzzer's bytes or compared. Rides, matches and
// bookings are named by their place in the history — the i-th ride
// created, match of the last search, booking made — not by ID, so the
// same ops mean the same thing on any fresh engine. The tests apply them
// (op_test.go: Apply, Run); no program does yet.
type Op struct {
	Kind           OpKind
	N              uint8
	Source, Dest   geo.Point
	T, Span, Limit float64
}

// floats lists the float fields op's kind uses, in encoding order.
func (op *Op) floats() []*float64 {
	switch op.Kind {
	case OpCreate:
		return []*float64{&op.Source.Lat, &op.Source.Lng, &op.Dest.Lat, &op.Dest.Lng, &op.T, &op.Limit}
	case OpSearch:
		return []*float64{&op.Source.Lat, &op.Source.Lng, &op.Dest.Lat, &op.Dest.Lng, &op.T, &op.Span, &op.Limit}
	case OpTrack:
		return []*float64{&op.T}
	}
	return nil
}

// AppendOp appends op's encoding to dst: its kind and N, one byte each,
// then the float fields its kind uses, eight little-endian bytes each.
// Fields the kind does not use are not encoded.
func AppendOp(dst []byte, op Op) []byte {
	dst = append(dst, byte(op.Kind), op.N)
	for _, f := range op.floats() {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(*f))
	}
	return dst
}

// DecodeOps decodes at most limit ops from data. It stops at the first op
// that is cut short or of an unknown kind, and returns the ops before it
// with the error.
func DecodeOps(data []byte, limit int) ([]Op, error) {
	var ops []Op
	for len(data) > 0 && len(ops) < limit {
		op := Op{Kind: OpKind(data[0])}
		fields := op.floats()
		if op.Kind >= numOpKinds || len(data) < 2+8*len(fields) {
			return ops, fmt.Errorf("xar: op %d is of unknown kind %d or cut short", len(ops), data[0])
		}
		op.N, data = data[1], data[2:]
		for _, f := range fields {
			*f, data = math.Float64frombits(binary.LittleEndian.Uint64(data)), data[8:]
		}
		ops = append(ops, op)
	}
	return ops, nil
}

package bitvec

// Binary serialization through internal/codec. HDC models are deployed to
// embedded targets where a trained basis set or classifier is burned into
// flash; the formats here are the minimal framings those loaders want:
//
//	vector:      magic "HVEC" | u32 version | u64 dimension | words
//	accumulator: magic "HACC" | u32 version | u64 dimension | i64 n
//	             | dimension × i32 counts

import (
	"errors"
	"fmt"
	"io"

	"hdcirc/internal/codec"
)

const (
	vectorMagic   = "HVEC"
	accMagic      = "HACC"
	formatVersion = 1

	// maxDim bounds a decoded dimension: it sizes allocations from
	// untrusted input and must stay clear of 32-bit int wraparound.
	maxDim = 1 << 27

	// MinVectorBytes is the length of the shortest HVEC encoding: header,
	// dimension and one word. A format holding vectors bounds a vector
	// count by the input with it.
	MinVectorBytes = 24
)

// Encode appends v in the HVEC framing.
func (v *Vector) Encode(w *codec.Writer) {
	w.Header(vectorMagic, formatVersion)
	w.U64(uint64(v.d))
	w.Words(v.words)
}

// DecodeVector reads one HVEC-framed vector; on failure it returns nil and
// the error is in r.Err.
func DecodeVector(r *codec.Reader) *Vector {
	r.Header(vectorMagic, formatVersion)
	d := r.Count(r.U64(), maxDim, 0)
	if r.Err() == nil && d == 0 {
		r.Fail(errors.New("bitvec: zero dimension"))
	}
	words := r.Words(wordsFor(d))
	if r.Err() != nil {
		return nil
	}
	v, err := NewFromWords(d, words)
	r.Fail(err)
	return v
}

// WriteTo serializes the vector to w in the HVEC framing. It implements
// io.WriterTo.
func (v *Vector) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(make([]byte, 0, 16+8*len(v.words)))
	v.Encode(cw)
	return cw.WriteTo(w)
}

// ReadVector deserializes a vector written by WriteTo.
func ReadVector(src io.Reader) (*Vector, error) {
	r := codec.NewReader(src)
	if v := DecodeVector(r); v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("bitvec: reading vector: %w", r.Err())
}

// Encode appends the accumulator — the EXACT training state, counters and
// addition count, not the thresholded prototype — in the HACC framing.
// This is what durable checkpoints (internal/serve) persist so that
// replaying a write-ahead-log suffix on the restored state stays
// bit-identical to a full sequential replay; the finalized-prototype
// formats (HVEC/HCLS/HREG) cannot promise that because they re-seed at
// unit weight.
func (a *Accumulator) Encode(w *codec.Writer) {
	w.Header(accMagic, formatVersion)
	w.U64(uint64(a.d))
	w.U64(uint64(a.n))
	w.Int32s(a.counts)
}

// DecodeAccumulator reads one HACC-framed accumulator; on failure it
// returns nil and the error is in r.Err. The result is state-identical to
// the saved one: it thresholds to the same prototype and continues
// training exactly where the original would have.
func DecodeAccumulator(r *codec.Reader) *Accumulator {
	r.Header(accMagic, formatVersion)
	d := r.Count(r.U64(), maxDim, 0)
	if r.Err() == nil && d == 0 {
		r.Fail(errors.New("bitvec: zero accumulator dimension"))
	}
	n := int(int64(r.U64()))
	counts := r.Int32s(d)
	if r.Err() != nil {
		return nil
	}
	return &Accumulator{d: d, counts: counts, n: n}
}

// WriteTo serializes the accumulator in the HACC framing.
func (a *Accumulator) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(make([]byte, 0, 24+4*len(a.counts)))
	a.Encode(cw)
	return cw.WriteTo(w)
}

// ReadAccumulator deserializes an accumulator written by WriteTo.
func ReadAccumulator(src io.Reader) (*Accumulator, error) {
	r := codec.NewReader(src)
	if a := DecodeAccumulator(r); a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("bitvec: reading accumulator: %w", r.Err())
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (v *Vector) MarshalBinary() ([]byte, error) {
	w := codec.NewWriter(make([]byte, 0, 16+8*len(v.words)))
	v.Encode(w)
	return w.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *Vector) UnmarshalBinary(data []byte) error {
	r := codec.NewBytesReader(data)
	got := DecodeVector(r)
	if got == nil {
		return fmt.Errorf("bitvec: reading vector: %w", r.Err())
	}
	*v = *got
	return nil
}

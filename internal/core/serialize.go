package core

// Basis-set serialization through internal/codec. A trained HDC deployment
// ships its basis sets to the target device:
//
//	magic "HSET" | u32 version | u32 kind | f64 r | u64 m | u64 d
//	| m HVEC vectors

import (
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec"
)

const (
	setMagic   = "HSET"
	setVersion = 1

	maxSetSize = 1 << 24
)

// WriteTo serializes the set to w. It implements io.WriterTo.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(nil)
	cw.Header(setMagic, setVersion)
	cw.U32(uint32(s.kind))
	cw.F64(s.r)
	cw.U64(uint64(s.Len()))
	cw.U64(uint64(s.d))
	for _, v := range s.vecs {
		v.Encode(cw)
	}
	return cw.WriteTo(w)
}

// ReadSet deserializes a basis set written by Set.WriteTo.
func ReadSet(src io.Reader) (*Set, error) {
	r := codec.NewReader(src)
	r.Header(setMagic, setVersion)
	kind := Kind(r.U32())
	rparam := r.F64()
	m := r.Count(r.U64(), maxSetSize, bitvec.MinVectorBytes)
	d := r.U64()
	if r.Err() == nil && (m == 0 || d == 0 || d > 1<<32) {
		r.Fail(fmt.Errorf("core: implausible set shape m=%d d=%d", m, d))
	}
	var vecs []*bitvec.Vector
	for i := 0; i < m && r.Err() == nil; i++ {
		v := bitvec.DecodeVector(r)
		if v != nil && v.Dim() != int(d) {
			r.Fail(fmt.Errorf("core: vector %d has dimension %d, header says %d", i, v.Dim(), d))
		}
		vecs = append(vecs, v)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: reading basis set: %w", err)
	}
	return &Set{kind: kind, d: int(d), r: rparam, vecs: vecs}, nil
}

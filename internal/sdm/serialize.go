package sdm

// Exact-state serialization for durable checkpoints (internal/serve),
// through internal/codec. The hard-location addresses are a pure function
// of the Config seed and are not persisted; only the written counters are,
// sparsely — in the sparse operating regime a write touches ~1% of
// locations, so a checkpoint of a lightly written memory is far smaller
// than locations × dimension.
//
//	stream: magic "HSDM" | u32 version | u64 dim | u64 locations
//	        | u64 radius | u64 writes | u64 touched
//	        | touched × (u32 location | HACC accumulator), ascending

import (
	"errors"
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec"
)

const (
	sdmMagic   = "HSDM"
	sdmVersion = 1

	// minTouchedBytes is the smallest touched-location entry: its index
	// and an HACC header for one dimension.
	minTouchedBytes = 4 + 28
)

// EncodeState appends the memory's exact counter state as an HSDM
// section. A memory restored from it reads, writes and forks
// bit-identically to the original. Safe to call on a published
// (never-again-written) generation while newer forks keep taking writes.
func (m *Memory) EncodeState(w *codec.Writer) {
	touched := make([]int, 0, 64)
	for i, acc := range m.counters {
		if acc.N() != 0 {
			touched = append(touched, i)
		}
	}
	w.Header(sdmMagic, sdmVersion)
	w.U64(uint64(m.d))
	w.U64(uint64(len(m.addresses)))
	w.U64(uint64(m.radius))
	w.U64(uint64(m.writes))
	w.U64(uint64(len(touched)))
	for _, i := range touched {
		w.U32(uint32(i))
		m.counters[i].Encode(w)
	}
}

// DecodeState loads the exact counter state of an HSDM section into a
// FRESH memory (no writes yet) built from the same Config — the addresses
// must match, which the section cannot verify beyond shape, so the caller
// owns seed equality just as with serve.Server.Restore. On failure the
// error is in r.Err and the memory is unchanged.
func (m *Memory) DecodeState(r *codec.Reader) {
	if m.writes != 0 {
		r.Fail(errors.New("sdm: restoring state needs a fresh memory (writes already applied)"))
		return
	}
	r.Header(sdmMagic, sdmVersion)
	d, locs, radius := r.U64(), r.U64(), r.U64()
	writes := r.U64()
	touched := r.Count(r.U64(), uint64(len(m.addresses)), minTouchedBytes)
	if r.Err() == nil && (d != uint64(m.d) || locs != uint64(len(m.addresses)) || radius != uint64(m.radius)) {
		r.Fail(fmt.Errorf("sdm: state is d=%d locations=%d radius=%d, memory d=%d locations=%d radius=%d",
			d, locs, radius, m.d, len(m.addresses), m.radius))
	}
	counters := append([]*bitvec.Accumulator(nil), m.counters...)
	next := 0 // locations are written ascending, each at most once
	for j := 0; j < touched && r.Err() == nil; j++ {
		i := int(r.U32())
		acc := bitvec.DecodeAccumulator(r)
		switch {
		case acc == nil:
		case i < next || i >= len(counters):
			r.Fail(fmt.Errorf("sdm: touched location %d out of order or outside [0,%d)", i, len(counters)))
		case acc.Dim() != m.d || acc.N() == 0:
			r.Fail(fmt.Errorf("sdm: location %d counters have dimension %d and %d writes", i, acc.Dim(), acc.N()))
		default:
			counters[i] = acc
			next = i + 1
		}
	}
	if r.Err() != nil {
		return
	}
	m.counters = counters
	m.writes = int(writes)
}

// WriteStateTo serializes EncodeState's HSDM section to w.
func (m *Memory) WriteStateTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(nil)
	m.EncodeState(cw)
	return cw.WriteTo(w)
}

// RestoreStateFrom reads an HSDM section written by WriteStateTo through
// DecodeState. On error the memory is unchanged.
func (m *Memory) RestoreStateFrom(src io.Reader) error {
	r := codec.NewReader(src)
	if m.DecodeState(r); r.Err() != nil {
		return fmt.Errorf("sdm: reading state: %w", r.Err())
	}
	return nil
}

package bitvec

// Fuzz targets for the HVEC and HACC decoders, seeded from the format
// goldens: no panic, allocation in proportion to the input, and every
// accepted input re-encodes to the bytes it was read from.

import (
	"bytes"
	"testing"

	"hdcirc/internal/codec/codectest"
)

func FuzzReadVector(f *testing.F) {
	for _, c := range formatCases(f) {
		f.Add(c.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v *Vector
		codectest.Check(t, data, 4, func() (int, error) {
			r := bytes.NewReader(data)
			var err error
			v, err = ReadVector(r)
			return len(data) - r.Len(), err
		}, func() []byte { return writeToBytes(t, v) })
	})
}

func FuzzReadAccumulator(f *testing.F) {
	for _, c := range formatCases(f) {
		f.Add(c.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var a *Accumulator
		codectest.Check(t, data, 4, func() (int, error) {
			r := bytes.NewReader(data)
			var err error
			a, err = ReadAccumulator(r)
			return len(data) - r.Len(), err
		}, func() []byte { return writeToBytes(t, a) })
	})
}

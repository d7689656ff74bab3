package cluster

// Fuzz target for the HCLU decoder, seeded from the format goldens: no
// panic, allocation in proportion to the input, and every accepted input
// re-encodes to the same bytes. With fixCRC the target re-seals the
// mutated body, so mutations reach the fields behind the CRC.

import (
	"testing"

	"hdcirc/internal/codec"
	"hdcirc/internal/codec/codectest"
)

func FuzzDecodeBinary(f *testing.F) {
	for _, c := range formatCases(f) {
		f.Add(c.Data, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= 4 {
			w := codec.NewWriter(append([]byte(nil), data[:len(data)-4]...))
			w.CRC()
			data = w.Bytes()
		}
		var m *Manifest
		codectest.Check(t, data, 8, func() (int, error) {
			var err error
			m, err = DecodeBinary(data)
			return len(data), err
		}, func() []byte { return m.EncodeBinary() })
	})
}

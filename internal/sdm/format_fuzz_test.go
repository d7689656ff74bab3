package sdm

// Fuzz target for the HSDM state reader, seeded from the format goldens:
// no panic, allocation in proportion to the input, and every accepted
// input re-encodes to the bytes it was read from.

import (
	"bytes"
	"testing"

	"hdcirc/internal/codec/codectest"
)

func FuzzRestoreState(f *testing.F) {
	for _, c := range formatCases(f) {
		f.Add(c.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New(goldenConfig(65))
		codectest.Check(t, data, 4, func() (int, error) {
			r := bytes.NewReader(data)
			err := m.RestoreStateFrom(r)
			return len(data) - r.Len(), err
		}, func() []byte {
			var buf bytes.Buffer
			if _, err := m.WriteStateTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		})
	})
}

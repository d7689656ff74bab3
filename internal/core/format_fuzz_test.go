package core

// Fuzz target for the HSET decoder, seeded from the format goldens: no
// panic, allocation in proportion to the input, and every accepted input
// re-encodes to the bytes it was read from.

import (
	"bytes"
	"testing"

	"hdcirc/internal/codec/codectest"
)

func FuzzReadSet(f *testing.F) {
	for _, c := range formatCases(f) {
		f.Add(c.Data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Set
		codectest.Check(t, data, 8, func() (int, error) {
			r := bytes.NewReader(data)
			var err error
			s, err = ReadSet(r)
			return len(data) - r.Len(), err
		}, func() []byte {
			var buf bytes.Buffer
			if _, err := s.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		})
	})
}

package bitvec

// Golden bytes for the HVEC and HACC wire formats. Each case is built
// from fixed seeds at word-boundary dimensions and pinned by length plus
// SHA-256, so any change to the bytes a format writes fails here. The same
// cases seed the decoder fuzzers.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"hdcirc/internal/codec/codectest"
)

func writeToBytes(t testing.TB, w io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// formatCases builds one vector and one accumulator per dimension. The
// accumulator mixes unit adds, a subtraction and a weighted add so its
// counters take negative and multi-bit values.
func formatCases(t testing.TB) []codectest.Case {
	var out []codectest.Case
	for _, d := range []int{1, 64, 65, 1000} {
		src := newTestSource(int64(900 + d))
		out = append(out, codectest.Case{Name: fmt.Sprintf("HVEC d=%d", d), Data: writeToBytes(t, Random(d, src))})
		a := NewAccumulator(d)
		for i := 0; i < 5; i++ {
			a.Add(Random(d, src))
		}
		a.Sub(Random(d, src))
		a.AddWeighted(Random(d, src), 3)
		out = append(out, codectest.Case{Name: fmt.Sprintf("HACC d=%d", d), Data: writeToBytes(t, a)})
	}
	return out
}

var formatGoldens = map[string]string{
	"HVEC d=1":    "24:917aa95dd274fa4d396ab4826535293896e6ae64ba5b897d906f36c210f3c4e5",
	"HACC d=1":    "28:2300b83572b36e9336f90fb02bc85b8abe5905d355c3edb23e431e67b46a0eaf",
	"HVEC d=64":   "24:9b3cf4127ba86dbaf309a5ca3dbd4bf4b94115e05ff82ea619a3e46481dbdd46",
	"HACC d=64":   "280:34f3bb2f4c29cb349ed9c8767e9e1528c0282ae2612d9472c68d66a34ba25db1",
	"HVEC d=65":   "32:eaed483115d5762a83b8c6becc333a88ae007874bd81cfc2962139850a8f27f1",
	"HACC d=65":   "284:87cbf1fc4daa34fd4d8270eed16a24e6cde64f0eefb2516c5eab4c6fdc5bc36c",
	"HVEC d=1000": "144:8675c62d7e2e4dde12958f9e87e7b62d4f6775e2c4665226dfd6018d622a3571",
	"HACC d=1000": "4024:4a3126729f408609a140a168bcdefe925ce74f10d26ff664ca1ac85558ce567a",
}

func TestFormatGoldens(t *testing.T) {
	codectest.Goldens(t, formatCases(t), formatGoldens)
}

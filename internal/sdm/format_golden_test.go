package sdm

// Golden bytes for the HSDM wire format: a fixed-seed memory before and
// after sparse writes, pinned by length plus SHA-256. The same cases seed
// the decoder fuzzer.

import (
	"bytes"
	"fmt"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec/codectest"
	"hdcirc/internal/rng"
)

// goldenConfig keeps activations sparse but non-empty at a small dimension.
func goldenConfig(d int) Config {
	return Config{Dim: d, Locations: 60, Radius: d/2 - d/16, Seed: 21}
}

func goldenMemory(d, writes int) *Memory {
	m := New(goldenConfig(d))
	src := rng.Sub(uint64(d), "golden/sdm")
	for i := 0; i < writes; i++ {
		addr := bitvec.Random(d, src)
		m.Write(addr, bitvec.Random(d, src))
	}
	return m
}

func formatCases(t testing.TB) []codectest.Case {
	var out []codectest.Case
	for _, c := range []struct{ d, writes int }{{65, 0}, {65, 3}, {256, 5}} {
		var buf bytes.Buffer
		if _, err := goldenMemory(c.d, c.writes).WriteStateTo(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, codectest.Case{Name: fmt.Sprintf("HSDM d=%d writes=%d", c.d, c.writes), Data: buf.Bytes()})
	}
	return out
}

var formatGoldens = map[string]string{
	"HSDM d=65 writes=0":  "48:fab6e2fcd340c5115e6f238b75a37b7c1550959e0ad0a2b92d07493e725c7092",
	"HSDM d=65 writes=3":  "6384:bb6c283d56f2d8e564fb7c374f513130a22a590e379a77f17e6f1852b01f4e2a",
	"HSDM d=256 writes=5": "9516:52ab15160651fd19a1f64b0b55446fde1368760f4d908c30005fbd9b4b301da3",
}

func TestFormatGoldens(t *testing.T) {
	codectest.Goldens(t, formatCases(t), formatGoldens)
}

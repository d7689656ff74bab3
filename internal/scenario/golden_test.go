package scenario_test

// Golden encode hashes: every train and test record of every scenario is
// encoded and the resulting hypervectors are folded into one FNV-1a hash
// per scenario. The pinned values were recorded from the accumulate-and-
// threshold encoders; any change to the bundling kernels underneath must
// keep every served encoding bit-identical, so these never move unless a
// scenario's data or encoder definition changes on purpose.

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"hdcirc/internal/scenario"
)

// encodeDigest hashes the encodings of every train and test row, in split
// order, word by word.
func encodeDigest(sc *scenario.Scenario) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, split := range [][]scenario.Row{sc.Train, sc.Test} {
		for _, row := range split {
			for _, w := range sc.Encoder.Encode(row.Features).Words() {
				binary.LittleEndian.PutUint64(buf[:], w)
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

func TestScenarioEncodeGoldens(t *testing.T) {
	want := map[string]uint64{
		"graphhd":  0x6d32a7d972831b60,
		"language": 0x6f9add08454c6f74,
		"signals":  0x93d9df252b86cd06,
	}
	for _, name := range scenario.Names() {
		sc, err := scenario.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeDigest(sc); got != want[name] {
			t.Errorf("%s: encode digest %#016x, golden %#016x", name, got, want[name])
		}
	}
}

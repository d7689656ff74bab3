package cluster

// Golden bytes for the HCLU manifest format, CRC trailer included, pinned
// by length plus SHA-256. The cases cover a single shard without replicas
// and several shards with zero, one and two replicas. The same cases seed
// the decoder fuzzer.

import (
	"testing"

	"hdcirc/internal/codec/codectest"
)

func formatCases(t testing.TB) []codectest.Case {
	one := &Manifest{Version: 1, RingSeed: 9, Shards: []ShardEndpoints{{Primary: "http://a:1"}}}
	one.Normalize()
	three := testManifest(3)
	three.Version = 7
	three.Shards[0].Replicas = nil
	three.Shards[2].Replicas = append(three.Shards[2].Replicas, "http://127.0.0.1:9100")
	three.Normalize()
	wide := &Manifest{Version: 1 << 40, RingPositions: 32, RingDim: 2048, RingSeed: 1<<63 + 5,
		Shards: []ShardEndpoints{{Primary: "http://p0"}, {Primary: "http://p1", Replicas: []string{"http://r1"}}}}
	return []codectest.Case{
		{Name: "HCLU one", Data: one.EncodeBinary()},
		{Name: "HCLU three", Data: three.EncodeBinary()},
		{Name: "HCLU wide", Data: wide.EncodeBinary()},
	}
}

var formatGoldens = map[string]string{
	"HCLU one":   "58:a930e8568a18fadb9e77a7a0fe53ad2dae086f1b21aed305fcf4dae3d1e845f9",
	"HCLU three": "202:a4712d703531ddc2fbe88c0af5d6876740917ae7e4b2b7650b6fe923b70d014f",
	"HCLU wide":  "87:07502c863efaaa28178180331202bfd508bad799b4f25b18e606adf6ca561c72",
}

func TestFormatGoldens(t *testing.T) {
	codectest.Goldens(t, formatCases(t), formatGoldens)
}

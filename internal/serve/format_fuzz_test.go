package serve

// Fuzz targets for the serving layer's decoders — Server.Restore (HSRV),
// loadCheckpointBytes (HCKP, the image InstallCheckpoint parses from the
// replication stream) and decodeBatch (WAL and replication payloads) —
// seeded from the format goldens: no panic and allocation in proportion
// to the input. An accepted batch re-encodes to the same bytes. Snapshots
// and checkpoints route items by the decoding server's ring, so they
// accept items in any shard order and need only a stable re-encoding.
// small picks which golden fixture's configuration decodes the input.

import (
	"bytes"
	"strings"
	"testing"

	"hdcirc/internal/codec/codectest"
)

func addServeSeeds(f *testing.F, prefix string) {
	for _, c := range formatCases(f) {
		if strings.HasPrefix(c.Name, prefix) {
			f.Add(c.Data, strings.Contains(c.Name, "small"))
		}
	}
}

func fuzzConfig(small bool) Config {
	if small {
		return goldenConfigs()["small"]
	}
	return goldenConfigs()["full"]
}

func FuzzRestore(f *testing.F) {
	addServeSeeds(f, "HSRV")
	f.Fuzz(func(t *testing.T, data []byte, small bool) {
		// Both fresh servers are built before the allocation is measured.
		fresh := []*Server{mustServer(t, fuzzConfig(small)), mustServer(t, fuzzConfig(small))}
		codectest.CheckStable(t, data, 64, func(data []byte) (func() []byte, error) {
			s := fresh[0]
			fresh = fresh[1:]
			return func() []byte { return goldenSnapshot(t, s) }, s.Restore(bytes.NewReader(data))
		})
	})
}

// With reseal the target re-seals the mutated body, so mutations reach the
// sections behind the CRC.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, c := range formatCases(f) {
		if strings.HasPrefix(c.Name, "HCKP") {
			f.Add(c.Data, strings.Contains(c.Name, "small"), false)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, small, reseal bool) {
		if reseal && len(data) >= 4 {
			data = appendCkptCRC(append([]byte(nil), data[:len(data)-4]...))
		}
		fresh := []*Server{mustServer(t, fuzzConfig(small)), mustServer(t, fuzzConfig(small))}
		codectest.CheckStable(t, data, 64, func(data []byte) (func() []byte, error) {
			s := fresh[0]
			fresh = fresh[1:]
			return func() []byte { return goldenCheckpoint(s) }, loadCheckpointBytes(s, data)
		})
	})
}

func FuzzDecodeBatch(f *testing.F) {
	addServeSeeds(f, "batch")
	f.Fuzz(func(t *testing.T, data []byte, small bool) {
		d := fuzzConfig(small).Dim
		var b Batch
		codectest.Check(t, data, 8, func() (int, error) {
			return len(data), decodeBatch(data, d, &b)
		}, func() []byte { return encodeBatch(&b, d) })
	})
}

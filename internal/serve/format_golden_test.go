package serve

// Golden bytes for the serving layer's wire formats — the HSRV snapshot
// stream, the HCKP checkpoint image and the write-ahead-log batch payload —
// pinned by length plus SHA-256. The full-surface fixture carries a
// regressor, a cleanup memory and item symbols; the small one sits on a
// word boundary with none of them. The same cases seed the decoder
// fuzzers.

import (
	"bytes"
	"fmt"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec/codectest"
	"hdcirc/internal/rng"
)

// goldenConfigs are the two fixtures every serving-format golden is built
// from.
func goldenConfigs() map[string]Config {
	return map[string]Config{
		"full":  durableConfig(""),
		"small": {Dim: 65, Classes: 3, Shards: 2, Workers: 1, Seed: 5},
	}
}

// goldenServer applies n seeded batches and returns the server with the
// encoded payload of every batch it applied.
func goldenServer(t testing.TB, cfg Config, n int) (*Server, [][]byte) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.Sub(cfg.Seed, "golden/batches")
	var payloads [][]byte
	for i := 0; i < n; i++ {
		var b Batch
		if cfg.Labels != nil {
			b = randomBatch(cfg, src)
		} else {
			b.Train = []Sample{{Class: i % cfg.Classes, HV: bitvec.Random(cfg.Dim, src)}}
			b.Items = []string{fmt.Sprintf("sym-%d", i)}
		}
		payloads = append(payloads, encodeBatch(&b, cfg.Dim))
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return s, payloads
}

func goldenSnapshot(t testing.TB, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenCheckpoint(s *Server) []byte {
	_, body := s.encodeCheckpoint()
	return appendCkptCRC(body)
}

func formatCases(t testing.TB) []codectest.Case {
	var out []codectest.Case
	for _, f := range []struct {
		name    string
		batches int
	}{{"full", 12}, {"small", 4}} {
		name, cfg := f.name, goldenConfigs()[f.name]
		s, payloads := goldenServer(t, cfg, f.batches)
		out = append(out,
			codectest.Case{Name: "HSRV " + name, Data: goldenSnapshot(t, s)},
			codectest.Case{Name: "HCKP " + name, Data: goldenCheckpoint(s)})
		for i, p := range payloads {
			out = append(out, codectest.Case{Name: fmt.Sprintf("batch %s %d", name, i), Data: p})
		}
		out = append(out, codectest.Case{Name: "batch " + name + " empty", Data: encodeBatch(&Batch{}, cfg.Dim)})
	}
	return out
}

var formatGoldens = map[string]string{
	"HSRV full":         "730:214ed7b57717d486669358eee92415b5f458ca261fab2f4f9e22cc25d7cd99b3",
	"HCKP full":         "30550:36385dd6f75d3c4b65f39b83b867b21e76074d9ad93a7e9606a59bfcc9169097",
	"batch full 0":      "339:0ec547a6e56fcdb5c354b6685fc2f06b4cf3e78e5e46624a053434fe7df0f286",
	"batch full 1":      "32:4100980623bd38f1bda01387b493211227228bcebd0084c98e12b64a63cd5e9e",
	"batch full 2":      "43:68667eb2c2bf12a5af9ba664944197905d7bf2787fea57f3c9ac2fe93743c4b8",
	"batch full 3":      "139:18b703c0f2bb821f1e74ed4b12710a140e25a51c781cc632c03e9be4fcd3154f",
	"batch full 4":      "188:3763fbec6dd63e9af278cca57f3fb7b64fa079217bcaa32ce1c3485ca251873e",
	"batch full 5":      "177:f1634ec7e674530ac43c7f3aefeaa06cf96d111213be345e53a8c168cec4f2f0",
	"batch full 6":      "355:d3992c0abc53c8519c6a96dc4a339ca0f6d05e5fca23c606e94b88eb8d8b5616",
	"batch full 7":      "139:769c621ae531dc5b3d33da2edc21cdb1220ef9e8c2f01c0e5a62ff5067e4e6bc",
	"batch full 8":      "77:a0e73e305a0dd693abcc44498e2e93efda07d666b359a2bf05ec651bad537fa3",
	"batch full 9":      "311:724a2f644a2ca7250f877ead8c905e7928914d540e842cf17eb2bf0fa3ab018d",
	"batch full 10":     "144:afb0485d4e257147df52389641523ab6b27be46c51065192a6f517d57ee26c98",
	"batch full 11":     "191:8c96f909c25399470dbe2bd6c4b087e66160f0085842ea8fe585cb6eebaa8e3c",
	"batch full empty":  "21:c90232586b801f9558a76f2f963eccd831d9fe6775e4c8f1446b2331aa2132f2",
	"HSRV small":        "189:5cbf0431ae6ba53e6e1cd639ecefe94de3da302d190375570d1cdf7b5497da83",
	"HCKP small":        "1104:20efeaef51cec8c0adcb28c23ba766a707081489b39e2ecb1cb11fe7e0f67300",
	"batch small 0":     "50:1897f95ace3099dd248b854e8d548a92cc56c59579ae948665860a12b181462f",
	"batch small 1":     "50:340e32b763db615e8e5f4511ba99a729e993732af8aed29d1449cac92ae84bbf",
	"batch small 2":     "50:8dd9025a65f921dc668e28dc2b46317c756c2f95bfd076848cfd810c107f373d",
	"batch small 3":     "50:182a9e9684fcb31d56867ea4ec64b2fb690b7a57609ab477bbe1e52daf3d0f31",
	"batch small empty": "21:c90232586b801f9558a76f2f963eccd831d9fe6775e4c8f1446b2331aa2132f2",
}

func TestFormatGoldens(t *testing.T) {
	codectest.Goldens(t, formatCases(t), formatGoldens)
}

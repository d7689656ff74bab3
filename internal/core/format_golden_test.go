package core

// Golden bytes for the HSET wire format: fixed-seed basis sets of each
// shipped kind at word-boundary dimensions, pinned by length plus SHA-256.
// The same cases seed the decoder fuzzer.

import (
	"bytes"
	"fmt"
	"testing"

	"hdcirc/internal/codec/codectest"
	"hdcirc/internal/rng"
)

func formatCases(t testing.TB) []codectest.Case {
	var out []codectest.Case
	for _, d := range []int{1, 64, 65, 1000} {
		for _, cfg := range []Config{
			{Kind: KindLevel, M: 5, D: d},
			{Kind: KindCircular, M: 8, D: d, R: 0.25},
		} {
			set := cfg.Build(rng.Sub(uint64(d), "golden/set"))
			var buf bytes.Buffer
			if _, err := set.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			out = append(out, codectest.Case{Name: fmt.Sprintf("HSET %v d=%d", cfg.Kind, d), Data: buf.Bytes()})
		}
	}
	return out
}

var formatGoldens = map[string]string{
	"HSET level d=1":       "156:89b1b282e4638bdb57062f7835c33ad71ec492e06b365a6f9996eaf6b32a9d02",
	"HSET circular d=1":    "228:3834fe9d30d299dd372560ce8c7d245d5edd0a51e3d6a994d900afe3e51019b8",
	"HSET level d=64":      "156:1fe2c5c20817423462619bf45d9c2b5c33516e250482e0e0936419f9e8160132",
	"HSET circular d=64":   "228:ce0a1d8f7ed8dfe81ad7222b2eed18a46535365758131c41fe98ffca0468d50f",
	"HSET level d=65":      "196:76dcc41effd0cee95120cf85068d2c46bbf54e8f7c40403a64ff87759bc1a915",
	"HSET circular d=65":   "292:41d54e97296912f0ddddee3ea03352ad8c0a6b60c651dd86049e8639cf985315",
	"HSET level d=1000":    "756:e9423d67b56b0a2d878ec46b0bf6befc99aa16d3b72aa216b450524f1ae919cf",
	"HSET circular d=1000": "1188:bd6c0946474125254f1b4f53f9d35b0c194be29f5d757e01d72a3f4b176e7c21",
}

func TestFormatGoldens(t *testing.T) {
	codectest.Goldens(t, formatCases(t), formatGoldens)
}

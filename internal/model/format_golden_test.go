package model

// Golden bytes for the HCLS, HCST, HREG and HRST wire formats: fixed-seed
// classifiers and regressors at word-boundary dimensions, pinned by length
// plus SHA-256. The same cases seed the decoder fuzzers.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec/codectest"
	"hdcirc/internal/rng"
)

func writeBytes(t testing.TB, write func(io.Writer) (int64, error)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenClassifier trains k=3 classes; class 2 also forgets one sample,
// so the state streams carry negative counters.
func goldenClassifier(d int) *Classifier {
	src := rng.Sub(uint64(d), "golden/classifier")
	c := NewClassifier(3, d, 11)
	for i := 0; i < 7; i++ {
		c.Add(i%3, bitvec.Random(d, src))
	}
	c.Sub(2, bitvec.Random(d, src))
	return c
}

func goldenRegressor(d int) *Regressor {
	src := rng.Sub(uint64(d), "golden/regressor")
	r := NewRegressor(d, 13)
	for i := 0; i < 4; i++ {
		r.Add(bitvec.Random(d, src), bitvec.Random(d, src))
	}
	return r
}

func formatCases(t testing.TB) []codectest.Case {
	var out []codectest.Case
	for _, d := range []int{1, 64, 65, 1000} {
		c := goldenClassifier(d)
		out = append(out,
			codectest.Case{Name: fmt.Sprintf("HCLS d=%d", d), Data: writeBytes(t, c.WriteTo)},
			codectest.Case{Name: fmt.Sprintf("HCST d=%d", d), Data: writeBytes(t, c.WriteStateTo)})
		r := goldenRegressor(d)
		out = append(out,
			codectest.Case{Name: fmt.Sprintf("HREG d=%d", d), Data: writeBytes(t, r.WriteTo)},
			codectest.Case{Name: fmt.Sprintf("HRST d=%d", d), Data: writeBytes(t, r.WriteStateTo)})
	}
	return out
}

var formatGoldens = map[string]string{
	"HCLS d=1":    "88:9648c51ca0b603540ac43b7d2838281913d67ba1fea3dcf76af6bef031a8b701",
	"HCST d=1":    "100:9c6c30b507ec5798d2aef4af52b6ca10ea5fab5dc4295fa30064ff1566bdd663",
	"HREG d=1":    "32:a887e65cdef817fffb4773f2b416dc3003d5e31dc3d638058bc9d282c9629217",
	"HRST d=1":    "36:a849eb4d37229de66acf9bed01dbcdebc93dee3fc1652421935afd20e3428856",
	"HCLS d=64":   "88:6dcb8db2c2f8fbf9884801c3e43725a9e30d85fd3ab62d23f713de7e5457bea3",
	"HCST d=64":   "856:a44d37c6f7e0d6ca843c3063a77b773075cc28490a8981cada7b9acc51e2dc25",
	"HREG d=64":   "32:4c92123945de9b0e0538da1289932054b7dc1bb9c57f323432aaaae7a97b7dd6",
	"HRST d=64":   "288:de8d8fa6531dca7af01d561b185a3387ca794fa0a0df993f411299bc36829b87",
	"HCLS d=65":   "112:fef8cf25f5abda2f43139a2c331850733393ed207fbba7a2e39f40bf034aa1d7",
	"HCST d=65":   "868:fb24c853be4e20a69b5e5a471dec40ad447cfbb5bdf42327bcfa422b11dd516a",
	"HREG d=65":   "40:a711c524584a81f618c52fad28ccfef4438958e810e8380f16096ec6679a2d83",
	"HRST d=65":   "292:0e4e8db646eac67603f9597e9cb2541110360dea8a10a94b4ca4e9513f7eb36d",
	"HCLS d=1000": "448:a68060353270dab8923484a4b1a7a17576c2bdf1dad0d5f0c9f320cd2d8f3874",
	"HCST d=1000": "12088:b41a18089025201562e1af9d65a9c5e610e0b65ece4487324690d27524bbb3ba",
	"HREG d=1000": "152:e939d973984289cf9d05437c34927bef59b460a8539dfd9d0b0be50a3fb34067",
	"HRST d=1000": "4032:4589f27241ae7803985a1d57bad997dcb4143ac04c5329e5a534b81d4c7d9ba5",
}

func TestFormatGoldens(t *testing.T) {
	codectest.Goldens(t, formatCases(t), formatGoldens)
}

package embed

// Golden encode hashes for the bundling encoders. Each case folds a fixed,
// seed-derived batch of encodings into one FNV-1a hash; the pinned values
// were recorded from the accumulate-and-threshold implementation, so a
// change to the bundling kernels must leave every encoding bit-identical.
// Dimensions off the 64-bit word grid, odd and even operand counts (even
// counts tie), and inputs built to tie on every dimension are all covered.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/core"
	"hdcirc/internal/rng"
)

// digest folds vectors into an FNV-1a hash, dimension first.
type digest struct{ h uint64 }

func (g *digest) add(v *bitvec.Vector) {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], g.h)
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(v.Dim()))
	h.Write(buf[:])
	for _, w := range v.Words() {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	g.h = h.Sum64()
}

// itemsWithTies returns n random items of dimension d. When tie is set,
// every odd item is its predecessor complemented and then rotated by
// shift, so an encoder that rotates item i by i·(−shift) sees
// complementary pairs and ties on every dimension of an even prefix.
func itemsWithTies(d, n int, seed uint64, tie bool, shift int) []*bitvec.Vector {
	src := rng.New(seed)
	items := make([]*bitvec.Vector, n)
	for i := range items {
		if tie && i%2 == 1 {
			items[i] = items[i-1].Not().Rotate(shift)
			continue
		}
		items[i] = bitvec.Random(d, src)
	}
	return items
}

// TestCircularRecordEncodeGolden pins the 8-field circular record encoder
// the circular serving workloads use: 64-point circular basis, d=4096.
func TestCircularRecordEncodeGolden(t *testing.T) {
	const (
		d      = 4096
		fields = 8
		seed   = 4001
	)
	basis := core.Config{Kind: core.KindCircular, M: 64, D: d}.Build(rng.Sub(seed, "golden/circ/basis"))
	angle := NewCircularEncoder(basis, 2*math.Pi)
	enc := make([]FieldEncoder, fields)
	for i := range enc {
		enc[i] = angle
	}
	rec := NewRecordEncoder(d, fields, seed)
	src := rng.Sub(seed, "golden/circ/rows")
	var g digest
	row := make([]float64, fields)
	for r := 0; r < 256; r++ {
		for i := range row {
			row[i] = src.Float64() * 2 * math.Pi
		}
		// Every 8th row carries one angle in all eight fields. The field
		// count is even, so the bundle ties on roughly a quarter of the
		// dimensions either way.
		if r%8 == 0 {
			for i := range row {
				row[i] = row[0]
			}
		}
		g.add(rec.EncodeRecord(row, enc))
	}
	if want := uint64(0x176c65cf58b50075); g.h != want {
		t.Errorf("circular record digest %#016x, golden %#016x", g.h, want)
	}
}

func TestRecordEncodeGolden(t *testing.T) {
	var g digest
	for _, d := range []int{1, 63, 64, 65, 1000, 4099} {
		for _, fields := range []int{1, 2, 3, 7, 8} {
			for _, tie := range []bool{false, true} {
				rec := NewRecordEncoder(d, fields, uint64(d*31+fields))
				// With tie set, each odd field's value is chosen so its
				// bound pair is the complement of the previous field's.
				values := itemsWithTies(d, fields, uint64(d+fields), false, 0)
				if tie {
					for i := 1; i < fields; i += 2 {
						values[i] = rec.Key(i).Xor(rec.Key(i - 1).Xor(values[i-1]).Not())
					}
				}
				g.add(rec.EncodeVectors(values))
			}
		}
	}
	if want := uint64(0x62ebca44574a000d); g.h != want {
		t.Errorf("record digest %#016x, golden %#016x", g.h, want)
	}
}

func TestSequenceEncodeGolden(t *testing.T) {
	var g digest
	for _, d := range []int{1, 63, 64, 65, 1000, 4096, 4099} {
		se := NewSequenceEncoder(d, uint64(d))
		for _, n := range []int{1, 2, 3, 8, 31, 32, 65} {
			for _, tie := range []bool{false, true} {
				// Item i is rotated by i, so shift −1 makes pairs complementary.
				g.add(se.Encode(itemsWithTies(d, n, uint64(n*7+d), tie, -1)))
			}
		}
	}
	if want := uint64(0x31c28556969e12a0); g.h != want {
		t.Errorf("sequence digest %#016x, golden %#016x", g.h, want)
	}
}

func TestNGramEncodeGolden(t *testing.T) {
	var g digest
	for _, d := range []int{1, 63, 64, 65, 1000, 4096, 4099} {
		for _, n := range []int{1, 2, 3, 4} {
			ng := NewNGramEncoder(d, n, uint64(d+n))
			for _, length := range []int{1, 2, 3, 5, 40} {
				for _, tie := range []bool{false, true} {
					// Unigrams tie on complementary pairs; longer grams tie
					// naturally on an even gram count.
					g.add(ng.Encode(itemsWithTies(d, length, uint64(length*13+d), tie, 0)))
				}
			}
		}
	}
	if want := uint64(0x742b06b192eb2c3a); g.h != want {
		t.Errorf("n-gram digest %#016x, golden %#016x", g.h, want)
	}
}

package bitvec

// Fuzz harnesses pinning the threshold-pruned kernels (pruned.go) against
// the per-bit references in reference.go, and the Bundler against the
// Accumulator. Dimensions are derived from the fuzzed inputs so
// non-64-multiple word tails are exercised constantly; the seed corpus
// under testdata/fuzz/ checks in the word-boundary cases (d = 1, 63..65,
// 127..129) plus representative bounds.

import "testing"

// fuzzDim maps a fuzzed uint16 onto [1, 1025], hitting every word-tail
// residue class.
func fuzzDim(raw uint16) int { return int(raw)%1025 + 1 }

// vecFromBytes builds a d-bit vector by cycling the given bytes (an empty
// slice yields the zero vector), offset so distinct offsets give distinct
// vectors from one pool.
func vecFromBytes(d int, data []byte, offset int) *Vector {
	v := New(d)
	if len(data) == 0 {
		return v
	}
	for i := 0; i < d; i++ {
		byteIdx := (offset + i/8) % len(data)
		if data[byteIdx]>>(uint(i)&7)&1 == 1 {
			v.setBit(i)
		}
	}
	return v
}

func FuzzDistanceBounded(f *testing.F) {
	f.Add([]byte{0xff}, []byte{0x00}, uint16(0), 0)                      // d=1, tight bound
	f.Add([]byte{0xaa, 0x55}, []byte{0x55, 0xaa}, uint16(62), 31)        // d=63
	f.Add([]byte("seed"), []byte("corn"), uint16(63), 64)                // d=64
	f.Add([]byte{0x01}, []byte{0x80}, uint16(64), -1)                    // d=65, negative bound
	f.Add([]byte{0xf0, 0x0f, 0x33}, []byte{}, uint16(126), 127)          // d=127 vs zero vector
	f.Add([]byte{1, 2, 3, 4, 5}, []byte{5, 4, 3, 2, 1}, uint16(128), 60) // d=129
	f.Fuzz(func(t *testing.T, ab, bb []byte, dRaw uint16, bound int) {
		d := fuzzDim(dRaw)
		a := vecFromBytes(d, ab, 0)
		b := vecFromBytes(d, bb, 0)
		want := referenceHammingDistance(a, b)
		hd, within := DistanceBounded(a, b, bound)
		if within != (want <= bound) {
			t.Fatalf("d=%d bound=%d: within=%v but reference distance %d", d, bound, within, want)
		}
		if within && hd != want {
			t.Fatalf("d=%d bound=%d: hd=%d, reference %d", d, bound, hd, want)
		}
		if !within && hd <= bound {
			t.Fatalf("d=%d bound=%d: abandoned at %d, not past the bound", d, bound, hd)
		}
	})
}

func FuzzNearestPruned(f *testing.F) {
	f.Add([]byte{0xde, 0xad}, []byte{0xbe, 0xef, 0x01, 0x42}, uint16(62), uint8(5), 20) // d=63
	f.Add([]byte("query"), []byte("candidates!"), uint16(63), uint8(1), 64)             // d=64
	f.Add([]byte{0x00}, []byte{0xff, 0x00, 0xf0}, uint16(64), uint8(9), 0)              // d=65, bound 0
	f.Add([]byte{0x11, 0x22, 0x33}, []byte{}, uint16(128), uint8(3), 1000)              // d=129, zero candidates pool
	f.Add([]byte{7}, []byte{7, 7, 9}, uint16(999), uint8(16), 500)                      // large odd d, identical-ish
	f.Fuzz(func(t *testing.T, qb, pool []byte, dRaw uint16, nRaw uint8, bound int) {
		d := fuzzDim(dRaw)
		q := vecFromBytes(d, qb, 0)
		n := int(nRaw)%16 + 1
		vs := make([]*Vector, n)
		for i := range vs {
			vs[i] = vecFromBytes(d, pool, i)
		}
		gi, gh := NearestPruned(q, vs, bound)
		wi, wh := referenceNearestPruned(q, vs, bound)
		if gi != wi || gh != wh {
			t.Fatalf("d=%d n=%d bound=%d: got (%d,%d), reference (%d,%d)", d, n, bound, gi, gh, wi, wh)
		}
		// Cross-kernel agreement: with bound d+1 the pruned scan must equal
		// the plain fused kernel.
		ni, nh := Nearest(q, vs)
		pi, ph := NearestPruned(q, vs, d+1)
		if ni != pi || nh != ph {
			t.Fatalf("d=%d n=%d: Nearest (%d,%d) != NearestPruned full bound (%d,%d)", d, n, ni, nh, pi, ph)
		}
	})
}

// FuzzBundlerMatchesAccumulator streams fuzzed operands through a Bundler
// — each via Add, AddXor or AddRotated, picked by a fuzzed selector — and
// their materialized forms through an Accumulator, then checks the
// tie-vector threshold and all three tie-mode thresholds (TieRandom coin
// for coin) agree. With tie set, every odd operand is the complement of
// its predecessor, so even counts tie on every dimension. The seeds mirror
// TestDifferentialBundler: word-boundary dimensions, odd and even operand
// counts around powers of two, up to 1000 operands.
func FuzzBundlerMatchesAccumulator(f *testing.F) {
	f.Add([]byte{0x5a}, uint16(0), uint16(1), uint64(0), false)               // d=1, one operand
	f.Add([]byte("bundle"), uint16(62), uint16(2), uint64(7), true)           // d=63, forced tie
	f.Add([]byte{0xff, 0x00, 0x0f}, uint16(63), uint16(64), uint64(1), false) // d=64, plane boundary
	f.Add([]byte{1, 2, 3, 4}, uint16(64), uint16(65), uint64(99), true)       // d=65
	f.Add([]byte("operands"), uint16(999), uint16(128), uint64(5), true)      // d=1000, forced ties
	f.Add([]byte{0xc3, 0x3c}, uint16(999), uint16(1000), uint64(3), false)    // d=1000, 1000 operands
	f.Add([]byte{}, uint16(127), uint16(0), uint64(0), false)                 // no operands: the tie vector
	f.Add([]byte{0x0f}, uint16(126), uint16(0), uint64(4), false)             // no operands, d=127: tail positions tie
	f.Fuzz(func(t *testing.T, pool []byte, dRaw, nRaw uint16, sel uint64, tie bool) {
		d := fuzzDim(dRaw)
		n := int(nRaw) % 1001
		key := vecFromBytes(d, pool, 3)
		tv := vecFromBytes(d, pool, 5).Not()
		b := GetBundler(d)
		defer PutBundler(b)
		acc := NewAccumulator(d)
		var prev *Vector
		for i := 0; i < n; i++ {
			v := vecFromBytes(d, pool, i)
			shift := int(sel>>8) + i
			op := (sel + uint64(i)) % 3
			if tie && i%2 == 1 {
				switch op {
				case 0:
					v = prev.Not()
				case 1:
					v = key.Xor(prev.Not())
				default:
					v = prev.Not().Rotate(-shift)
				}
			}
			switch op {
			case 0:
				b.Add(v)
				prev = v
			case 1:
				b.AddXor(key, v)
				prev = key.Xor(v)
			default:
				b.AddRotated(v, shift)
				prev = v.Rotate(shift)
			}
			acc.Add(prev)
		}
		if got, want := b.ThresholdTieVector(tv), acc.ThresholdTieVector(tv); !got.Equal(want) {
			t.Fatalf("d=%d n=%d: ThresholdTieVector diverges from the accumulator", d, n)
		}
		for _, tb := range []TieBreak{TieZero, TieOne, TieRandom} {
			var srcA, srcB Source
			if tb == TieRandom {
				srcA, srcB = newTestSource(int64(sel)), newTestSource(int64(sel))
			}
			if got, want := b.threshold(tb, srcA), acc.Threshold(tb, srcB); !got.Equal(want) {
				t.Fatalf("d=%d n=%d tie=%v: threshold diverges from the accumulator", d, n, tb)
			}
		}
	})
}

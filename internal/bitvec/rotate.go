package bitvec

// Cyclic rotation. RotateBits in bitvec.go is the general O(d/64)
// shift-based rotation that works for every dimension; RotateInto adds a
// single-pass kernel for dimensions that are multiples of 64 (one output
// word from two source words, no clearing pass) and writes into a
// caller's vector, so encoders can rotate into scratch space.

// Rotate returns the cyclic-shift permutation Π^k(v): the single-pass
// word kernel when d is a multiple of 64, the general O(d/64) shift-based
// kernel otherwise. Both paths produce identical results (pinned against
// the per-bit reference in rotate_test.go).
func (v *Vector) Rotate(k int) *Vector { return v.RotateInto(k, New(v.d)) }

// RotateInto stores Π^k(v) into dst and returns dst. dst must have v's
// dimension and must not alias v.
func (v *Vector) RotateInto(k int, dst *Vector) *Vector {
	v.mustMatch(dst)
	k %= v.d
	if k < 0 {
		k += v.d
	}
	if k == 0 {
		copy(dst.words, v.words)
		return dst
	}
	if v.d%64 != 0 {
		clear(dst.words)
		v.shlOrInto(dst, k)
		v.shrOrInto(dst, v.d-k)
		dst.clearTail()
		return dst
	}
	// Output word i takes its high bits from source word i−ws and its low
	// bits from the word before it, cyclically: two straight runs plus the
	// word at the seam. A shift by 64 yields 0 in Go, so bs == 0 needs no
	// special case.
	words, out := v.words, dst.words
	n := len(words)
	ws, bs := k>>6, uint(k&63)
	inv := 64 - bs
	run := out[ws+1:]
	hi, lo := words[1 : n-ws][:len(run)], words[:n-ws-1][:len(run)]
	for i := range run {
		run[i] = hi[i]<<bs | lo[i]>>inv
	}
	out[ws] = words[0]<<bs | words[n-1]>>inv
	run = out[:ws]
	hi, lo = words[n-ws:][:len(run)], words[n-ws-1 : n-1][:len(run)]
	for i := range run {
		run[i] = hi[i]<<bs | lo[i]>>inv
	}
	return dst
}

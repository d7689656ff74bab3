package bitvec

import (
	"math/rand"
	"sync"
	"testing"
)

// bundlerDims are the differential dimensions: single-word, both sides of
// the word boundary, and the large dimensions the encoders run at.
var bundlerDims = []int{1, 63, 64, 65, 1000, 4096, 10007}

// bundlerCounts are the operand counts thresholded along each stream:
// every count up to 70 (the plane count grows at each power of two), then
// odd and even counts around the larger powers of two, up to 1000.
func bundlerCounts() []int {
	var ks []int
	for k := 1; k <= 70; k++ {
		ks = append(ks, k)
	}
	return append(ks, 127, 128, 129, 255, 256, 257, 511, 512, 513, 599, 600, 601, 999, 1000)
}

// addBoth feeds operand i to the bundler through Add, AddXor or AddRotated
// (cycling on i) and its materialized equivalent to the accumulator.
func addBoth(b *Bundler, acc *Accumulator, i int, v, key *Vector) {
	switch i % 3 {
	case 0:
		b.Add(v)
		acc.Add(v)
	case 1:
		b.AddXor(key, v)
		acc.Add(key.Xor(v))
	default:
		k := i*37 - 500 // negative, zero and beyond-d shifts alike
		b.AddRotated(v, k)
		acc.Add(v.Rotate(k))
	}
}

// TestDifferentialBundler streams up to 1000 operands through a Bundler
// and an Accumulator side by side and compares their tie-vector and
// tie-mode thresholds at every count in bundlerCounts. The forced stream
// opens with 300 operands whose materialized forms are complementary
// pairs, so its even counts up to 600 tie on every dimension.
func TestDifferentialBundler(t *testing.T) {
	r := rand.New(rand.NewSource(1111))
	ks := bundlerCounts()
	for _, d := range bundlerDims {
		tv := Random(d, newTestSource(r.Int63()))
		key := Random(d, newTestSource(r.Int63()))
		for _, forced := range []bool{false, true} {
			b := GetBundler(d)
			acc := NewAccumulator(d)
			if got := b.ThresholdTieVector(tv); !got.Equal(tv) {
				t.Fatalf("d=%d: empty bundler did not return the tie vector", d)
			}
			var prev *Vector // materialized previous operand
			added := 0
			for _, k := range ks {
				for ; added < k; added++ {
					v := Random(d, newTestSource(r.Int63()))
					if forced && added < 600 && added%2 == 1 {
						// Choose v so its materialized form complements prev.
						switch added % 3 {
						case 0:
							v = prev.Not()
						case 1:
							v = key.Xor(prev.Not())
						default:
							v = prev.Not().Rotate(-(added*37 - 500))
						}
					}
					addBoth(b, acc, added, v, key)
					switch added % 3 {
					case 0:
						prev = v
					case 1:
						prev = key.Xor(v)
					default:
						prev = v.Rotate(added*37 - 500)
					}
				}
				if b.n != k {
					t.Fatalf("d=%d k=%d: bundler counts %d operands", d, k, b.n)
				}
				if got, want := b.ThresholdTieVector(tv), acc.ThresholdTieVector(tv); !got.Equal(want) {
					t.Fatalf("d=%d k=%d forced=%v: ThresholdTieVector diverges from the accumulator", d, k, forced)
				}
				for _, tie := range []TieBreak{TieZero, TieOne, TieRandom} {
					var srcA, srcB Source
					if tie == TieRandom {
						srcA, srcB = newTestSource(int64(k)), newTestSource(int64(k))
					}
					if got, want := b.threshold(tie, srcA), acc.Threshold(tie, srcB); !got.Equal(want) {
						t.Fatalf("d=%d k=%d forced=%v tie=%v: threshold diverges from the accumulator", d, k, forced, tie)
					}
				}
			}
		}
	}
}

func TestBundlerResetAndPoolReuse(t *testing.T) {
	src := newTestSource(1212)
	for _, d := range []int{4096, 65, 10007, 1, 4096} {
		vs := []*Vector{Random(d, src), Random(d, src), Random(d, src), Random(d, src)}
		tv := Random(d, src)
		b := GetBundler(d)
		if b.d != d || b.n != 0 {
			t.Fatalf("d=%d: pooled bundler has dim %d, %d operands", d, b.d, b.n)
		}
		for _, v := range vs {
			b.AddRotated(v, 3)
		}
		b.Reset()
		for _, v := range vs {
			b.Add(v)
		}
		want := NewAccumulator(d)
		for _, v := range vs {
			want.Add(v)
		}
		if !b.ThresholdTieVector(tv).Equal(want.ThresholdTieVector(tv)) {
			t.Fatalf("d=%d: reset or pooled bundler kept stale counts", d)
		}
		PutBundler(b)
	}
}

func TestBundlerConcurrentPoolUse(t *testing.T) {
	const d = 1000
	src := newTestSource(1313)
	vs := make([]*Vector, 9)
	for i := range vs {
		vs[i] = Random(d, src)
	}
	want := referenceMajority(vs, TieOne, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if !Majority(vs, TieOne, nil).Equal(want) {
					errs <- "concurrent Majority diverges from reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestBundlerPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("GetBundler(0)", func() { GetBundler(0) })
	mustPanic("GetBundler(-1) after a pooled bundler", func() { PutBundler(GetBundler(8)); GetBundler(-1) })
	mustPanic("Add mismatch", func() { GetBundler(8).Add(New(9)) })
	mustPanic("AddXor mismatch", func() { GetBundler(8).AddXor(New(8), New(9)) })
	mustPanic("AddXor bundler mismatch", func() { GetBundler(8).AddXor(New(9), New(9)) })
	mustPanic("AddRotated mismatch", func() { GetBundler(8).AddRotated(New(9), 1) })
	mustPanic("tie vector mismatch", func() { GetBundler(8).ThresholdTieVector(New(9)) })
	mustPanic("TieRandom without source", func() { GetBundler(8).threshold(TieRandom, nil) })
}

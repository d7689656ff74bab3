package bitvec

import (
	"bytes"
	"testing"
)

func TestVectorSerializeRoundTrip(t *testing.T) {
	src := newTestSource(81)
	for _, d := range []int{1, 63, 64, 65, 1000, 10000} {
		v := Random(d, src)
		var buf bytes.Buffer
		n, err := v.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("d=%d: WriteTo reported %d bytes, wrote %d", d, n, buf.Len())
		}
		got, err := ReadVector(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v) {
			t.Errorf("d=%d: round trip mismatch", d)
		}
	}
}

func TestVectorMarshalBinaryRoundTrip(t *testing.T) {
	src := newTestSource(82)
	v := Random(777, src)
	data, err := v.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Vector
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Error("MarshalBinary round trip mismatch")
	}
}

func TestReadVectorRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE\x01\x00\x00\x00\x40\x00\x00\x00\x00\x00\x00\x00"),
		"truncated": func() []byte {
			var buf bytes.Buffer
			v := Random(128, newTestSource(83))
			if _, err := v.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:20]
		}(),
	}
	for name, data := range cases {
		if _, err := ReadVector(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: garbage accepted", name)
		}
	}
}

func TestReadVectorRejectsBadVersionAndDimension(t *testing.T) {
	var buf bytes.Buffer
	v := Random(64, newTestSource(84))
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	badVer := append([]byte{}, data...)
	badVer[4] = 99
	if _, err := ReadVector(bytes.NewReader(badVer)); err == nil {
		t.Error("bad version accepted")
	}

	badDim := append([]byte{}, data...)
	for i := 8; i < 16; i++ {
		badDim[i] = 0
	}
	if _, err := ReadVector(bytes.NewReader(badDim)); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestReadVectorRejectsTailBits(t *testing.T) {
	var buf bytes.Buffer
	v := Random(65, newTestSource(85)) // one tail word with 63 invalid bits
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] |= 0x80 // set the highest (invalid) bit of the tail word
	if _, err := ReadVector(bytes.NewReader(data)); err == nil {
		t.Error("corrupt tail accepted")
	}
}

func TestAccumulatorSerializeRoundTrip(t *testing.T) {
	src := newTestSource(91)
	for _, d := range []int{1, 63, 64, 65, 1000} {
		a := NewAccumulator(d)
		for i := 0; i < 7; i++ {
			a.Add(Random(d, src))
		}
		a.Sub(Random(d, src)) // negative counters and n != adds
		var buf bytes.Buffer
		n, err := a.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("d=%d: WriteTo reported %d bytes, wrote %d", d, n, buf.Len())
		}
		got, err := ReadAccumulator(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dim() != d || got.N() != a.N() {
			t.Fatalf("d=%d: shape (%d,%d), want (%d,%d)", d, got.Dim(), got.N(), d, a.N())
		}
		for i, c := range a.Counts() {
			if got.Counts()[i] != c {
				t.Fatalf("d=%d: counter %d is %d, want %d", d, i, got.Counts()[i], c)
			}
		}
		// The restored state must keep training identically: same addition,
		// same threshold output.
		extra := Random(d, newTestSource(int64(d)))
		a.Add(extra)
		got.Add(extra)
		tv := Random(d, newTestSource(int64(d)+1))
		if !a.ThresholdTieVector(tv).Equal(got.ThresholdTieVector(tv)) {
			t.Errorf("d=%d: restored accumulator diverged after continued training", d)
		}
	}
}

func TestReadAccumulatorRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("HACCxxxx"),
		append([]byte("HVEC"), make([]byte, 20)...), // wrong magic
	} {
		if _, err := ReadAccumulator(bytes.NewReader(raw)); err == nil {
			t.Errorf("garbage %q accepted", raw)
		}
	}
	// Truncated counts section.
	var buf bytes.Buffer
	a := NewAccumulator(100)
	a.Add(Random(100, newTestSource(5)))
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAccumulator(bytes.NewReader(buf.Bytes()[:buf.Len()-10])); err == nil {
		t.Error("truncated accumulator stream accepted")
	}
}

package codec

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

func sample() []byte {
	w := NewWriter(nil)
	w.Header("TEST", 3)
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(1<<63 | 5)
	w.F64(-2.5)
	w.String("hdc")
	w.U8(9)
	w.U8(8)
	w.Words([]uint64{1, math.MaxUint64})
	w.Int32s([]int32{-1, 7})
	w.CRC()
	return w.Bytes()
}

// read decodes sample's fields in order.
func read(r *Reader) {
	r.Header("TEST", 3)
	r.U8()
	r.U32()
	r.U64()
	r.F64()
	r.String(16)
	r.Bytes(2, nil)
	r.Words(2)
	r.Int32s(2)
	r.U32()
}

func TestRoundTripMemoryAndStream(t *testing.T) {
	data := sample()
	if len(data) != 8+1+4+8+8+7+2+16+8+4 {
		t.Fatalf("encoded %d bytes", len(data))
	}
	for name, r := range map[string]*Reader{
		"memory": NewBytesReader(data),
		"stream": NewReader(struct{ io.Reader }{bytes.NewReader(data)}),
	} {
		r.Header("TEST", 3)
		u8, u32, u64, f64 := r.U8(), r.U32(), r.U64(), r.F64()
		s, raw := r.String(16), r.Bytes(2, nil)
		words, counts := r.Words(2), r.Int32s(2)
		r.U32()
		r.End()
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if u8 != 0xab || u32 != 0xdeadbeef || u64 != 1<<63|5 || f64 != -2.5 || s != "hdc" ||
			!bytes.Equal(raw, []byte{9, 8}) || words[1] != math.MaxUint64 || counts[0] != -1 || counts[1] != 7 {
			t.Fatalf("%s: decoded %x %x %x %v %q %v %v %v", name, u8, u32, u64, f64, s, raw, words, counts)
		}
	}
	if _, err := CheckCRC(data); err != nil {
		t.Fatal(err)
	}
}

// TestTruncationAtEveryOffset cuts the input at every byte: every read
// fails with io.EOF or io.ErrUnexpectedEOF, and the error is sticky.
func TestTruncationAtEveryOffset(t *testing.T) {
	data := sample()
	for cut := 0; cut < len(data); cut++ {
		mem := NewBytesReader(data[:cut])
		stream := NewReader(struct{ io.Reader }{bytes.NewReader(data[:cut])})
		read(mem)
		read(stream)
		for _, err := range []error{mem.Err(), stream.Err()} {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut at %d: %v", cut, err)
			}
		}
		if cut == 0 && mem.Err() != io.EOF {
			t.Fatalf("empty input: %v, want io.EOF", mem.Err())
		}
		if mem.U64() != 0 || mem.Words(1) != nil || mem.String(8) != "" {
			t.Fatalf("cut at %d: read after an error returned data", cut)
		}
	}
}

func TestHeaderCountAndTrailing(t *testing.T) {
	data := sample()
	r := NewBytesReader(data)
	if r.Header("NOPE", 3); !errors.Is(r.Err(), ErrMagic) {
		t.Fatalf("magic: %v", r.Err())
	}
	r = NewBytesReader(data)
	if r.Header("TEST", 4); !errors.Is(r.Err(), ErrVersion) {
		t.Fatalf("version: %v", r.Err())
	}
	r = NewBytesReader(data)
	if r.Count(9, 8, 1); !errors.Is(r.Err(), ErrCount) {
		t.Fatalf("count over limit: %v", r.Err())
	}
	r = NewBytesReader(data)
	if n := r.Count(uint64(len(data)/4+1), math.MaxUint32, 4); n != 0 || !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("count past the input: %d, %v", n, r.Err())
	}
	r = NewBytesReader(data)
	r.Header("TEST", 3)
	if r.End(); !errors.Is(r.Err(), ErrTrailing) {
		t.Fatalf("trailing: %v", r.Err())
	}
	r = NewBytesReader(data)
	if r.String(2); !errors.Is(r.Err(), ErrCount) {
		t.Fatalf("string over limit: %v", r.Err())
	}
	bad := append([]byte(nil), data...)
	bad[5] ^= 1
	if _, err := CheckCRC(bad); !errors.Is(err, ErrCRC) {
		t.Fatalf("CRC: %v", err)
	}
	if _, err := CheckCRC(data[:3]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short CRC: %v", err)
	}
}

// TestArraysAllocateWithTheInput claims huge arrays and then ends: in
// memory nothing is allocated, from a stream at most about one chunk.
func TestArraysAllocateWithTheInput(t *testing.T) {
	const n = 1 << 26
	reads := map[string]func(*Reader){
		"Words":  func(r *Reader) { r.Words(n) },
		"Int32s": func(r *Reader) { r.Int32s(n) },
		"Bytes":  func(r *Reader) { r.Bytes(n, nil) },
	}
	for name, read := range reads {
		for input, r := range map[string]*Reader{
			"memory": NewBytesReader(make([]byte, 16)),
			"stream": NewReader(struct{ io.Reader }{bytes.NewReader(make([]byte, 16))}),
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			read(r)
			runtime.ReadMemStats(&after)
			if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
				t.Errorf("%s from %s: %v", name, input, r.Err())
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 2*chunkBytes {
				t.Errorf("%s from %s: allocated %d bytes for 16 bytes of input", name, input, got)
			}
		}
	}
}

// Package codec is the one binary framing every on-disk and on-wire format
// of this module is written and read through: basis sets (HSET), vectors
// and accumulators (HVEC, HACC), models and their training state (HCLS,
// HCST, HREG, HRST), SDM state (HSDM), snapshots and checkpoints (HSRV,
// HCKP), the write-ahead log (HWSG segments and batch payloads) and the
// cluster manifest (HCLU).
//
// Every format is a sequence of little-endian fields:
//
//	header:  4-byte magic | u32 version
//	scalars: u8, u32, u64, f64 (IEEE-754 bits)
//	string:  u32 length | bytes
//	arrays:  u64 words or i32 counts, their count framed by the format
//	trailer: u32 CRC-32C (Castagnoli) over every preceding byte
//
// A Writer appends fields to one []byte. A Reader decodes them with a
// sticky error: after the first failure every read returns a zero value,
// so a decoder reads a run of fields and checks Err once. Reads are bounded
// by the input: a count the remaining in-memory input cannot hold is
// rejected before anything is allocated, and arrays from a stream are read
// in chunks, so allocation grows only with the bytes actually delivered.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// chunkBytes bounds how much a stream read allocates ahead of the bytes
// it has actually received.
const chunkBytes = 64 << 10

var (
	// ErrMagic reports input that is not the expected format.
	ErrMagic = errors.New("codec: bad magic")
	// ErrVersion reports a format version this build cannot read.
	ErrVersion = errors.New("codec: unsupported version")
	// ErrCount reports a count or length past the format's limit.
	ErrCount = errors.New("codec: implausible count")
	// ErrTrailing reports bytes left over after a complete message.
	ErrTrailing = errors.New("codec: trailing bytes")
	// ErrCRC reports a CRC-32C trailer that does not match the body.
	ErrCRC = errors.New("codec: CRC mismatch")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum extends crc with the CRC-32C of b; Checksum(0, b) is the CRC of
// b alone.
func Checksum(crc uint32, b []byte) uint32 { return crc32.Update(crc, crcTable, b) }

// Writer appends encoded fields to a byte slice. The zero value is ready
// to use.
type Writer struct{ buf []byte }

// NewWriter returns a Writer appending to buf, whose spare capacity it
// uses first.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteTo writes the encoded bytes to dst, implementing io.WriterTo.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	n, err := dst.Write(w.buf)
	return int64(n), err
}

// Header writes a 4-byte magic and a version.
func (w *Writer) Header(magic string, version uint32) {
	w.buf = append(w.buf, magic[:4]...)
	w.U32(version)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// F64 writes the IEEE-754 bits of v.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a u32 length and the bytes of s.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Words writes each word little-endian, with no count.
func (w *Writer) Words(words []uint64) {
	for _, x := range words {
		w.U64(x)
	}
}

// Int32s writes each value as a little-endian uint32, with no count.
func (w *Writer) Int32s(xs []int32) {
	for _, x := range xs {
		w.U32(uint32(x))
	}
}

// CRC writes the CRC-32C of every byte in the buffer as the trailer.
func (w *Writer) CRC() { w.U32(Checksum(0, w.buf)) }

// CheckCRC splits data into its body and CRC-32C trailer and verifies the
// trailer: io.ErrUnexpectedEOF when there is no room for one, ErrCRC when
// it does not match.
func CheckCRC(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, io.ErrUnexpectedEOF
	}
	body := data[:len(data)-4]
	if Checksum(0, body) != binary.LittleEndian.Uint32(data[len(body):]) {
		return nil, ErrCRC
	}
	return body, nil
}

// Reader decodes fields from an in-memory slice or from a stream. Errors
// are sticky: the first one is kept and later reads return zero values.
// A read that finds the input exhausted fails with io.EOF, one cut short
// with io.ErrUnexpectedEOF.
type Reader struct {
	data []byte    // in-memory input; nil with a stream
	src  io.Reader // stream input; nil in memory
	off  int       // bytes of data consumed
	err  error
	tmp  []byte // stream read buffer
}

// NewBytesReader returns a Reader over data.
func NewBytesReader(data []byte) *Reader { return &Reader{data: data} }

// NewReader returns a Reader over src. It reads exactly the bytes the
// decoded fields span, never ahead, so src may carry further data after
// the message.
func NewReader(src io.Reader) *Reader { return &Reader{src: src} }

// Err returns the first error the Reader met.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// remaining returns the unread in-memory input length, or -1 for a
// stream.
func (r *Reader) remaining() int {
	if r.src != nil {
		return -1
	}
	return len(r.data) - r.off
}

// next consumes n bytes and returns them, or nil after recording an
// error. The slice is valid until the next read.
func (r *Reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.src == nil {
		if rem := r.remaining(); n > rem {
			r.err = io.ErrUnexpectedEOF
			if rem == 0 {
				r.err = io.EOF
			}
			return nil
		}
		b := r.data[r.off : r.off+n]
		r.off += n
		return b
	}
	if cap(r.tmp) < n {
		r.tmp = make([]byte, max(n, 16))
	}
	b := r.tmp[:n]
	if _, err := io.ReadFull(r.src, b); err != nil {
		r.err = err
		return nil
	}
	return b
}

// Header reads a magic and a version and fails with ErrMagic or
// ErrVersion unless they match.
func (r *Reader) Header(magic string, version uint32) {
	if b := r.next(4); b != nil && string(b) != magic {
		r.Fail(fmt.Errorf("%w: want %q", ErrMagic, magic))
		return
	}
	if v := r.U32(); r.err == nil && v != version {
		r.Fail(fmt.Errorf("%w %d of %s", ErrVersion, v, magic))
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count checks a count read from the input: it fails with ErrCount past
// limit, and with io.ErrUnexpectedEOF when n elements of at least
// elemBytes each cannot fit in the remaining input. It returns n as an
// int, or 0 after an error.
func (r *Reader) Count(n, limit uint64, elemBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > limit {
		r.err = fmt.Errorf("%w: %d exceeds %d", ErrCount, n, limit)
		return 0
	}
	if rem := r.remaining(); rem >= 0 && elemBytes > 0 && n > uint64(rem/elemBytes) {
		r.err = fmt.Errorf("%w: %d elements of %d bytes, %d bytes left", io.ErrUnexpectedEOF, n, elemBytes, rem)
		return 0
	}
	return int(n)
}

// reserve returns the capacity to allocate for n elements of elemBytes
// each: all of them when in-memory input holds them, one chunk's worth
// for a stream. It fails with io.ErrUnexpectedEOF, before anything is
// allocated, when in-memory input is too short.
func (r *Reader) reserve(n, elemBytes int) int {
	rem := r.remaining()
	switch {
	case rem < 0:
		return min(n, chunkBytes/elemBytes)
	case n > rem/elemBytes:
		r.Fail(io.ErrUnexpectedEOF)
		return 0
	}
	return n
}

// Bytes reads n raw bytes into dst's backing array when it is large
// enough, into fresh memory otherwise.
func (r *Reader) Bytes(n int, dst []byte) []byte {
	if r.err != nil {
		return nil
	}
	out := dst[:0]
	if cap(out) < n {
		out = make([]byte, 0, r.reserve(n, 1))
	}
	for len(out) < n && r.err == nil {
		k := min(n-len(out), chunkBytes)
		if r.src == nil {
			out = append(out, r.next(k)...)
			continue
		}
		out = slices.Grow(out, k)
		m, err := io.ReadFull(r.src, out[len(out):len(out)+k])
		out, r.err = out[:len(out)+m], err
	}
	if r.err != nil {
		return nil
	}
	return out
}

// String reads a u32 length, at most limit, and that many bytes.
func (r *Reader) String(limit int) string {
	n := r.Count(uint64(r.U32()), uint64(limit), 1)
	if r.src == nil {
		return string(r.next(n))
	}
	return string(r.Bytes(n, nil))
}

// Words reads n little-endian words.
func (r *Reader) Words(n int) []uint64 {
	if r.err != nil {
		return nil
	}
	out := make([]uint64, 0, r.reserve(n, 8))
	for len(out) < n {
		b := r.next(8 * min(n-len(out), chunkBytes/8))
		if b == nil {
			return nil
		}
		for i := 0; i < len(b); i += 8 {
			out = append(out, binary.LittleEndian.Uint64(b[i:]))
		}
	}
	return out
}

// Int32s reads n little-endian int32 values.
func (r *Reader) Int32s(n int) []int32 {
	if r.err != nil {
		return nil
	}
	out := make([]int32, 0, r.reserve(n, 4))
	for len(out) < n {
		b := r.next(4 * min(n-len(out), chunkBytes/4))
		if b == nil {
			return nil
		}
		for i := 0; i < len(b); i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i:])))
		}
	}
	return out
}

// End fails with ErrTrailing when in-memory input is left unread.
func (r *Reader) End() {
	if r.err == nil && r.src == nil && r.remaining() != 0 {
		r.err = fmt.Errorf("%w: %d", ErrTrailing, r.remaining())
	}
}

// Package codectest holds the checks shared by the tests of this module's
// binary formats. Goldens pins each format's bytes. Check and CheckStable
// assert, for the decoders' fuzz targets, that a decoder never panics and
// allocates in proportion to its input, and that re-encoding whatever it
// accepts gives back the same bytes (Check) or bytes that re-encode to
// themselves (CheckStable).
package codectest

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// slackBytes covers allocations that do not scale with the input: error
// values, and the chunk a stream read reserves plus its read buffer.
const slackBytes = 256 << 10

// Case is one named encoding a golden pins.
type Case struct {
	Name string
	Data []byte
}

// Digest is the pinned form of an encoding: its length and SHA-256.
func Digest(b []byte) string { return fmt.Sprintf("%d:%x", len(b), sha256.Sum256(b)) }

// Goldens checks that each case's Digest matches want under its name, and
// that every golden in want has a case.
func Goldens(t testing.TB, cases []Case, want map[string]string) {
	t.Helper()
	for _, c := range cases {
		if got := Digest(c.Data); got != want[c.Name] {
			t.Errorf("%q: %q, want %q", c.Name, got, want[c.Name])
		}
	}
	if len(cases) != len(want) {
		t.Errorf("%d cases, %d goldens", len(cases), len(want))
	}
}

// Check runs decode on data. decode reports how many bytes it consumed, or
// an error when it rejects the input; it may allocate at most perByte
// bytes for each input byte, plus a small fixed slack. When decode accepts
// the input, encode must reproduce exactly the bytes it consumed.
func Check(t testing.TB, data []byte, perByte int, decode func() (consumed int, err error), encode func() []byte) {
	t.Helper()
	var consumed int
	if boundedDecode(t, data, perByte, func() (err error) { consumed, err = decode(); return }) != nil {
		return
	}
	if out := encode(); !bytes.Equal(out, data[:consumed]) {
		t.Fatalf("re-encoding an accepted input changed it:\n got  %x\n want %x", out, data[:consumed])
	}
}

// CheckStable is Check for a decoder that accepts more than one encoding
// of a value. decode parses its input into fresh state and returns that
// state's encoder. Re-encoding an accepted input need not reproduce it,
// but must be a fixed point: the bytes decode, and encode to themselves.
func CheckStable(t testing.TB, data []byte, perByte int, decode func(data []byte) (encode func() []byte, err error)) {
	t.Helper()
	var encode func() []byte
	if boundedDecode(t, data, perByte, func() (err error) { encode, err = decode(data); return }) != nil {
		return
	}
	once := encode()
	again, err := decode(once)
	if err != nil {
		t.Fatalf("decoding a re-encoded input failed: %v\n input %x", err, once)
	}
	if twice := again(); !bytes.Equal(twice, once) {
		t.Fatalf("re-encoding is not stable:\n once  %x\n twice %x", once, twice)
	}
}

// boundedDecode runs decode and fails t when it allocated more than
// perByte bytes per input byte plus the slack. It returns decode's error.
func boundedDecode(t testing.TB, data []byte, perByte int, decode func() error) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(perByte*len(data)+slackBytes); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	return err
}

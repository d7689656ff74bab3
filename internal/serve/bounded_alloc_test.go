package serve

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec"
	"hdcirc/internal/core"
	"hdcirc/internal/model"
)

// TestDecodersBoundAllocationByInput feeds each decoder a header that
// claims its largest accepted size and then ends. Every decoder must fail
// having allocated far less than the claim: allocation may grow only with
// the bytes actually read. Each header goes in through the public reader,
// which decodes any io.Reader as a stream read in bounded chunks, and,
// where the format has one, through the decoder over in-memory input
// (codec.NewBytesReader), which rejects a count the remaining bytes cannot
// hold before allocating for it.
func TestDecodersBoundAllocationByInput(t *testing.T) {
	le := binary.LittleEndian
	header := func(magic string, fields ...uint64) []byte {
		b := append([]byte(magic), 1, 0, 0, 0) // version 1
		for _, f := range fields {
			b = le.AppendUint64(b, f)
		}
		return b
	}
	set := header("HSET") // u32 kind | f64 r | u64 m | u64 d
	set = le.AppendUint32(set, uint32(core.KindCircular))
	set = le.AppendUint64(set, math.Float64bits(0))
	set = le.AppendUint64(set, 1<<24)
	set = le.AppendUint64(set, 64)

	// A valid snapshot of an empty server ends in its u64 item count;
	// raise that count to the limit.
	cfg := Config{Dim: 64, Classes: 2, Workers: 1, Seed: 3}
	var snap bytes.Buffer
	if _, err := mustServer(t, cfg).Snapshot().WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	le.PutUint64(snap.Bytes()[snap.Len()-8:], 1<<28)

	// Each decoder is set up before the measurement starts.
	cases := []struct {
		name   string
		data   []byte
		stream func() func(io.Reader) error
		memory func() func(*codec.Reader) error // nil: no in-memory decoder
	}{
		{"HACC d=2^27", header("HACC", 1<<27, 0),
			func() func(io.Reader) error {
				return func(r io.Reader) error { _, err := bitvec.ReadAccumulator(r); return err }
			},
			func() func(*codec.Reader) error {
				return func(r *codec.Reader) error { bitvec.DecodeAccumulator(r); return r.Err() }
			}},
		{"HVEC d=2^27", header("HVEC", 1<<27),
			func() func(io.Reader) error {
				return func(r io.Reader) error { _, err := bitvec.ReadVector(r); return err }
			},
			func() func(*codec.Reader) error {
				return func(r *codec.Reader) error { bitvec.DecodeVector(r); return r.Err() }
			}},
		{"HSET m=2^24", set,
			func() func(io.Reader) error {
				return func(r io.Reader) error { _, err := core.ReadSet(r); return err }
			}, nil},
		{"HCLS k=2^20", header("HCLS", 1<<20),
			func() func(io.Reader) error {
				return func(r io.Reader) error { _, err := model.ReadClassifier(r, 0); return err }
			},
			func() func(*codec.Reader) error {
				return func(r *codec.Reader) error { model.DecodeClassVectors(r); return r.Err() }
			}},
		{"HSRV items=2^28", snap.Bytes(),
			func() func(io.Reader) error { return mustServer(t, cfg).Restore },
			func() func(*codec.Reader) error { return mustServer(t, cfg).restore }},
	}
	for _, c := range cases {
		measure := func(input string, decode func() error) {
			// Hand freed memory back first, so a decoder that does
			// over-allocate gets fresh pages it never touches instead of
			// reused ones the runtime must zero.
			debug.FreeOSMemory()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s (%s): truncated input accepted", c.name, input)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("%s (%s): allocated %d bytes before failing, want < 1 MiB", c.name, input, got)
			}
		}
		src, decode := bytes.NewReader(c.data), c.stream()
		measure("stream", func() error { return decode(src) })
		if c.memory != nil {
			r, decode := codec.NewBytesReader(c.data), c.memory()
			measure("memory", func() error { return decode(r) })
		}
	}
}

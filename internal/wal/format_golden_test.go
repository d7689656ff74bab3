package wal

// Golden bytes for the HWSG segment format — segment header plus record
// frames — pinned by length plus SHA-256 per segment file. Small segments
// force rotation, so the goldens cover several headers and an empty
// payload.

import (
	"os"
	"path/filepath"
	"testing"

	"hdcirc/internal/codec/codectest"
	"hdcirc/internal/vfs"
)

// goldenPayloads are the records every golden log holds, in order.
func goldenPayloads() [][]byte {
	out := [][]byte{{}}
	for i := 1; i < 9; i++ {
		p := make([]byte, 7*i)
		for j := range p {
			p[j] = byte(31*i + j)
		}
		out = append(out, p)
	}
	return out
}

func formatCases(t testing.TB) []codectest.Case {
	t.Helper()
	dir, err := os.MkdirTemp("", "wal-golden")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	l, err := Open(dir, Options{SegmentBytes: 96, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range goldenPayloads() {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []codectest.Case
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, codectest.Case{Name: "HWSG " + name, Data: raw})
	}
	return out
}

var formatGoldens = map[string]string{
	"HWSG wal-00000000000000000001.seg": "122:fe8f082b20e52d615a3639decc49afba6962ce98253f49576a5be8897dd609fa",
	"HWSG wal-00000000000000000005.seg": "111:d9b19954a236dd5561cac83f630273b787dec105cccbc22c905d7e5256ff7820",
	"HWSG wal-00000000000000000007.seg": "139:b9d05461e4b0da6ac65314738893e8475a4f8b72b3067f3cc6d2e114d0655051",
	"HWSG wal-00000000000000000009.seg": "88:36886cc9394a80940e2b309ffcd62e3fee1912292402e3a0f261b2007fd4be7b",
}

func TestFormatGoldens(t *testing.T) {
	codectest.Goldens(t, formatCases(t), formatGoldens)
}

package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hdcirc/internal/vfs"
)

// collect streams [from, ∞) into a map and returns (records, next).
func collect(t *testing.T, l *Log, from uint64) (map[uint64]string, uint64) {
	t.Helper()
	got := map[uint64]string{}
	next, err := l.StreamFrom(from, func(seq uint64, payload []byte) error {
		got[seq] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamFrom(%d): %v", from, err)
	}
	return got, next
}

// TestStreamFromAfterAppends proves StreamFrom works where Replay does
// not: on a handle that has already appended, from any starting seq.
func TestStreamFromAfterAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []uint64{1, 2, 17, n, n + 1} {
		got, next := collect(t, l, from)
		if next != n+1 {
			t.Fatalf("StreamFrom(%d) next = %d, want %d", from, next, n+1)
		}
		want := 0
		if from <= n {
			want = int(n - from + 1)
		}
		if len(got) != want {
			t.Fatalf("StreamFrom(%d) returned %d records, want %d", from, len(got), want)
		}
		for seq := from; seq <= n; seq++ {
			if got[seq] != fmt.Sprintf("record-%d", seq) {
				t.Fatalf("record %d = %q", seq, got[seq])
			}
		}
	}
	if oldest := l.OldestSeq(); oldest != 1 {
		t.Fatalf("OldestSeq = %d, want 1", oldest)
	}
}

// TestStreamFromCompacted: a suffix request below the oldest retained
// segment is ErrCompacted (the caller must re-seed from a checkpoint),
// both after TruncateBefore and after SkipTo on an empty log.
func TestStreamFromCompacted(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 30; i++ {
		if _, err := l.Append(make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateBefore(20); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestSeq()
	if oldest <= 1 || oldest > 20 {
		t.Fatalf("OldestSeq after TruncateBefore(20) = %d", oldest)
	}
	if _, err := l.StreamFrom(oldest-1, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("StreamFrom below oldest = %v, want ErrCompacted", err)
	}
	got, next := collect(t, l, oldest)
	if uint64(len(got)) != next-oldest {
		t.Fatalf("streamed %d records from %d, next %d", len(got), oldest, next)
	}

	// SkipTo on a fresh log: everything below the skip point reads as
	// compacted (a checkpoint covers it), nothing is streamable yet.
	l2, err := Open(t.TempDir(), Options{SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.SkipTo(101); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.StreamFrom(51, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("StreamFrom(51) after SkipTo(101) = %v, want ErrCompacted", err)
	}
	if got, next := collect(t, l2, 101); len(got) != 0 || next != 101 {
		t.Fatalf("StreamFrom(101) = %d records, next %d", len(got), next)
	}
}

// TestStreamFromConcurrentAppends hammers StreamFrom while an appender
// runs: every stream must observe a dense prefix [from, next) with the
// exact payload bytes — no torn frames, no gaps, no reordering.
func TestStreamFromConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const total = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= total; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 20; r++ {
		var last uint64
		next, err := l.StreamFrom(1, func(seq uint64, payload []byte) error {
			if seq != last+1 {
				return fmt.Errorf("gap: got seq %d after %d", seq, last)
			}
			if string(payload) != fmt.Sprintf("payload-%d", seq) {
				return fmt.Errorf("record %d: payload %q", seq, payload)
			}
			last = seq
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if last != next-1 {
			t.Fatalf("streamed through %d but next is %d", last, next)
		}
	}
	wg.Wait()
	if got, next := collect(t, l, 1); len(got) != total || next != total+1 {
		t.Fatalf("final stream: %d records, next %d", len(got), next)
	}
}

// countingFS counts the bytes read through files it opens for reading.
type countingFS struct {
	vfs.FS
	read atomic.Int64
}

func (c *countingFS) Open(path string) (vfs.File, error) {
	f, err := c.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, read: &c.read}, nil
}

type countingFile struct {
	vfs.File
	read *atomic.Int64
}

func (f countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read.Add(int64(n))
	return n, err
}

// TestReadsStartAtTheRequestedRecord proves StreamFrom and Replay seek
// near the first wanted record: reading only the newest one costs its
// frame plus at most markEvery-1 skipped headers, whether the segment
// holds 1 record or 1000.
func TestReadsStartAtTheRequestedRecord(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 100)
	frame := int64(recHeaderLen + len(payload))
	limit := frame + (markEvery-1)*recHeaderLen
	for _, n := range []int{1, 1000} {
		fs := &countingFS{FS: vfs.OS{}}
		dir := t.TempDir()
		l, err := Open(dir, Options{SyncEvery: -1, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := l.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if len(l.Segments()) != 1 {
			t.Fatalf("n=%d: %d segments, want 1", n, len(l.Segments()))
		}
		newest := uint64(n)
		fs.read.Store(0)
		got, _ := collect(t, l, newest)
		if len(got) != 1 {
			t.Fatalf("n=%d: streamed %d records, want 1", n, len(got))
		}
		if read := fs.read.Load(); read > limit {
			t.Errorf("n=%d: StreamFrom(newest) read %d bytes, want at most %d", n, read, limit)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l, err = Open(dir, Options{SyncEvery: -1, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		fs.read.Store(0)
		replayed := 0
		if err := l.Replay(newest, func(uint64, []byte) error { replayed++; return nil }); err != nil {
			t.Fatal(err)
		}
		if read := fs.read.Load(); replayed != 1 || read > limit {
			t.Errorf("n=%d: Replay(newest) gave %d records reading %d bytes, want 1 record and at most %d bytes", n, replayed, read, limit)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamFromEveryPosition streams from each record of segments that
// hold several marks, before and after a reopen rebuilds the index from
// the scan: every call must deliver exactly the suffix.
func TestStreamFromEveryPosition(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 2 << 10, SyncEvery: -1}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 3*markEvery+5)
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
		if len(l.Segments()) < 2 {
			t.Fatalf("%d segments, want several", len(l.Segments()))
		}
		for from := uint64(1); from <= uint64(len(want))+1; from++ {
			got, next := collect(t, l, from)
			if next != uint64(len(want))+1 || len(got) != len(want)-int(from)+1 {
				t.Fatalf("pass %d, from %d: %d records, next %d", pass, from, len(got), next)
			}
			for seq, p := range got {
				if seq < from || p != string(want[seq]) {
					t.Fatalf("pass %d, from %d: record %d = %q, want %q", pass, from, seq, p, want[seq])
				}
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

package repl

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"hdcirc/internal/httpapi"
	"hdcirc/internal/rng"
)

// TestSessionReleasesShippedPayloads checks that a frame's payload — a
// whole WAL record, i.e. a batch of hypervectors — stops being reachable
// from the session once Next has handed the frame out, both midway
// through a buffered chunk and after the chunk is drained.
func TestSessionReleasesShippedPayloads(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	srv := mustOpen(t, cfg)
	defer srv.Close()
	src := rng.New(41)
	for i := 0; i < 8; i++ {
		b := randomBatch(cfg, src)
		b.Items = append(b.Items, "item/pinned") // never an empty record
		if _, err := srv.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	source, err := NewSource(SourceConfig{Server: srv, ChunkRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stream, err := source.Stream(ctx, httpapi.ReplicateRequest{FromSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	se := stream.(*session)

	var shipped []weak.Pointer[byte]
	next := func() {
		t.Helper()
		f, err := se.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Payload) == 0 {
			t.Fatalf("frame %d carries no payload", f.Seq)
		}
		shipped = append(shipped, weak.Make(&f.Payload[0]))
	}
	requireReleased := func(when string) {
		t.Helper()
		runtime.GC()
		runtime.GC()
		for i, w := range shipped {
			if w.Value() != nil {
				t.Errorf("%s: payload of shipped frame %d still reachable from the session", when, i+1)
			}
		}
	}

	next()
	next()
	if len(se.queue) != 2 {
		t.Fatalf("queue holds %d frames after shipping 2 of a 4-record chunk", len(se.queue))
	}
	requireReleased("midway through the chunk")
	next()
	next()
	if cap(se.queue) != 0 {
		t.Errorf("drained queue keeps a backing array of %d frames", cap(se.queue))
	}
	requireReleased("after the chunk drained")
}

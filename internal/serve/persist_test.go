package serve

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestRestoreAcrossShardCounts warm-starts servers whose shard count
// differs from the saving server's. Restore routes every item by its own
// ring, so the snapshot's shard-major item order need not match the
// restoring server's. The items, prototypes and lookups must all survive,
// also when the restored server's snapshot goes back to the first shape.
func TestRestoreAcrossShardCounts(t *testing.T) {
	for _, c := range []struct{ from, to int }{{1, 3}, {4, 2}, {3, 5}} {
		src := mustServer(t, testConfig(c.from))
		var b Batch
		b.Train = randomSamples(30, 91)
		for i := 0; i < 40; i++ {
			b.Items = append(b.Items, fmt.Sprintf("item-%d", i))
		}
		saved, err := src.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := saved.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}

		dst := mustServer(t, testConfig(c.to))
		var order []int
		for i := range saved.shards {
			for _, sym := range saved.shards[i].syms {
				sh, err := dst.routeKey("item/" + sym)
				if err != nil {
					t.Fatal(err)
				}
				order = append(order, sh)
			}
		}
		if slices.IsSorted(order) {
			t.Fatalf("%d -> %d shards: the snapshot's items are already in the new shard order; the case tests nothing", c.from, c.to)
		}
		if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%d -> %d shards: %v", c.from, c.to, err)
		}
		sameContent(t, fmt.Sprintf("%d -> %d shards", c.from, c.to), saved, dst.Snapshot(), b.Items)

		back := mustServer(t, testConfig(c.from))
		if err := back.Restore(bytes.NewReader(goldenSnapshot(t, dst))); err != nil {
			t.Fatalf("%d -> %d -> %d shards: %v", c.from, c.to, c.from, err)
		}
		sameContent(t, fmt.Sprintf("%d -> %d -> %d shards", c.from, c.to, c.from), saved, back.Snapshot(), b.Items)
	}
}

// sameContent checks that got serves what want does: counters,
// prototypes, and every item's vector and lookup.
func sameContent(t *testing.T, name string, want, got *Snapshot, items []string) {
	t.Helper()
	if got.NumItems() != want.NumItems() || got.Version() != want.Version() || got.Samples() != want.Samples() {
		t.Fatalf("%s: %d items v%d/%d samples, want %d items v%d/%d samples", name,
			got.NumItems(), got.Version(), got.Samples(), want.NumItems(), want.Version(), want.Samples())
	}
	for c := 0; c < testClasses; c++ {
		if !got.ClassVector(c).Equal(want.ClassVector(c)) {
			t.Fatalf("%s: prototype %d differs", name, c)
		}
	}
	for _, sym := range items {
		wantHV, _ := want.Item(sym)
		hv, ok := got.Item(sym)
		if !ok || !hv.Equal(wantHV) {
			t.Fatalf("%s: item %q lost or changed", name, sym)
		}
		if found, _, _ := got.Lookup(hv); found != sym {
			t.Fatalf("%s: lookup of %q found %q", name, sym, found)
		}
	}
}

// TestRestoreRejectsRepeatedItems: a repeated symbol would create one item
// but count two.
func TestRestoreRejectsRepeatedItems(t *testing.T) {
	cfg := testConfig(2)
	src := mustServer(t, cfg)
	if _, err := src.ApplyBatch(Batch{Items: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	data := goldenSnapshot(t, src)
	// The stream ends in: u64 count = 1 | u32 length = 1 | "a".
	data = append(data[:len(data)-13], 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'a', 1, 0, 0, 0, 'a')
	if err := mustServer(t, cfg).Restore(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "repeated") {
		t.Fatalf("a snapshot listing one item twice: %v, want a repeated-item error", err)
	}
}

// TestCheckpointTrailingBytesAreCorrupt: bytes after the exact state under
// a valid CRC make an image this reader never writes. They are reported as
// damage, so recovery falls back to an older checkpoint.
func TestCheckpointTrailingBytesAreCorrupt(t *testing.T) {
	cfg := goldenConfigs()["small"]
	s, _ := goldenServer(t, cfg, 4)
	_, body := s.encodeCheckpoint()
	if err := loadCheckpointBytes(mustServer(t, cfg), appendCkptCRC(slices.Clone(body))); err != nil {
		t.Fatalf("the untouched image: %v", err)
	}
	err := loadCheckpointBytes(mustServer(t, cfg), appendCkptCRC(append(body, 0)))
	if !errors.Is(err, errCkptCorrupt) {
		t.Fatalf("an image with a trailing byte: %v, want errCkptCorrupt", err)
	}
}

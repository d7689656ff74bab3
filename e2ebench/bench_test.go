package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hdcirc/internal/vfs"
)

// The seams must hand back exactly what the layer they wrap returns,
// traced or not.
func TestEncoderSeamForwardsUnchanged(t *testing.T) {
	tr := newTracer()
	for _, name := range []string{"signals_read", "circ_cluster"} {
		w := workloads[name]
		enc := &tracedEncoder{inner: w.enc, t: tr}
		if enc.Fields() != w.enc.Fields() {
			t.Fatalf("%s: Fields %d, want %d", name, enc.Fields(), w.enc.Fields())
		}
		for i, q := range w.gen(1).queries[:20] {
			tr.on.Store(i%2 == 0)
			if got, want := enc.Encode(q), w.enc.Encode(q); !got.Equal(want) {
				t.Fatalf("%s query %d (tracing %v): wrapped encoder output differs", name, i, tr.on.Load())
			}
		}
	}
	if spans, _ := tr.snapshot(); len(spans) != 20 {
		t.Fatalf("recorded %d encode spans, want 20 (one per traced call)", len(spans))
	}
}

func TestHTTPSeamsForwardUnchanged(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	var sawSpan string
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawSpan = r.Header.Get(spanHeader)
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", "yes")
		w.WriteHeader(http.StatusTeapot)
		w.Write(append([]byte("echo:"), body...))
	})
	srv := httptest.NewServer(&tracedHandler{inner: inner, node: "n", t: tr})
	defer srv.Close()
	hc := newHTTPClient(tr)
	defer hc.CloseIdleConnections()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", strings.NewReader("payload"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot || resp.Header.Get("X-Echo") != "yes" || string(body) != "echo:payload" {
		t.Fatalf("got %d %q %q through the seams", resp.StatusCode, resp.Header.Get("X-Echo"), body)
	}
	if req.Header.Get(spanHeader) != "" {
		t.Fatal("the transport modified the caller's request")
	}
	spans, counters := tr.snapshot()
	var transport, handler span
	for _, s := range spans {
		switch s.Name {
		case spanTransport:
			transport = s
		case spanHandler:
			handler = s
		}
	}
	if sawSpan == "" || handler.Parent != transport.ID {
		t.Fatalf("handler span parent %d, transport span %d (header %q)", handler.Parent, transport.ID, sawSpan)
	}
	if handler.Start < transport.Start || handler.End > transport.End {
		t.Fatalf("handler span [%d,%d] not inside transport span [%d,%d]", handler.Start, handler.End, transport.Start, transport.End)
	}
	if counters["wire.req_bytes/v1/predict"] != 7 || counters["wire.resp_bytes/v1/predict"] != int64(len(body)) {
		t.Fatalf("byte counters %v", counters)
	}
}

func TestFSSeamForwardsUnchanged(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	fs := &tracedFS{FS: vfs.OS{}, node: "primary", t: tr}
	path := filepath.Join(t.TempDir(), "wal-1.seg")
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("record bytes")
	if n, err := f.Write(data); n != len(data) || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %q, %v", got, err)
	}
	spans, counters := tr.snapshot()
	if len(spans) != 1 || spans[0].Name != spanSync || counters["primary.seg_bytes"] != int64(len(data)) ||
		counters["primary.seg_read_bytes"] != int64(len(data)) {
		t.Fatalf("spans %v counters %v", spans, counters)
	}
}

// selfTolerance is how far the per-layer self times along a single-node
// read may sum from the client round trip. Each self time is a median of
// per-request differences and the serve time comes from direct calls, so
// the sum only approximates the round trip's median.
const selfTolerance = 0.15

// A short traced run of each single-node read path: the self times of
// client SDK, wire, handler, encode and serve must account for the round
// trip.
func TestSelfTimesSumToRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs served stacks")
	}
	for _, name := range []string{"signals_read", "circ_durable"} {
		res, err := run(context.Background(), options{workload: name, seed: 1, seconds: 1, trace: true, work: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d", name, res.Correct, res.Failed)
		}
		for _, m := range perLayerOrder {
			if _, ok := res.Metrics[m]; !ok {
				t.Fatalf("%s: per-layer metric %s missing", name, m)
			}
		}
		if raceEnabled {
			continue // the detector's slowdown skews the layers unevenly
		}
		rt := res.Metrics["client.roundtrip_us"].Value
		sum := selfSum(res.Metrics, workloads[name].readBatch)
		if rt <= 0 || math.Abs(sum-rt) > selfTolerance*rt {
			t.Fatalf("%s: self times sum to %.1fus, round trip %.1fus (tolerance %.0f%%)", name, sum, rt, 100*selfTolerance)
		}
	}
}

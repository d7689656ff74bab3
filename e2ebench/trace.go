package main

// Tracing for the traced run. Spans are recorded from the benchmark's own
// code, around the calls into each layer, through seams the program
// already exposes: an httpapi.Encoder wrapper, an http.Handler middleware,
// a client http.RoundTripper, a vfs.FS wrapper under the WAL, and the
// follower's replication http.Client. Nothing here is compiled into the
// program. Spans stay in memory and are written out when the run ends.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/vfs"
)

// spanHeader carries the client transport span's id to the handler
// middleware, linking a handler span to the round trip that caused it.
const spanHeader = "X-Bench-Span"

// Span names.
const (
	spanRead      = "client.read"  // one reader op as the benchmark calls it
	spanWrite     = "client.write" // one writer op
	spanTransport = "transport"    // one HTTP round trip, headers to headers
	spanHandler   = "handler"      // one handler invocation (Route says which)
	spanEncode    = "encode"       // one Encoder.Encode call
	spanSync      = "sync"         // one fsync of a WAL segment (Node says whose)
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Parent is 0 for roots and for spans whose cause the seam
// cannot see (an encode call does not carry its request).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans and counters while on. A nil *tracer is valid and
// records nothing, which is how the untraced run skips every seam.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu       sync.Mutex
	spans    []span
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]int64{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) count(name string, n int64) {
	t.mu.Lock()
	t.counters[name] += n
	t.mu.Unlock()
}

// snapshot returns copies of everything recorded so far.
func (t *tracer) snapshot() ([]span, map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		c[k] = v
	}
	return append([]span(nil), t.spans...), c
}

// writeSpans dumps every span as JSON lines.
func (t *tracer) writeSpans(path string) error {
	spans, _ := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

type spanKey struct{}

// call runs op as a root span named name; the span id rides in the
// context so the transport can name it as parent.
func (t *tracer) call(ctx context.Context, name string, op func(context.Context) error) error {
	if !t.enabled() {
		return op(ctx)
	}
	id := t.newID()
	start := t.now()
	err := op(context.WithValue(ctx, spanKey{}, id))
	t.record(span{ID: id, Name: name, Start: start, End: t.now()})
	return err
}

// ---------------------------------------------------------------------------
// Seam: httpapi.Encoder
// ---------------------------------------------------------------------------

type tracedEncoder struct {
	inner httpapi.Encoder
	t     *tracer
}

func (e *tracedEncoder) Fields() int { return e.inner.Fields() }

func (e *tracedEncoder) Encode(features []float64) *bitvec.Vector {
	if !e.t.enabled() {
		return e.inner.Encode(features)
	}
	start := e.t.now()
	v := e.inner.Encode(features)
	e.t.record(span{ID: e.t.newID(), Name: spanEncode, Start: start, End: e.t.now()})
	return v
}

// ---------------------------------------------------------------------------
// Seam: http.Handler middleware
// ---------------------------------------------------------------------------

// tracedRoutes are the unary routes the handler layer is timed on; every
// other route (streams, stats) passes through untouched.
var tracedRoutes = map[string]bool{"/v1/predict": true, "/v1/train": true, "/v1/scores": true}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

type tracedHandler struct {
	inner http.Handler
	node  string
	t     *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.enabled() || !tracedRoutes[r.URL.Path] {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	sw := &statusWriter{ResponseWriter: w}
	start := h.t.now()
	h.inner.ServeHTTP(sw, r)
	h.t.record(span{ID: h.t.newID(), Parent: parent, Name: spanHandler, Route: r.URL.Path, Node: h.node, Start: start, End: h.t.now()})
	h.t.count("httpapi.handled", 1)
	if sw.status == http.StatusTooManyRequests {
		h.t.count("httpapi.rejected", 1)
	}
}

// ---------------------------------------------------------------------------
// Seam: client transport (client.WithHTTPClient)
// ---------------------------------------------------------------------------

type tracedTransport struct {
	inner http.RoundTripper
	t     *tracer
}

// countingBody counts the bytes a caller reads from a response body.
type countingBody struct {
	io.ReadCloser
	onClose func(n int64)
	n       int64
	once    sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.onClose(b.n) })
	return b.ReadCloser.Close()
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.enabled() {
		return tt.inner.RoundTrip(req)
	}
	t := tt.t
	id := t.newID()
	parent, _ := req.Context().Value(spanKey{}).(uint64)
	route := req.URL.Path
	// A RoundTripper must not modify the caller's request.
	r2 := req.Clone(req.Context())
	r2.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := t.now()
	resp, err := tt.inner.RoundTrip(r2)
	t.record(span{ID: id, Parent: parent, Name: spanTransport, Route: route, Start: start, End: t.now()})
	if err != nil {
		return nil, err
	}
	if req.ContentLength > 0 {
		t.count("wire.req_bytes"+route, req.ContentLength)
	}
	t.count("wire.calls"+route, 1)
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func(n int64) { t.count("wire.resp_bytes"+route, n) }}
	return resp, nil
}

// newHTTPClient returns the client every benchmark connection uses: the
// SDK's default transport settings, wrapped by the tracing transport when
// tracing.
func newHTTPClient(t *tracer) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 32
	if t == nil {
		return &http.Client{Transport: tr}
	}
	return &http.Client{Transport: &tracedTransport{inner: tr, t: t}}
}

// ---------------------------------------------------------------------------
// Seam: follower replication client (repl.FollowerConfig.Client)
// ---------------------------------------------------------------------------

// shipTransport counts the replication stream bytes a follower receives.
type shipTransport struct {
	inner http.RoundTripper
	t     *tracer
}

type shipBody struct {
	io.ReadCloser
	t *tracer
}

func (b *shipBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.t.enabled() {
		b.t.count("repl.ship_bytes", int64(n))
	}
	return n, err
}

func (st *shipTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := st.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &shipBody{ReadCloser: resp.Body, t: st.t}
	return resp, nil
}

// ---------------------------------------------------------------------------
// Seam: vfs.FS under the WAL (serve.WALConfig.FS)
// ---------------------------------------------------------------------------

type tracedFS struct {
	vfs.FS
	node string
	t    *tracer
}

// fileKind classifies a durability file by name: WAL segment or checkpoint.
func fileKind(path string) string {
	switch {
	case strings.HasSuffix(path, ".seg"):
		return "seg"
	case strings.Contains(path, ".hckp"):
		return "ckpt"
	}
	return "other"
}

// Open wraps read-only opens too: the replication source streams the log
// by reading segments back.
func (fs *tracedFS) Open(path string) (vfs.File, error) {
	f, err := fs.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, kind: fileKind(path), fs: fs}, nil
}

func (fs *tracedFS) OpenFile(path string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(path, flag, perm)
	if err != nil || flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, err
	}
	kind := fileKind(path)
	if kind == "ckpt" && flag&os.O_CREATE != 0 && fs.t.enabled() {
		fs.t.count(fs.node+".ckpt_files", 1)
	}
	return &tracedFile{File: f, kind: kind, fs: fs}, nil
}

type tracedFile struct {
	vfs.File
	kind string
	fs   *tracedFS
}

func (f *tracedFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if t := f.fs.t; t.enabled() {
		t.count(f.fs.node+"."+f.kind+"_reads", 1)
		t.count(f.fs.node+"."+f.kind+"_read_bytes", int64(n))
	}
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if t := f.fs.t; t.enabled() {
		t.count(f.fs.node+"."+f.kind+"_writes", 1)
		t.count(f.fs.node+"."+f.kind+"_bytes", int64(n))
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	t := f.fs.t
	if !t.enabled() || f.kind != "seg" {
		return f.File.Sync()
	}
	start := t.now()
	err := f.File.Sync()
	t.record(span{ID: t.newID(), Name: spanSync, Node: f.fs.node, Start: start, End: t.now()})
	return err
}

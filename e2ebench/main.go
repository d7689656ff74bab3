// Command e2ebench is the repository's end-to-end benchmark. One process
// hosts a workload's served stack on loopback, drives it with one
// closed-loop reader and then one closed-loop writer, checks that every
// served answer is correct, and prints one JSON result line.
//
//	bash e2ebench/run.sh --workload circ_durable --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics with no seam installed.
// --trace 1 installs the tracing seams, runs the load with them off, on,
// and off again, and reports the per-layer metrics of the traced middle
// window plus the tracing overhead. See README.md for every metric.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hdcirc/internal/scenario"
	"hdcirc/internal/serve"
)

const (
	predictLimit = 10 * time.Millisecond
	trainLimit   = 100 * time.Millisecond
	// The stack is stood up at least minSetups times, and again until
	// setupBudget has passed (at most maxSetups times); setup_s is the
	// median, so one slow set-up does not move it.
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 3 * time.Second
	// clients is how many client goroutines run at once: the reader, then
	// the writer.
	clients = 1
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv is recorded with every result.
type runEnv struct {
	Workload       string `json:"workload"`
	Seed           uint64 `json:"seed"`
	Seconds        int    `json:"seconds"`
	Trace          bool   `json:"trace"`
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Clients        int    `json:"clients"`
	Oversubscribed bool   `json:"oversubscribed"`
	GoVersion      string `json:"go_version"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: signals_read, circ_durable or circ_cluster")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per load phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for WAL files and span dumps")
	flag.Parse()
	o.trace = trace == 1

	res, err := run(context.Background(), o)
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

// runner carries one run's state.
type runner struct {
	o  options
	w  *workload
	in *inputs
	t  *tracer
	st *stack

	written   []scenario.Row // acked writes, in ack order
	nextRow   int            // writer cursor over in.writes
	nextQuery int            // reader cursor over in.queries
}

// phaseResult is one measured load phase.
type phaseResult struct {
	reads, writes series
	elapsed       time.Duration // the whole phase
	acks          []ack
	visibleMS     []float64 // durable only: ack → follower visible
	mem           runtime.MemStats
}

// series is one kind of request's samples in a phase.
type series struct {
	ms     []float64       // latency; a failure is +Inf
	at     []time.Duration // when each request started, in the series' own time
	failed int
	span   time.Duration // the series' scheduled time, summed over its rounds
	rows   int           // rows per request
}

func (s *series) add(at time.Duration, ms float64) {
	s.at = append(s.at, at)
	s.ms = append(s.ms, ms)
}

type ack struct {
	version uint64
	at      time.Time
}

func run(ctx context.Context, o options) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	// One P for clients and servers alike. On a small shared host, two Ps
	// made the same run settle at random in a fast or a slow mode, which
	// spread the medians of short requests by 40%. Set before any server
	// exists, so every worker pool is sized to it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &runner{o: o, w: w, in: w.gen(o.seed)}
	if o.trace {
		r.t = newTracer()
	}
	envInfo := runEnv{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clients, GoVersion: runtime.Version(),
	}
	envInfo.Oversubscribed = envInfo.Clients > envInfo.NumCPU
	if envInfo.Oversubscribed {
		fmt.Fprintf(os.Stderr, "e2ebench: WARNING %d clients on %d CPUs: results are oversubscribed\n", envInfo.Clients, envInfo.NumCPU)
	}
	line, _ := json.Marshal(envInfo)
	fmt.Printf("# env %s\n", line)

	// The reference's answers on the held-out rows before any load.
	ref, err := newReference(w, r.in.train)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	want0C, want0D := predictAll(ref, w.enc, r.in.held)

	var setups []float64
	setupStart := time.Now()
	for {
		start := time.Now()
		st, err := w.build(ctx, &env{w: w, t: r.t, work: o.work})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.st = st
		if err := st.ingest(ctx, r.in.train); err != nil {
			r.teardown()
			return nil, fmt.Errorf("set-up ingest: %w", err)
		}
		if _, err := r.gateServed(ctx, want0C, want0D); err != nil {
			r.teardown()
			return &result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, fmt.Errorf("set-up gate: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if n := len(setups); n >= maxSetups || n >= minSetups && time.Since(setupStart) >= setupBudget {
			break
		}
		if err := r.teardown(); err != nil {
			return nil, err
		}
	}
	defer r.teardown()
	// Two collections: objects parked in sync.Pools survive the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	// The untraced run measures one window. The traced run splits the same
	// window into untraced, traced and untraced parts (1/4, 1/2, 1/4), so
	// drift over the run (a growing WAL segment, a warming heap) cancels
	// out of the tracing overhead and both runs take equally long.
	window := time.Duration(o.seconds) * time.Second
	var phases []*phaseResult
	var traced *phaseResult
	if !o.trace {
		p, err := r.phase(ctx, window)
		if err != nil {
			return nil, err
		}
		phases = append(phases, p)
	} else {
		for i, d := range []time.Duration{window / 4, window / 2, window / 4} {
			r.t.on.Store(i == 1)
			p, err := r.phase(ctx, d)
			r.t.on.Store(false)
			if err != nil {
				return nil, err
			}
			phases = append(phases, p)
		}
		traced = phases[1]
	}

	var direct directStats
	if o.trace {
		direct = r.measureDirect()
	}
	sh := shapeOf(r.st) // the durable gate closes the stack
	sh.readBatch = w.readBatch
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range phases {
		res.Attempted += len(p.reads.ms) + len(p.writes.ms)
		res.Failed += p.reads.failed + p.writes.failed
	}
	if err := r.finalGate(ctx, &direct); err != nil {
		res.Correct = false
		return res, fmt.Errorf("gate: %w", err)
	}

	if !o.trace {
		p := phases[0]
		res.Metrics = endToEnd(p, median(setups), heapMB)
		printReport(os.Stderr, w.name+" end-to-end", e2eOrder, res.Metrics)
		// Reported here, not as metrics: ten runs of the same code on a
		// shared host spread the medians and rates by 20-40% and the p99
		// by more, as the host's speed drifts. Each percentile needs at
		// least 10 samples beyond it in every slice: 1000 reads for p99.
		fmt.Fprintf(os.Stderr, "  predict: p50 %.4f ms, p99 %.4f ms, %.1f rows/s within %v\n",
			p.reads.sliced(quantile(0.5)), p.reads.sliced(quantile(0.99)), p.reads.sliced(withinRate(predictLimit, p.reads.rows)), predictLimit)
		fmt.Fprintf(os.Stderr, "  train: p50 %.4f ms, %.1f rows/s within %v\n",
			p.writes.sliced(quantile(0.5)), p.writes.sliced(withinRate(trainLimit, p.writes.rows)), trainLimit)
		fmt.Fprintf(os.Stderr, "  samples: %d reads (fewest in a slice %d), %d writes (fewest in a slice %d)\n",
			len(p.reads.ms), p.reads.fewest(), len(p.writes.ms), p.writes.fewest())
		if p.reads.fewest() < 1000 || p.writes.fewest() < 100 {
			fmt.Fprintln(os.Stderr, "  WARNING: too few samples in a slice for p99 reads or p90 writes")
		}
		if p.visibleMS != nil {
			fmt.Fprintf(os.Stderr, "  replica visible p50 %.3f ms, p90 %.3f ms over %d acks\n",
				percentile(p.visibleMS, 0.5), percentile(p.visibleMS, 0.9), len(p.visibleMS))
		}
		return res, nil
	}
	spans, counters := r.t.snapshot()
	res.Metrics = perLayer(sh, traced, spans, counters, direct)
	tracedP50 := percentile(traced.reads.ms, 0.5)
	untracedP50 := percentile(append(append([]float64(nil), phases[0].reads.ms...), phases[2].reads.ms...), 0.5)
	res.Metrics["trace.overhead_p50_ms"] = metric{tracedP50 - untracedP50, "ms"}
	printLayers(os.Stderr, w.name, sh, res.Metrics)
	fmt.Fprintf(os.Stderr, "  tracing overhead: predict p50 %.4f ms traced vs %.4f ms untraced (%+.4f ms)\n",
		tracedP50, untracedP50, tracedP50-untracedP50)
	spanPath := filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
	if err := r.t.writeSpans(spanPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "  %d spans written to %s\n", len(spans), spanPath)
	return res, nil
}

// teardown stops the current stack and removes its scratch files.
func (r *runner) teardown() error {
	if r.st == nil {
		return nil
	}
	err := r.st.close()
	if r.st.root != "" {
		if rmErr := os.RemoveAll(r.st.root); err == nil {
			err = rmErr
		}
	}
	r.st = nil
	return err
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

// rounds is how many times a phase alternates reader and writer. The
// host's speed drifts over tens of seconds, so each series is spread over
// the whole phase rather than measured in one stretch of it.
const rounds = 10

// phase alternates the workload's closed-loop reader (readShare of each
// round) and its closed-loop writer (the rest) for d. The two never
// overlap: on two shared CPUs a reader beside a writer measured how the
// scheduler split them, which changed from run to run by more than the
// bounds.
func (r *runner) phase(ctx context.Context, d time.Duration) (*phaseResult, error) {
	p := &phaseResult{}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var stopWatch func() []observation
	if r.st.follower != nil {
		stopWatch = watchVersions(r.st.follower)
	}
	start := time.Now()
	p.reads.rows, p.writes.rows = r.w.readBatch, r.w.writeBatch
	round := d / rounds
	readFor := time.Duration(float64(round) * r.w.readShare)
	for i := 0; i < rounds; i++ {
		r.readLoop(ctx, readFor, p)
		r.writeLoop(ctx, round-readFor, p)
	}
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&p.mem)
	p.mem.Mallocs -= before.Mallocs
	p.mem.TotalAlloc -= before.TotalAlloc
	p.mem.NumGC -= before.NumGC

	if stopWatch != nil {
		if err := waitConverged(ctx, r.st.primary, r.st.follower); err != nil {
			stopWatch()
			return nil, err
		}
		p.visibleMS = visibility(p.acks, stopWatch())
	}
	return p, nil
}

// readLoop is the single reader: one predict request of readBatch rows at
// a time for d, cycling over the queries.
func (r *runner) readLoop(ctx context.Context, d time.Duration, p *phaseResult) {
	start := time.Now()
	deadline := start.Add(d)
	qs := r.in.queries
	batch := make([][]float64, r.w.readBatch)
	for time.Now().Before(deadline) {
		for j := range batch {
			batch[j] = qs[r.nextQuery%len(qs)]
			r.nextQuery++
		}
		t0 := time.Now()
		err := r.t.call(ctx, spanRead, func(ctx context.Context) error {
			_, _, err := r.st.predict(ctx, batch)
			return err
		})
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			ms = math.Inf(1)
			p.reads.failed++
		}
		p.reads.add(p.reads.span+t0.Sub(start), ms)
	}
	p.reads.span += d
}

// writeLoop is the single writer: one acked train of writeBatch rows at a
// time for d, so ack order is apply order.
func (r *runner) writeLoop(ctx context.Context, d time.Duration, p *phaseResult) {
	start := time.Now()
	deadline := start.Add(d)
	rows := make([]scenario.Row, r.w.writeBatch)
	for time.Now().Before(deadline) {
		for j := range rows {
			rows[j] = r.in.writes[r.nextRow%len(r.in.writes)]
			r.nextRow++
		}
		t0 := time.Now()
		var v uint64
		err := r.t.call(ctx, spanWrite, func(ctx context.Context) error {
			var err error
			v, err = r.st.write(ctx, rows)
			return err
		})
		at := time.Now()
		ms := float64(at.Sub(t0)) / 1e6
		if err != nil {
			ms = math.Inf(1)
			p.writes.failed++
		} else {
			r.written = append(r.written, rows...)
			p.acks = append(p.acks, ack{version: v, at: at})
		}
		p.writes.add(p.writes.span+t0.Sub(start), ms)
	}
	p.writes.span += d
}

// observation is the follower's applied version at one instant.
type observation struct {
	at      time.Time
	version uint64
}

// watchVersions records every version the follower publishes, through its
// apply notification, until the returned stop is called.
func watchVersions(srv *serve.Server) (stop func() []observation) {
	ch, cancel := srv.SubscribeApplied()
	done := make(chan struct{})
	var obs []observation
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-ch:
				obs = append(obs, observation{time.Now(), srv.Snapshot().Version()})
			case <-done:
				return
			}
		}
	}()
	return func() []observation {
		close(done)
		wg.Wait()
		cancel()
		return obs
	}
}

// visibility pairs each ack with the first observation that shows its
// version on the follower. A version visible before its ack reached the
// writer counts as 0.
func visibility(acks []ack, obs []observation) []float64 {
	out := make([]float64, 0, len(acks))
	j := 0
	for _, a := range acks {
		for j < len(obs) && obs[j].version < a.version {
			j++
		}
		if j == len(obs) {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, math.Max(0, float64(obs[j].at.Sub(a.at))/1e6))
	}
	return out
}

// ---------------------------------------------------------------------------
// Correctness gates
// ---------------------------------------------------------------------------

// gateServed checks the served answers on the held-out rows, read through
// the reader endpoint, against the reference's: bit-identical classes and
// distances, and accuracy at or above the workload's floor. It returns the
// accuracy.
func (r *runner) gateServed(ctx context.Context, wantC []int, wantD []float64) (float64, error) {
	gotC, gotD, err := r.st.predict(ctx, features(r.in.held))
	if err != nil {
		return 0, fmt.Errorf("served predict: %w", err)
	}
	if len(gotC) != len(wantC) {
		return 0, fmt.Errorf("served %d answers for %d rows", len(gotC), len(wantC))
	}
	hits := 0
	for i := range wantC {
		if gotC[i] != wantC[i] || gotD[i] != wantD[i] {
			return 0, fmt.Errorf("held-out row %d: served (%d, %v), reference (%d, %v)", i, gotC[i], gotD[i], wantC[i], wantD[i])
		}
		if gotC[i] == r.in.held[i].Label {
			hits++
		}
	}
	acc := float64(hits) / float64(len(wantC))
	if acc < r.w.floor {
		return acc, fmt.Errorf("accuracy %.3f below floor %.2f", acc, r.w.floor)
	}
	return acc, nil
}

// finalGate replays the training split plus every acked write into a fresh
// reference and checks the served answers against it. The durable
// workload also checks follower == primary snapshot bytes and that the
// primary's WAL directory recovers every acked write. In the traced run
// the first replayed writes are applied one by one and timed, which gives
// the serve layer's apply figures.
func (r *runner) finalGate(ctx context.Context, direct *directStats) error {
	ref, err := newReference(r.w, r.in.train)
	if err != nil {
		return err
	}
	rest := r.written
	if r.o.trace {
		n := min(len(rest), applySamples)
		if direct.applyUS, direct.applyAllocs, err = timeApplies(ref, r.w.enc, rest[:n]); err != nil {
			return err
		}
		rest = rest[n:]
	}
	if err := applyRows(ref, r.w.enc, rest); err != nil {
		return err
	}
	wantC, wantD := predictAll(ref, r.w.enc, r.in.held)
	acc, err := r.gateServed(ctx, wantC, wantD)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gate: %d held-out answers bit-identical to the reference after %d acked writes, accuracy %.3f (floor %.2f)\n",
		len(wantC), len(r.written), acc, r.w.floor)
	if r.st.primary == nil {
		return nil
	}

	// Durable: the follower has converged (phase waited for it).
	var pb, fb bytes.Buffer
	if _, err := r.st.primary.Snapshot().WriteTo(&pb); err != nil {
		return err
	}
	if _, err := r.st.follower.Snapshot().WriteTo(&fb); err != nil {
		return err
	}
	if !bytes.Equal(pb.Bytes(), fb.Bytes()) {
		return fmt.Errorf("follower snapshot (v%d) differs from primary's (v%d)", r.st.follower.Snapshot().Version(), r.st.primary.Snapshot().Version())
	}
	acked := r.st.primary.Snapshot().Version()
	dir, root := r.st.primaryDir, r.st.root
	r.st.root = "" // keep the directory past close
	defer os.RemoveAll(root)
	if err := r.teardown(); err != nil {
		return fmt.Errorf("closing the stack: %w", err)
	}
	// Re-open the closed primary's directory. The process never died, so
	// the OS page cache is intact: this proves the log and checkpoints
	// recover, not that fsync reached the disk.
	cfg := r.w.cfg
	cfg.WAL = &serve.WALConfig{Dir: dir, SyncEvery: 1}
	rec, err := serve.Open(cfg)
	if err != nil {
		return fmt.Errorf("re-opening the primary's WAL: %w", err)
	}
	defer rec.Close()
	if v := rec.Snapshot().Version(); v < acked {
		return fmt.Errorf("recovered version %d, last acked %d", v, acked)
	}
	var rb bytes.Buffer
	if _, err := rec.Snapshot().WriteTo(&rb); err != nil {
		return err
	}
	if !bytes.Equal(rb.Bytes(), pb.Bytes()) {
		return errors.New("recovered snapshot differs from the primary's")
	}
	return nil
}

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

var e2eOrder = []string{
	"setup_s", "heap_mb", "predict_p90_ms", "train_p90_ms", "ok_ratio",
}

// endToEnd computes the end-to-end metrics of one phase. Each latency
// and rate is taken on each of slices equal time slices of its series and
// the median over slices is reported, so a burst of outside load that hits
// one slice does not move the figure.
func endToEnd(p *phaseResult, setupS, heapMB float64) map[string]metric {
	attempted := len(p.reads.ms) + len(p.writes.ms)
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"heap_mb":        {heapMB, "MB"},
		"predict_p90_ms": {p.reads.sliced(quantile(0.9)), "ms"},
		"train_p90_ms":   {p.writes.sliced(quantile(0.9)), "ms"},
		"ok_ratio":       {1 - float64(p.reads.failed+p.writes.failed)/float64(attempted), "ratio"},
	}
}

// slices is how many equal time slices a series is cut into.
const slices = 7

// parts cuts the samples into the time slices.
func (s *series) parts() [][]float64 {
	width := s.span / slices
	parts := make([][]float64, slices)
	for i, at := range s.at {
		k := min(int(at/width), slices-1)
		parts[k] = append(parts[k], s.ms[i])
	}
	return parts
}

// sliced applies stat to each time slice of s and returns the median.
func (s *series) sliced(stat func(ms []float64, d time.Duration) float64) float64 {
	vals := make([]float64, slices)
	for k, part := range s.parts() {
		vals[k] = stat(part, s.span/slices)
	}
	return median(vals)
}

// fewest is the smallest sample count of any slice.
func (s *series) fewest() int {
	n := len(s.ms)
	for _, part := range s.parts() {
		n = min(n, len(part))
	}
	return n
}

func quantile(q float64) func([]float64, time.Duration) float64 {
	return func(ms []float64, _ time.Duration) float64 { return percentile(ms, q) }
}

// withinRate counts the rows of requests that succeeded within limit, per
// second. A failure is +Inf, so it never meets the limit.
func withinRate(limit time.Duration, rows int) func([]float64, time.Duration) float64 {
	lim := float64(limit) / 1e6
	return func(ms []float64, d time.Duration) float64 {
		n := 0
		for _, v := range ms {
			if v <= lim {
				n++
			}
		}
		return float64(n*rows) / d.Seconds()
	}
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

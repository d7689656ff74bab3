package main

// The four workloads: their inputs, generated from the seed, and the
// served stacks they run against, assembled from the same public
// constructors cmd/hdcload's self-serve mode and cmd/hdcserve use.

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hdcirc/client"
	"hdcirc/internal/batch"
	"hdcirc/internal/bitvec"
	"hdcirc/internal/cluster"
	"hdcirc/internal/core"
	"hdcirc/internal/embed"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/repl"
	"hdcirc/internal/rng"
	"hdcirc/internal/scenario"
	"hdcirc/internal/serve"
	"hdcirc/internal/vfs"
)

// Circular-record geometry shared by the circ_* workloads: 8 angle fields,
// each quantized onto a 64-point circular basis at d=4096. The encoder is
// program configuration and stays fixed; only the data follows the seed.
const (
	circDim    = 4096
	circFields = 8
	circLevels = 64
	circSeed   = 4001
	circNoise  = 0.15 // radians of Gaussian jitter around a class's angles
	ringSeed   = 42   // cluster manifest ring seed
)

// workload is one traffic mix over one served stack: one closed-loop
// reader (predicts) for readShare of the window, then one closed-loop
// writer (trains) for the rest.
type workload struct {
	name string
	// readShare is set so that every time slice holds at least 1000 reads
	// and 100 writes at the workload's rates.
	readShare float64
	// readBatch and writeBatch are the rows per request. They are 1 where
	// a request does a millisecond or more of work. Where a single row
	// takes 0.1-0.6 ms, the host's run-to-run swing in the cost of a
	// loopback round trip (up to 0.25 ms, moving medians by up to 50%)
	// would outweigh the work, so those requests carry 8 or 16 rows
	// (a cluster row costs an encode on each shard). Durable
	// writes stay single-row: one row is one WAL record and one shipped
	// record.
	readBatch, writeBatch int
	floor                 float64 // accuracy floor on the held-out rows
	cfg                   serve.Config
	enc                   httpapi.Encoder
	gen                   func(seed uint64) *inputs
	build                 func(ctx context.Context, e *env) (*stack, error)
}

// inputs is everything the program receives, generated from the seed.
type inputs struct {
	train   []scenario.Row // ingested at set-up, in order
	held    []scenario.Row // the correctness gate's held-out rows
	queries [][]float64    // read load, cycled
	writes  []scenario.Row // write load, cycled
}

var workloads = map[string]*workload{}

func init() {
	sig, err := scenario.Build("signals")
	if err != nil {
		panic(err)
	}
	workloads["signals_read"] = &workload{
		name: "signals_read", readShare: 0.7, readBatch: 1, writeBatch: 1, floor: sig.AccuracyFloor,
		cfg: sig.ServerConfig(), enc: sig.Encoder,
		gen: func(seed uint64) *inputs {
			// The split is the scenario's own; the seed picks query and
			// write order over it.
			r := rng.Sub(seed, "e2ebench/signals")
			in := &inputs{train: sig.Train, held: sig.Test}
			for _, i := range r.Perm(len(sig.Test)) {
				in.queries = append(in.queries, sig.Test[i].Features)
			}
			for _, i := range r.Perm(len(sig.Train)) {
				in.writes = append(in.writes, sig.Train[i])
			}
			return in
		},
		build: buildSingle,
	}
	enc := newCircEncoder()
	circ := func(classes, shards int) serve.Config {
		return serve.Config{Dim: circDim, Classes: classes, Shards: shards, Seed: circSeed}
	}
	workloads["circ_durable"] = &workload{
		name: "circ_durable", readShare: 0.5, readBatch: 16, writeBatch: 1, floor: 0.95,
		cfg: circ(64, 2), enc: enc,
		gen:   func(seed uint64) *inputs { return genCirc(seed, 64, 16, 256, 4096) },
		build: buildDurable,
	}
	workloads["circ_cluster"] = &workload{
		name: "circ_cluster", readShare: 0.7, readBatch: 8, writeBatch: 8, floor: 0.95,
		cfg: circ(256, 2), enc: enc,
		gen:   func(seed uint64) *inputs { return genCirc(seed, 256, 8, 512, 4096) },
		build: buildCluster,
	}
}

// circEncoder is the circular record encoder: each angle field goes
// through the paper's circular basis and is bound to its field key.
type circEncoder struct {
	rec    *embed.RecordEncoder
	fields []embed.FieldEncoder
}

func newCircEncoder() *circEncoder {
	basis := core.Config{Kind: core.KindCircular, M: circLevels, D: circDim}.
		Build(rng.Sub(circSeed, "e2ebench/circ/basis"))
	angle := embed.NewCircularEncoder(basis, 2*math.Pi)
	fields := make([]embed.FieldEncoder, circFields)
	for i := range fields {
		fields[i] = angle
	}
	return &circEncoder{rec: embed.NewRecordEncoder(circDim, circFields, circSeed), fields: fields}
}

func (e *circEncoder) Fields() int { return circFields }

func (e *circEncoder) Encode(features []float64) *bitvec.Vector {
	return e.rec.EncodeRecord(features, e.fields)
}

// genCirc draws one angle tuple per class and samples rows around it:
// perClass training rows per class (class-interleaved, so every ingest
// batch touches many classes), then held-out and write rows of random
// classes.
func genCirc(seed uint64, classes, perClass, held, writes int) *inputs {
	r := rng.Sub(seed, "e2ebench/circ")
	protos := make([][]float64, classes)
	for c := range protos {
		protos[c] = make([]float64, circFields)
		for i := range protos[c] {
			protos[c][i] = r.Float64() * 2 * math.Pi
		}
	}
	sample := func(c int) scenario.Row {
		f := make([]float64, circFields)
		for i := range f {
			a := math.Mod(protos[c][i]+circNoise*r.NormFloat64(), 2*math.Pi)
			if a < 0 {
				a += 2 * math.Pi
			}
			f[i] = a
		}
		return scenario.Row{Label: c, Features: f}
	}
	in := &inputs{}
	for k := 0; k < perClass; k++ {
		for c := 0; c < classes; c++ {
			in.train = append(in.train, sample(c))
		}
	}
	for i := 0; i < held; i++ {
		in.held = append(in.held, sample(r.Intn(classes)))
		in.queries = append(in.queries, in.held[i].Features)
	}
	for i := 0; i < writes; i++ {
		in.writes = append(in.writes, sample(r.Intn(classes)))
	}
	return in
}

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

// env is what a stack is built from.
type env struct {
	w    *workload
	t    *tracer // nil in the untraced run: no seam is installed
	work string  // scratch directory inside the checkout
}

func (e *env) encoder() httpapi.Encoder {
	if e.t == nil {
		return e.w.enc
	}
	return &tracedEncoder{inner: e.w.enc, t: e.t}
}

func (e *env) handler(node string, h http.Handler) http.Handler {
	if e.t == nil {
		return h
	}
	return &tracedHandler{inner: h, node: node, t: e.t}
}

func (e *env) clientOpts() []client.Option {
	// Retries and the breaker would hide exactly what a benchmark must
	// see; every call reports its raw outcome.
	return []client.Option{client.WithRetry(1, 0), client.WithCircuitBreaker(0, 0), client.WithHTTPClient(newHTTPClient(e.t))}
}

// stack is one running served deployment and the benchmark's handles on it.
type stack struct {
	write   func(ctx context.Context, rows []scenario.Row) (version uint64, err error)
	predict func(ctx context.Context, queries [][]float64) ([]int, []float64, error) // reader endpoint
	ingest  func(ctx context.Context, rows []scenario.Row) error
	// readServers are the servers behind the reader endpoint, for direct
	// serve-layer calls; readScores says the handler reads raw scores.
	readServers []*serve.Server
	readScores  bool

	// Durable workload only. root holds both nodes' WAL directories and
	// outlives close, so the gate can re-open the primary's; the runner
	// removes it.
	primary, follower *serve.Server
	primaryDir, root  string

	closers []func() error // run in reverse order by close
}

func (s *stack) onClose(f func() error) { s.closers = append(s.closers, f) }

func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// listen mounts a handler on a loopback listener and registers its
// shutdown, which waits for the serve goroutine to return.
func (s *stack) listen(ln net.Listener, h http.Handler) string {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	s.onClose(func() error {
		err := hs.Close()
		wg.Wait()
		return err
	})
	return "http://" + ln.Addr().String()
}

func loopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func singleReads(s *stack, cli *client.Client) {
	s.predict = func(ctx context.Context, qs [][]float64) ([]int, []float64, error) {
		res, err := cli.Predict(ctx, qs)
		if err != nil {
			return nil, nil, err
		}
		return res.Classes, res.Distances, nil
	}
}

func singleWrites(s *stack, cli *client.Client) {
	s.write = func(ctx context.Context, rows []scenario.Row) (uint64, error) {
		ack, err := cli.Train(ctx, client.TrainRequest{Samples: samples(rows)})
		if err != nil {
			return 0, err
		}
		return ack.Version, nil
	}
	s.ingest = func(ctx context.Context, rows []scenario.Row) error {
		is, err := cli.Ingest(ctx)
		if err != nil {
			return err
		}
		for _, row := range ingestRows(rows) {
			if err := is.Send(row); err != nil {
				is.Close()
				return err
			}
		}
		ack, err := is.Close()
		if err != nil {
			return err
		}
		if ack.TotalRows != len(rows) {
			return fmt.Errorf("ingest applied %d of %d rows", ack.TotalRows, len(rows))
		}
		return nil
	}
}

func samples(rows []scenario.Row) []client.Sample {
	out := make([]client.Sample, len(rows))
	for i, row := range rows {
		out[i] = client.Sample{Label: row.Label, Features: row.Features}
	}
	return out
}

func ingestRows(rows []scenario.Row) []client.IngestRow {
	out := make([]client.IngestRow, len(rows))
	for i := range rows {
		label := rows[i].Label
		out[i] = client.IngestRow{Label: &label, Features: rows[i].Features}
	}
	return out
}

// buildSingle is one in-memory node: signals_read.
func buildSingle(ctx context.Context, e *env) (*stack, error) {
	s := &stack{}
	srv, err := serve.NewServer(e.w.cfg)
	if err != nil {
		return nil, err
	}
	api, err := httpapi.New(httpapi.Config{Server: srv, Encoder: e.encoder()})
	if err != nil {
		return nil, err
	}
	ln, err := loopback()
	if err != nil {
		return nil, err
	}
	cli, err := client.New(s.listen(ln, e.handler("primary", api)), e.clientOpts()...)
	if err != nil {
		s.close()
		return nil, err
	}
	singleReads(s, cli)
	singleWrites(s, cli)
	s.readServers = []*serve.Server{srv}
	return s, nil
}

// buildDurable is a durable primary (WAL, SyncEvery=1) shipping to one
// durable follower; writes go to the primary and reads to the follower.
func buildDurable(ctx context.Context, e *env) (*stack, error) {
	s := &stack{}
	root, err := os.MkdirTemp(e.work, "wal-")
	if err != nil {
		return nil, err
	}
	s.root = root
	open := func(node string) (*serve.Server, error) {
		cfg := e.w.cfg
		cfg.WAL = &serve.WALConfig{Dir: filepath.Join(root, node), SyncEvery: 1}
		if e.t != nil {
			cfg.WAL.FS = &tracedFS{FS: vfs.OS{}, node: node, t: e.t}
		}
		srv, err := serve.Open(cfg)
		if err != nil {
			return nil, err
		}
		s.onClose(srv.Close)
		return srv, nil
	}
	fail := func(err error) (*stack, error) {
		s.close()
		os.RemoveAll(root)
		return nil, err
	}
	primary, err := open("primary")
	if err != nil {
		return fail(err)
	}
	src, err := repl.NewSource(repl.SourceConfig{Server: primary})
	if err != nil {
		return fail(err)
	}
	papi, err := httpapi.New(httpapi.Config{Server: primary, Encoder: e.encoder(), Replication: src})
	if err != nil {
		return fail(err)
	}
	pln, err := loopback()
	if err != nil {
		return fail(err)
	}
	purl := s.listen(pln, e.handler("primary", papi))

	follower, err := open("follower")
	if err != nil {
		return fail(err)
	}
	fapi, err := httpapi.New(httpapi.Config{Server: follower, Encoder: e.encoder()})
	if err != nil {
		return fail(err)
	}
	fln, err := loopback()
	if err != nil {
		return fail(err)
	}
	furl := s.listen(fln, e.handler("follower", fapi))
	shipTr := http.DefaultTransport.(*http.Transport).Clone()
	fcfg := repl.FollowerConfig{Server: follower, PrimaryURL: purl, ReconnectMin: 10 * time.Millisecond}
	fcfg.Client = &http.Client{Transport: shipTr}
	if e.t != nil {
		fcfg.Client = &http.Client{Transport: &shipTransport{inner: shipTr, t: e.t}}
	}
	f, err := repl.StartFollower(ctx, fcfg)
	if err != nil {
		return fail(err)
	}
	// Registered after the servers, so it runs before they close.
	s.onClose(func() error {
		err := f.Close()
		shipTr.CloseIdleConnections()
		return err
	})

	pcli, err := client.New(purl, e.clientOpts()...)
	if err != nil {
		return fail(err)
	}
	fcli, err := client.New(furl, e.clientOpts()...)
	if err != nil {
		return fail(err)
	}
	singleWrites(s, pcli)
	singleReads(s, fcli)
	ingest := s.ingest
	s.ingest = func(ctx context.Context, rows []scenario.Row) error {
		if err := ingest(ctx, rows); err != nil {
			return err
		}
		return waitConverged(ctx, primary, follower)
	}
	s.readServers = []*serve.Server{follower}
	s.primary, s.follower = primary, follower
	s.primaryDir = filepath.Join(root, "primary")
	return s, nil
}

// waitConverged waits until the follower has applied the primary's
// current version.
func waitConverged(ctx context.Context, primary, follower *serve.Server) error {
	want := primary.Snapshot().Version()
	ch, cancel := follower.SubscribeApplied()
	defer cancel()
	timeout := time.NewTimer(60 * time.Second)
	defer timeout.Stop()
	for follower.Snapshot().Version() < want {
		select {
		case <-ch:
		case <-timeout.C:
			return fmt.Errorf("follower stuck at version %d, primary at %d", follower.Snapshot().Version(), want)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// buildCluster is two shard groups, each one in-process node scoped by a
// shared manifest, driven through the scatter-gather cluster client.
func buildCluster(ctx context.Context, e *env) (*stack, error) {
	s := &stack{}
	// Endpoints must exist before the manifest names them.
	man := &cluster.Manifest{Version: 1, RingSeed: ringSeed}
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := loopback()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		man.Shards = append(man.Shards, cluster.ShardEndpoints{Primary: "http://" + ln.Addr().String()})
	}
	for i, ln := range lns {
		srv, api, err := clusterNode(e, man, i)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			s.close()
			return nil, err
		}
		s.listen(ln, e.handler(fmt.Sprintf("shard%d", i), api))
		s.readServers = append(s.readServers, srv)
	}
	cc, err := client.NewClusterClient(man, e.clientOpts()...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.readScores = true
	s.predict = func(ctx context.Context, qs [][]float64) ([]int, []float64, error) {
		res, err := cc.Predict(ctx, qs)
		if err != nil {
			return nil, nil, err
		}
		return res.Classes, res.Distances, nil
	}
	s.write = func(ctx context.Context, rows []scenario.Row) (uint64, error) {
		acks, err := cc.Train(ctx, client.TrainRequest{Samples: samples(rows)})
		if err != nil {
			return 0, err
		}
		for _, row := range rows {
			if _, ok := acks[cc.ShardForClass(row.Label)]; !ok {
				return 0, fmt.Errorf("cluster train: no ack from shard %d, which owns class %d", cc.ShardForClass(row.Label), row.Label)
			}
		}
		return acks[cc.ShardForClass(rows[0].Label)].Version, nil
	}
	s.ingest = func(ctx context.Context, rows []scenario.Row) error {
		st, err := cc.Ingest(ctx)
		if err != nil {
			return err
		}
		for _, row := range ingestRows(rows) {
			if err := st.Send(row); err != nil {
				st.Close()
				return err
			}
		}
		sum, err := st.Close()
		if err != nil {
			return err
		}
		applied := 0
		for _, ack := range sum.Shards {
			applied += ack.TotalRows
		}
		if applied != len(rows) {
			return fmt.Errorf("cluster ingest applied %d of %d rows", applied, len(rows))
		}
		return nil
	}
	return s, nil
}

// clusterNode builds shard i's server and its ownership-enforcing handler.
func clusterNode(e *env, man *cluster.Manifest, i int) (*serve.Server, *httpapi.API, error) {
	node, err := cluster.NewNode(man, i)
	if err != nil {
		return nil, nil, err
	}
	srv, err := serve.NewServer(e.w.cfg)
	if err != nil {
		return nil, nil, err
	}
	api, err := httpapi.New(httpapi.Config{Server: srv, Encoder: e.encoder(), Cluster: node})
	return srv, api, err
}

// ---------------------------------------------------------------------------
// Reference
// ---------------------------------------------------------------------------

func features(rows []scenario.Row) [][]float64 {
	out := make([][]float64, len(rows))
	for i := range rows {
		out[i] = rows[i].Features
	}
	return out
}

// newReference builds the in-process sequential reference: an unsharded
// in-memory server with the workload's config, trained on rows. Snapshot
// prototypes are a pure function of the training multiset, so one batch
// gives the same snapshot as any apply interleaving of the same rows.
func newReference(w *workload, rows []scenario.Row) (*serve.Server, error) {
	srv, err := serve.NewServer(w.cfg)
	if err != nil {
		return nil, err
	}
	if err := applyRows(srv, w.enc, rows); err != nil {
		return nil, err
	}
	return srv, nil
}

func applyRows(srv *serve.Server, enc httpapi.Encoder, rows []scenario.Row) error {
	if len(rows) == 0 {
		return nil
	}
	hvs := batch.Map(srv.Pool(), features(rows), enc.Encode)
	b := serve.Batch{Train: make([]serve.Sample, len(rows))}
	for i := range rows {
		b.Train[i] = serve.Sample{Class: rows[i].Label, HV: hvs[i]}
	}
	_, err := srv.ApplyBatch(b)
	return err
}

// predictAll is the reference's answer for rows: Snapshot().Predict on
// each encoded row.
func predictAll(srv *serve.Server, enc httpapi.Encoder, rows []scenario.Row) ([]int, []float64) {
	snap := srv.Snapshot()
	hvs := batch.Map(srv.Pool(), features(rows), enc.Encode)
	return snap.PredictBatch(srv.Pool(), hvs)
}

package main

// Per-layer metrics of the traced run, and the reports printed to stderr.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/httpapi"
	"hdcirc/internal/scenario"
	"hdcirc/internal/serve"
)

const (
	// directSamples bounds the direct encoder and snapshot calls.
	directSamples = 512
	// applySamples is how many acked writes the final gate replays one by
	// one, timed, before applying the rest as one batch.
	applySamples = 32
)

// directStats are the layer figures taken by calling the layer directly on
// the workload's own inputs, outside any request.
type directStats struct {
	predictUS    float64 // median snapshot read the handler makes
	encodeAllocs float64
	applyUS      float64 // median single-row ApplyBatch
	applyAllocs  float64
}

// measureDirect times the encoder and the serve read on the query pool.
func (r *runner) measureDirect() directStats {
	qs := r.in.queries[:min(len(r.in.queries), directSamples)]
	hvs := make([]*bitvec.Vector, len(qs))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i, q := range qs {
		hvs[i] = r.w.enc.Encode(q)
	}
	runtime.ReadMemStats(&b)
	d := directStats{encodeAllocs: float64(b.Mallocs-a.Mallocs) / float64(len(qs))}
	sum := 0.0
	for _, srv := range r.st.readServers {
		snap := srv.Snapshot()
		lat := make([]float64, len(hvs))
		for i, hv := range hvs {
			t0 := time.Now()
			if r.st.readScores {
				snap.RawScores(hv)
			} else {
				snap.Predict(hv)
			}
			lat[i] = float64(time.Since(t0)) / 1e3
		}
		sum += median(lat)
	}
	d.predictUS = sum / float64(len(r.st.readServers))
	return d
}

// timeApplies applies rows one single-row batch at a time and returns the
// median time (µs) and allocations of ApplyBatch.
func timeApplies(srv *serve.Server, enc httpapi.Encoder, rows []scenario.Row) (us, allocs float64, err error) {
	if len(rows) == 0 {
		return 0, 0, nil
	}
	lat := make([]float64, len(rows))
	al := make([]float64, len(rows))
	var a, b runtime.MemStats
	for i, row := range rows {
		batch := serve.Batch{Train: []serve.Sample{{Class: row.Label, HV: enc.Encode(row.Features)}}}
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		_, err := srv.ApplyBatch(batch)
		lat[i] = float64(time.Since(t0)) / 1e3
		runtime.ReadMemStats(&b)
		if err != nil {
			return 0, 0, fmt.Errorf("reference apply: %w", err)
		}
		al[i] = float64(b.Mallocs - a.Mallocs)
	}
	return median(lat), median(al), nil
}

// shape is what the layer report needs to know about the stack.
type shape struct {
	durable   bool   // WAL and replication layers present
	cluster   bool   // scatter-gather layer present
	readRoute string // the handler route a read hits
	readBatch int    // rows per read request
}

func shapeOf(st *stack) shape {
	sh := shape{durable: st.primary != nil, cluster: st.readScores, readRoute: "/v1/predict"}
	if sh.cluster {
		sh.readRoute = "/v1/scores"
	}
	return sh
}

// perLayerOrder lists every per-layer metric, in report order.
var perLayerOrder = []string{
	"encode.us_per_call", "encode.calls_per_op", "encode.allocs_per_call", "encode.busy_share",
	"serve.predict_us", "serve.apply_us", "serve.apply_allocs",
	"httpapi.predict_us", "httpapi.train_us", "httpapi.scores_us", "httpapi.self_us", "httpapi.rejected_ratio",
	"client.roundtrip_us", "client.self_us", "wire.us", "wire.req_bytes", "wire.resp_bytes",
	"wal.fsyncs_per_batch", "wal.fsync_us", "wal.write_calls_per_batch", "wal.bytes_per_row", "wal.checkpoint_bytes",
	"repl.ship_bytes_per_record", "repl.source_reads_per_record", "repl.source_read_bytes_per_record",
	"repl.follower_fsyncs_per_record", "repl.follower_fsync_us",
	"repl.visible_p50_ms", "repl.visible_p90_ms",
	"cluster.shard_calls_per_predict", "cluster.shard_rtt_us", "cluster.slowest_shard_us", "cluster.merge_us",
	"go.allocs_per_op", "go.bytes_per_op", "go.gc_per_kop",
	"trace.overhead_p50_ms",
}

var perLayerUnits = map[string]string{
	"encode.calls_per_op": "count", "encode.allocs_per_call": "count", "encode.busy_share": "ratio",
	"serve.apply_allocs": "count", "httpapi.rejected_ratio": "ratio",
	"wire.req_bytes": "B", "wire.resp_bytes": "B",
	"wal.fsyncs_per_batch": "count", "wal.write_calls_per_batch": "count", "wal.bytes_per_row": "B", "wal.checkpoint_bytes": "B",
	"repl.ship_bytes_per_record": "B", "repl.source_reads_per_record": "count", "repl.source_read_bytes_per_record": "B",
	"repl.follower_fsyncs_per_record": "count",
	"repl.visible_p50_ms":             "ms", "repl.visible_p90_ms": "ms",
	"cluster.shard_calls_per_predict": "count",
	"go.allocs_per_op":                "count", "go.bytes_per_op": "B", "go.gc_per_kop": "count",
	"trace.overhead_p50_ms": "ms",
}

func unitOf(name string) string {
	if u, ok := perLayerUnits[name]; ok {
		return u
	}
	return "us"
}

// layerWorks says whether a metric's layer runs on a workload of shape sh.
func layerWorks(sh shape, name string) bool {
	switch {
	case strings.HasPrefix(name, "wal."), strings.HasPrefix(name, "repl."):
		return sh.durable
	case strings.HasPrefix(name, "cluster."):
		return sh.cluster
	}
	return true
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives every per-layer metric from the traced phase's spans
// and counters plus the direct calls. Metrics of a layer the workload does
// not run read 0.
func perLayer(sh shape, p *phaseResult, spans []span, counters map[string]int64, d directStats) map[string]metric {
	v := map[string]float64{}
	children := map[uint64][]span{}
	var reads, encodes, syncP, syncF []span
	handlers := map[string][]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		switch s.Name {
		case spanRead:
			reads = append(reads, s)
		case spanEncode:
			encodes = append(encodes, s)
		case spanHandler:
			handlers[s.Route] = append(handlers[s.Route], us(s.dur()))
		case spanSync:
			if s.Node == "primary" {
				syncP = append(syncP, s)
			} else {
				syncF = append(syncF, s)
			}
		}
	}
	ops := float64(len(p.reads.ms) + len(p.writes.ms))

	// encode
	encUS := make([]float64, len(encodes))
	busy := 0.0
	for i, s := range encodes {
		encUS[i] = us(s.dur())
		busy += encUS[i]
	}
	v["encode.us_per_call"] = median(encUS)
	v["encode.calls_per_op"] = ratio(float64(len(encodes)), ops)
	v["encode.allocs_per_call"] = d.encodeAllocs
	v["encode.busy_share"] = ratio(busy, us(p.elapsed)*float64(runtime.GOMAXPROCS(0)))

	// serve
	v["serve.predict_us"] = d.predictUS
	v["serve.apply_us"] = d.applyUS
	v["serve.apply_allocs"] = d.applyAllocs

	// httpapi
	v["httpapi.predict_us"] = median(handlers["/v1/predict"])
	v["httpapi.train_us"] = median(handlers["/v1/train"])
	v["httpapi.scores_us"] = median(handlers["/v1/scores"])
	if h := handlers[sh.readRoute]; len(h) > 0 {
		// Each read handler encodes readBatch records and makes as many
		// snapshot reads, one after another on the one P.
		v["httpapi.self_us"] = median(h) - float64(sh.readBatch)*(v["encode.us_per_call"]+d.predictUS)
	}
	v["httpapi.rejected_ratio"] = ratio(float64(counters["httpapi.rejected"]), float64(counters["httpapi.handled"]))

	// client, wire and cluster, over reads
	var callUS, selfUS, wireUS, rttUS, slowUS, mergeUS []float64
	transports := 0
	for _, c := range reads {
		callUS = append(callUS, us(c.dur()))
		var kids []span
		slowest := time.Duration(0)
		for _, k := range children[c.ID] {
			if k.Name != spanTransport {
				continue
			}
			kids = append(kids, k)
			rttUS = append(rttUS, us(k.dur()))
			slowest = max(slowest, k.dur())
			for _, h := range children[k.ID] {
				if h.Name == spanHandler {
					wireUS = append(wireUS, us(k.dur()-h.dur()))
				}
			}
		}
		transports += len(kids)
		selfUS = append(selfUS, us(c.dur()-covered(kids)))
		slowUS = append(slowUS, us(slowest))
		mergeUS = append(mergeUS, us(c.dur()-slowest))
	}
	v["client.roundtrip_us"] = median(callUS)
	v["client.self_us"] = median(selfUS)
	v["wire.us"] = median(wireUS)
	calls := float64(counters["wire.calls"+sh.readRoute])
	v["wire.req_bytes"] = ratio(float64(counters["wire.req_bytes"+sh.readRoute]), calls)
	v["wire.resp_bytes"] = ratio(float64(counters["wire.resp_bytes"+sh.readRoute]), calls)
	if sh.cluster {
		v["cluster.shard_calls_per_predict"] = ratio(float64(transports), float64(len(reads)))
		v["cluster.shard_rtt_us"] = median(rttUS)
		v["cluster.slowest_shard_us"] = median(slowUS)
		v["cluster.merge_us"] = median(mergeUS)
	}

	// wal and repl: one record per acked single-row write
	if sh.durable {
		batches := float64(len(p.acks))
		v["wal.fsyncs_per_batch"] = ratio(float64(len(syncP)), batches)
		v["wal.fsync_us"] = median(durationsUS(syncP))
		v["wal.write_calls_per_batch"] = ratio(float64(counters["primary.seg_writes"]), batches)
		v["wal.bytes_per_row"] = ratio(float64(counters["primary.seg_bytes"]), batches)
		v["wal.checkpoint_bytes"] = ratio(float64(counters["primary.ckpt_bytes"]), float64(counters["primary.ckpt_files"]))
		v["repl.ship_bytes_per_record"] = ratio(float64(counters["repl.ship_bytes"]), batches)
		// The source streams records by reading the primary's segments back.
		v["repl.source_reads_per_record"] = ratio(float64(counters["primary.seg_reads"]), batches)
		v["repl.source_read_bytes_per_record"] = ratio(float64(counters["primary.seg_read_bytes"]), batches)
		v["repl.follower_fsyncs_per_record"] = ratio(float64(len(syncF)), batches)
		v["repl.follower_fsync_us"] = median(durationsUS(syncF))
		v["repl.visible_p50_ms"] = percentile(p.visibleMS, 0.5)
		v["repl.visible_p90_ms"] = percentile(p.visibleMS, 0.9)
	}

	// go runtime, over the whole traced phase
	v["go.allocs_per_op"] = ratio(float64(p.mem.Mallocs), ops)
	v["go.bytes_per_op"] = ratio(float64(p.mem.TotalAlloc), ops)
	v["go.gc_per_kop"] = ratio(1000*float64(p.mem.NumGC), ops)

	out := make(map[string]metric, len(perLayerOrder))
	for _, name := range perLayerOrder {
		out[name] = metric{v[name], unitOf(name)}
	}
	return out
}

func durationsUS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = us(s.dur())
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	var total time.Duration
	var end int64
	for _, s := range sortedByStart(spans) {
		start := max(s.Start, end)
		if s.End > start {
			total += time.Duration(s.End - start)
			end = s.End
		}
	}
	return total
}

func sortedByStart(spans []span) []span {
	out := append([]span(nil), spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfSum adds the per-layer self times along a single-node read: client
// SDK, wire, handler, and encode and serve once per row of the request. It
// should come to the client round trip.
func selfSum(m map[string]metric, readBatch int) float64 {
	return m["client.self_us"].Value + m["wire.us"].Value + m["httpapi.self_us"].Value +
		float64(readBatch)*(m["encode.us_per_call"].Value+m["serve.predict_us"].Value)
}

func printReport(w io.Writer, title string, order []string, m map[string]metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, name := range order {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// printLayers prints the per-layer metrics whose layer runs on this
// workload, and the self-time sum check for single-node reads.
func printLayers(w io.Writer, name string, sh shape, m map[string]metric) {
	var order []string
	for _, n := range perLayerOrder {
		if layerWorks(sh, n) {
			order = append(order, n)
		}
	}
	printReport(w, name+" per layer (traced)", order, m)
	if !sh.cluster {
		rt := m["client.roundtrip_us"].Value
		sum := selfSum(m, sh.readBatch)
		fmt.Fprintf(w, "  self-time sum %.1f us vs client round trip %.1f us (%+.1f%%)\n", sum, rt, 100*ratio(sum-rt, rt))
	}
}

package serve

// Snapshot persistence and warm start, through internal/codec. Because a
// snapshot is immutable, saving needs no locks and can run while the
// server keeps serving reads and applying writes — the bytes describe
// exactly one published version.
//
//	stream: magic "HSRV" | u32 format | u64 version | u64 samples
//	        | u64 pairs | u8 flags | HCLS classifier section
//	        | [HREG regressor section] | u64 item count | item symbols
//
// The classifier and regressor sections are internal/model's wire
// formats, so a snapshot's model section is readable by plain
// model.ReadClassifier too. Like ReadClassifier, a warm start re-seeds
// the shard accumulators with UNIT weight — the loaded server predicts
// bit-identically to the saved snapshot, but continued refinement moves
// faster than it would have on the original accumulators (the training
// counts are not persisted). The SDM cleanup memory is rebuildable cache
// state and is intentionally not persisted.

import (
	"errors"
	"fmt"
	"io"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec"
	"hdcirc/internal/model"
)

const (
	snapshotMagic  = "HSRV"
	snapshotFormat = 1

	flagRegressor = 1 << 0

	maxItems      = 1 << 28
	maxSymbolSize = 1 << 20
)

// encode appends the snapshot as an HSRV section.
func (s *Snapshot) encode(w *codec.Writer) {
	w.Header(snapshotMagic, snapshotFormat)
	w.U64(s.version)
	w.U64(s.samples)
	w.U64(s.pairs)
	var flags uint8
	if s.reg != nil {
		flags |= flagRegressor
	}
	w.U8(flags)
	protos := make([]*bitvec.Vector, s.classes)
	for c := range protos {
		protos[c] = s.ClassVector(c)
	}
	model.EncodeClassVectors(w, protos)
	if s.reg != nil {
		model.EncodeRegressorVector(w, s.reg)
	}
	// Item symbols in shard-major creation order. Vectors are not stored:
	// they are a pure function of (seed, symbol), so a same-seed server
	// regenerates them bit-identically on load.
	var count uint64
	for i := range s.shards {
		count += uint64(len(s.shards[i].syms))
	}
	w.U64(count)
	for i := range s.shards {
		for _, sym := range s.shards[i].syms {
			w.String(sym)
		}
	}
}

// WriteTo serializes the snapshot. It is safe to call at any time,
// including while the originating server keeps serving and applying.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	cw := codec.NewWriter(nil)
	s.encode(cw)
	return cw.WriteTo(w)
}

// Restore warm-starts a FRESH server from a stream written by
// Snapshot.WriteTo: the loaded server publishes a snapshot that predicts,
// looks up and decodes bit-identically to the saved one, and can keep
// taking writes (with the unit-weight re-seeding caveat documented above).
// The server must be empty (no applied batches) and shaped compatibly
// (same dimension and class count; the item-vector seed must match the
// saving server's for lookups to agree). Its shard count and ring may
// differ: every item is routed by the restoring server's own ring.
func (s *Server) Restore(src io.Reader) error {
	return s.restore(codec.NewReader(src))
}

// restore reads an HSRV section into a fresh server; see Restore.
func (s *Server) restore(r *codec.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != 0 || s.samples != 0 || s.pairs != 0 || s.nitems != 0 {
		return errors.New("serve: Restore needs a fresh server (writes already applied)")
	}
	if s.wal != nil {
		// A durable server's state must come through its own log/checkpoint
		// recovery (Open); a side-channel restore would diverge from the log.
		return errors.New("serve: Restore on a durable server (recover through Open instead)")
	}

	r.Header(snapshotMagic, snapshotFormat)
	version, samples, pairs := r.U64(), r.U64(), r.U64()
	flags := r.U8()
	if err := r.Err(); err != nil {
		return fmt.Errorf("serve: reading snapshot header: %w", err)
	}
	// The writer sets the flag exactly when regression has trained pairs;
	// anything else would not read back to the same snapshot.
	if flags&^flagRegressor != 0 || (flags&flagRegressor != 0) != (pairs > 0) {
		return fmt.Errorf("serve: snapshot flags %#x disagree with %d pairs", flags, pairs)
	}

	protos := model.DecodeClassVectors(r)
	if err := r.Err(); err != nil {
		return fmt.Errorf("serve: reading classifier section: %w", err)
	}
	if len(protos) != s.cfg.Classes || protos[0].Dim() != s.cfg.Dim {
		return fmt.Errorf("serve: snapshot is %d classes × %d dims, server %d × %d",
			len(protos), protos[0].Dim(), s.cfg.Classes, s.cfg.Dim)
	}

	var regModel *bitvec.Vector
	if flags&flagRegressor != 0 {
		if s.reg == nil {
			return errors.New("serve: snapshot carries a regressor but the server has no label encoder")
		}
		if regModel = model.DecodeRegressorVector(r); r.Err() != nil {
			return fmt.Errorf("serve: reading regressor section: %w", r.Err())
		}
		if regModel.Dim() != s.cfg.Dim {
			return fmt.Errorf("serve: regressor dimension %d, server %d", regModel.Dim(), s.cfg.Dim)
		}
	}

	// Each symbol is routed by this server's ring, which may shard
	// differently from the saving server's. A repeated symbol would count
	// twice in nitems but create one item.
	count := r.Count(r.U64(), maxItems, 4)
	var syms []string
	var shardOf []int
	seen := make(map[string]bool)
	for i := 0; i < count && r.Err() == nil; i++ {
		sym := r.String(maxSymbolSize)
		if r.Err() != nil {
			break
		}
		if seen[sym] {
			return fmt.Errorf("serve: item %d (%q) is repeated", i, sym)
		}
		sh, err := s.routeKey("item/" + sym)
		if err != nil {
			return err
		}
		seen[sym] = true
		syms, shardOf = append(syms, sym), append(shardOf, sh)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("serve: reading item symbols: %w", err)
	}

	// Everything parsed — mutate. Seed each class's shard accumulator with
	// the loaded prototype at unit weight: no counter is zero, so the
	// deterministic re-finalize reproduces the prototype bit for bit.
	for c, v := range protos {
		sh := s.shards[s.shardOf[c]]
		sh.cls.Add(sh.local[c], v)
	}
	if regModel != nil {
		s.reg.Add(regModel, bitvec.New(s.cfg.Dim))
	}
	for i, sym := range syms {
		s.shards[shardOf[i]].items.Get(sym)
	}
	s.version = version
	s.samples = samples
	s.pairs = pairs
	s.nitems = len(syms)
	s.snap.Store(s.buildSnapshotLocked(nil, nil))
	return nil
}

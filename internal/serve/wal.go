package serve

// Durability: the write-ahead log and checkpoint layer over the snapshot
// server. Every ApplyBatch is encoded and appended to an internal/wal log
// BEFORE it mutates the master models, so an acknowledged batch survives a
// crash; recovery replays the log into a fresh server, and because
// ApplyBatch is deterministic (fixed tie vectors, single-writer ordering),
// the recovered snapshot is bit-identical to the pre-crash one.
//
// Checkpoints bound recovery cost: a checkpoint file persists the portable
// snapshot (the existing HSRV stream, which embeds the HCLS/HREG model
// wire formats) PLUS the exact training state — per-class integer
// accumulators, the regressor accumulator and the written SDM counters.
// The exact sections are what keep checkpointed recovery bit-identical:
// the HSRV stream alone re-seeds accumulators at unit weight, which
// predicts identically but would diverge once the replayed log suffix
// keeps training. Once a checkpoint at version C is durable, every log
// segment fully below C is dropped, so recovery reads one checkpoint plus
// the log suffix instead of the whole history.
//
//	checkpoint: magic "HCKP" | uint32 format | uint64 dim | uint32 classes
//	            | uint32 shards | uint8 flags | HSRV snapshot stream
//	            | per shard: uint8 hasClassifier [HCST classifier state]
//	            | [HRST regressor state] | [HSDM cleanup-memory state]
//
// Log record sequence numbers equal snapshot versions: record N is the
// batch whose application published version N.

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/codec"
	"hdcirc/internal/vfs"
	"hdcirc/internal/wal"
)

const (
	ckptMagic  = "HCKP"
	ckptFormat = 1
	ckptPrefix = "ckpt-"
	ckptExt    = ".hckp"

	flagCkptRegressor = 1 << 0
	flagCkptCleanup   = 1 << 1
)

// appendCkptCRC appends the whole-image CRC-32C trailer to an encoded
// checkpoint body, yielding the exact bytes checkpoint files (and
// replication checkpoint seeds) carry.
func appendCkptCRC(body []byte) []byte {
	w := codec.NewWriter(body)
	w.CRC()
	return w.Bytes()
}

// errCkptCorrupt marks a checkpoint whose BYTES are damaged (short file,
// CRC mismatch, foreign magic/format). Only these are set aside so
// recovery can fall back to an older checkpoint; every other load failure
// — a dimension/class/shard mismatch, a missing label encoder — means the
// server was opened with the wrong config, and destroying the recovery
// set over operator input would be unforgivable: those abort Open intact.
var errCkptCorrupt = errors.New("serve: checkpoint corrupt")

// WALConfig enables durable serving: every applied batch is written ahead
// to a segmented log in Dir and checkpoints bound recovery cost. The zero
// value of each knob selects the documented default.
type WALConfig struct {
	// Dir is the durability directory (required): log segments and
	// checkpoint files live here.
	Dir string
	// SyncEvery batches fsync: the log is synced once per SyncEvery
	// appended batches. 1 (the default) makes every acknowledged batch
	// durable before ApplyBatch returns; larger values trade the tail of a
	// machine crash for throughput; negative disables fsync (a process
	// crash still loses nothing — the OS has the bytes).
	SyncEvery int
	// SegmentBytes rotates log segments past this size; <= 0 selects 4 MiB.
	SegmentBytes int64
	// CheckpointEvery persists a checkpoint (in the background) after this
	// many applied batches, then drops fully-covered log segments; 0
	// selects 256, negative disables automatic checkpoints (Checkpoint can
	// still be called explicitly).
	CheckpointEvery int
	// KeepCheckpoints retains this many newest checkpoint files; <= 0
	// selects 2 (the newest plus one fallback).
	KeepCheckpoints int
	// FS is the filesystem the log and checkpoints live on; nil selects
	// the real one. Chaos tests hand in a vfs.FaultFS to inject storage
	// faults into the whole durability path.
	FS vfs.FS
	// RetryInterval, when > 0, arms the degraded-mode recovery probe: a
	// server that entered degraded state on a WAL fault re-tries recovery
	// every RetryInterval until it succeeds or RetryMax attempts are
	// spent. 0 (the default) disables the probe — recovery then only
	// happens through an explicit Recover call.
	RetryInterval time.Duration
	// RetryMax bounds the probe's attempts; <= 0 selects 8.
	RetryMax int
}

// fs resolves the configured filesystem (nil means the real one).
func (w WALConfig) fs() vfs.FS { return vfs.Default(w.FS) }

func (w WALConfig) retryMax() int {
	if w.RetryMax > 0 {
		return w.RetryMax
	}
	return 8
}

func (w WALConfig) checkpointEvery() int {
	switch {
	case w.CheckpointEvery > 0:
		return w.CheckpointEvery
	case w.CheckpointEvery < 0:
		return math.MaxInt
	default:
		return 256
	}
}

func (w WALConfig) keepCheckpoints() int {
	if w.KeepCheckpoints > 0 {
		return w.KeepCheckpoints
	}
	return 2
}

// Open builds a Server and, when cfg.WAL is set, makes it durable:
// existing state in cfg.WAL.Dir is recovered (newest loadable checkpoint,
// then the log suffix replayed batch by batch), and every subsequent
// ApplyBatch is written ahead to the log. With cfg.WAL == nil it is
// exactly NewServer.
func Open(cfg Config) (*Server, error) {
	if cfg.WAL == nil {
		return NewServer(cfg)
	}
	w := *cfg.WAL
	if w.Dir == "" {
		return nil, errors.New("serve: WAL config needs a directory")
	}
	fs := w.fs()
	if err := fs.MkdirAll(w.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating durability directory: %w", err)
	}
	if err := removeStaleCheckpointTmp(fs, w.Dir); err != nil {
		return nil, err
	}

	// Newest loadable checkpoint wins; unreadable ones are set aside (never
	// deleted) and the next older one is tried on a fresh server, so a
	// half-written or bit-rotted checkpoint cannot poison recovery.
	s, ckptVersion, err := loadLatestCheckpoint(cfg, fs, w.Dir)
	if err != nil {
		return nil, err
	}

	log, err := wal.Open(w.Dir, wal.Options{SegmentBytes: w.SegmentBytes, SyncEvery: w.SyncEvery, FS: w.FS})
	if err != nil {
		return nil, err
	}
	err = log.Replay(ckptVersion+1, func(seq uint64, payload []byte) error {
		var b Batch
		if err := decodeBatch(payload, s.cfg.Dim, &b); err != nil {
			return fmt.Errorf("serve: decoding log record %d: %w", seq, err)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.validate(&b); err != nil {
			return fmt.Errorf("serve: replaying log record %d: %w", seq, err)
		}
		if s.version+1 != seq {
			return fmt.Errorf("serve: log record %d cannot follow version %d (checkpoint and log disagree)", seq, s.version)
		}
		if _, err := s.applyLocked(&b); err != nil {
			return fmt.Errorf("serve: replaying log record %d: %w", seq, err)
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	// Resume numbering after a checkpoint newer than every surviving log
	// record (compaction dropped the whole suffix).
	if next := s.version + 1; log.NextSeq() < next {
		if err := log.SkipTo(next); err != nil {
			log.Close()
			return nil, err
		}
	}
	s.wal = log
	s.walCfg = w
	s.lastCkpt.Store(ckptVersion)
	return s, nil
}

// checkpointName returns the checkpoint file name for a version.
func checkpointName(version uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, version, ckptExt)
}

// removeStaleCheckpointTmp deletes ckpt-*.hckp.tmp files left behind by a
// crash mid-checkpoint. They were never renamed into place, so they hold
// no recoverable state — only the rename publishes a checkpoint — and
// each abandoned one otherwise leaks a full model image of disk forever.
func removeStaleCheckpointTmp(fs vfs.FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: reading durability directory: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptExt+".tmp") {
			continue
		}
		if err := fs.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("serve: removing stale checkpoint temp file: %w", err)
		}
	}
	return nil
}

// checkpointVersions lists checkpoint versions present in dir, descending.
func checkpointVersions(fs vfs.FS, dir string) ([]uint64, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading durability directory: %w", err)
	}
	var versions []uint64
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptExt), 10, 64)
		if err != nil {
			continue
		}
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] > versions[j] })
	return versions, nil
}

// loadLatestCheckpoint returns a server warm-started from the newest
// loadable checkpoint in dir (and that checkpoint's version), or a fresh
// empty server when none loads. Each candidate is tried on its own fresh
// server so a failed partial load never pollutes the survivor.
func loadLatestCheckpoint(cfg Config, fs vfs.FS, dir string) (*Server, uint64, error) {
	versions, err := checkpointVersions(fs, dir)
	if err != nil {
		return nil, 0, err
	}
	for _, v := range versions {
		s, err := NewServer(cfg)
		if err != nil {
			return nil, 0, err
		}
		path := filepath.Join(dir, checkpointName(v))
		switch err := loadCheckpointFile(s, fs, path); {
		case err == nil:
			return s, v, nil
		case errors.Is(err, errCkptCorrupt):
			// Damaged bytes: keep them for forensics, fall back to the
			// next older checkpoint.
			_ = fs.Rename(path, path+".corrupt")
		default:
			// Shape/config mismatch or I/O fault — not corruption. Abort
			// with the checkpoint set intact so a correctly-configured
			// retry can still recover.
			return nil, 0, err
		}
	}
	s, err := NewServer(cfg)
	return s, 0, err
}

// loadCheckpointFile restores a fresh server's exact state from one
// checkpoint file. The whole file is verified against its CRC trailer
// before a byte of it is parsed, so bit rot anywhere — even in sections
// later superseded by the exact-state ones — is detected, not absorbed.
func loadCheckpointFile(s *Server, fs vfs.FS, path string) error {
	raw, err := vfs.ReadFile(fs, path)
	if err != nil {
		return err
	}
	return loadCheckpointBytes(s, raw)
}

// loadCheckpointBytes is loadCheckpointFile over an in-memory image — the
// shape checkpoints travel in over the replication stream, where a seeding
// follower verifies and parses the primary's bytes without a file.
func loadCheckpointBytes(s *Server, raw []byte) error {
	body, err := codec.CheckCRC(raw)
	if err != nil {
		return fmt.Errorf("%w: %v", errCkptCorrupt, err)
	}
	r := codec.NewBytesReader(body)
	r.Header(ckptMagic, ckptFormat)
	d, k, shards, flags := r.U64(), r.U32(), r.U32(), r.U8()
	switch {
	case r.Err() != nil:
		return fmt.Errorf("%w: reading header: %v", errCkptCorrupt, r.Err())
	case d != uint64(s.cfg.Dim):
		return fmt.Errorf("serve: checkpoint dimension %d, server %d", d, s.cfg.Dim)
	case k != uint32(s.cfg.Classes):
		return fmt.Errorf("serve: checkpoint has %d classes, server %d", k, s.cfg.Classes)
	case shards != uint32(len(s.shards)):
		return fmt.Errorf("serve: checkpoint has %d shards, server %d", shards, len(s.shards))
	case flags&^(flagCkptRegressor|flagCkptCleanup) != 0:
		return fmt.Errorf("%w: unknown flags %#x", errCkptCorrupt, flags)
	case flags != s.ckptFlags():
		return fmt.Errorf("serve: checkpoint regressor/cleanup-memory flags %#x, server %#x", flags, s.ckptFlags())
	}

	// The portable snapshot section re-creates version, counters, item
	// symbols and (at unit weight) the prototypes...
	if err := s.restore(r); err != nil {
		return err
	}
	// ...and the exact-state sections then replace the unit-weight seeds
	// with the true accumulators, so continued training (the replayed log
	// suffix) stays bit-identical to the original sequence.
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, st := range s.shards {
		switch has := r.U8(); {
		case r.Err() != nil:
		case has == 0 && st.cls == nil:
		case has == 1 && st.cls != nil:
			st.cls.DecodeState(r)
		default:
			return fmt.Errorf("serve: checkpoint shard %d classifier presence disagrees with server layout", i)
		}
	}
	if s.reg != nil {
		s.reg.DecodeState(r)
	}
	if s.mem != nil {
		s.mem.DecodeState(r)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("serve: reading checkpoint state: %w", err)
	}
	// The CRC held, so bytes past the state were written that way: the
	// image is not one this reader writes.
	if r.End(); r.Err() != nil {
		return fmt.Errorf("%w: %v", errCkptCorrupt, r.Err())
	}
	// The snapshot section and the exact state were written from one
	// version: they must finalize to the same models.
	seeded, exact := s.snap.Load(), s.buildSnapshotLocked(nil, nil)
	if !sameModels(seeded, exact) {
		return fmt.Errorf("%w: snapshot section disagrees with the exact state", errCkptCorrupt)
	}
	s.snap.Store(exact)
	return nil
}

// ckptFlags marks which optional state sections a checkpoint of s holds.
func (s *Server) ckptFlags() uint8 {
	var flags uint8
	if s.reg != nil {
		flags |= flagCkptRegressor
	}
	if s.mem != nil {
		flags |= flagCkptCleanup
	}
	return flags
}

// sameModels reports whether two snapshots hold the same class prototypes
// and regression model.
func sameModels(a, b *Snapshot) bool {
	for c := 0; c < a.classes; c++ {
		if !a.ClassVector(c).Equal(b.ClassVector(c)) {
			return false
		}
	}
	return (a.reg == nil) == (b.reg == nil) && (a.reg == nil || a.reg.Equal(b.reg))
}

// Checkpoint persists the server's exact current state to the durability
// directory, makes it durable (write, fsync, rename, directory fsync) and
// then compacts: log segments fully covered by the checkpoint are removed
// and checkpoints beyond WALConfig.KeepCheckpoints retired. It returns the
// checkpointed version. Serialization holds the writer lock only while
// encoding to memory; the file I/O runs unlocked, so reads and writes keep
// flowing. Safe for concurrent callers (checkpoints serialize internally).
func (s *Server) Checkpoint() (uint64, error) {
	s.mu.Lock()
	durable := s.wal != nil
	s.mu.Unlock()
	if !durable {
		return 0, errors.New("serve: Checkpoint needs a durable server (Config.WAL)")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// No-op checkpoints (nothing applied since the last one, or an empty
	// server whose recovery equals a fresh start) return before the full
	// state encode — which would otherwise stall every writer on s.mu just
	// to throw the buffer away.
	s.mu.Lock()
	version := s.version
	s.mu.Unlock()
	if version == 0 || version <= s.lastCkpt.Load() {
		return version, nil
	}

	version, buf := s.encodeCheckpoint()
	buf = appendCkptCRC(buf)

	fs := s.walCfg.fs()
	if err := vfs.WriteFileAtomic(fs, filepath.Join(s.walCfg.Dir, checkpointName(version)), buf); err != nil {
		return 0, fmt.Errorf("serve: checkpoint: %w", err)
	}
	s.lastCkpt.Store(version)

	// Retire checkpoints beyond the retention count, then compact the log
	// only up to the OLDEST retained checkpoint — the fallback checkpoints
	// are worthless unless the records between them and the newest one
	// stay replayable.
	versions, err := checkpointVersions(fs, s.walCfg.Dir)
	if err != nil {
		return version, err
	}
	keep := min(len(versions), s.walCfg.keepCheckpoints())
	for _, v := range versions[keep:] {
		if err := fs.Remove(filepath.Join(s.walCfg.Dir, checkpointName(v))); err != nil {
			return version, fmt.Errorf("serve: retiring old checkpoint: %w", err)
		}
	}
	oldestRetained := versions[keep-1] // versions is non-empty: we just wrote one
	s.mu.Lock()
	log := s.wal // recovery may have swapped the handle; compact the live one
	s.mu.Unlock()
	if err := log.TruncateBefore(oldestRetained + 1); err != nil {
		return version, err
	}
	// A manual checkpoint restarts the background cadence — the next
	// automatic one should be CheckpointEvery batches from NOW.
	s.mu.Lock()
	s.sinceCkpt = 0
	s.mu.Unlock()
	return version, nil
}

// encodeCheckpoint serializes the exact server state to memory under the
// writer lock. The body lacks the CRC trailer (appendCkptCRC).
func (s *Server) encodeCheckpoint() (uint64, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()

	w := codec.NewWriter(nil)
	w.Header(ckptMagic, ckptFormat)
	w.U64(uint64(s.cfg.Dim))
	w.U32(uint32(s.cfg.Classes))
	w.U32(uint32(len(s.shards)))
	w.U8(s.ckptFlags())
	s.snap.Load().encode(w)
	for _, st := range s.shards {
		if st.cls == nil {
			w.U8(0)
			continue
		}
		w.U8(1)
		st.cls.EncodeState(w)
	}
	if s.reg != nil {
		s.reg.EncodeState(w)
	}
	if s.mem != nil {
		s.mem.EncodeState(w)
	}
	return s.version, w.Bytes()
}

// maybeCheckpointLocked spawns at most one background checkpoint once
// enough batches accumulated since the last one. Called under s.mu.
func (s *Server) maybeCheckpointLocked() {
	if s.wal == nil {
		return
	}
	s.sinceCkpt++
	if s.sinceCkpt < s.walCfg.checkpointEvery() || !s.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	s.sinceCkpt = 0
	s.ckptWG.Add(1)
	go func() {
		defer s.ckptWG.Done()
		defer s.ckptBusy.Store(false)
		if _, err := s.Checkpoint(); err != nil {
			s.errMu.Lock()
			s.ckptErr = err
			s.errMu.Unlock()
		}
	}()
}

// Close flushes and closes the durability layer: in-flight background
// checkpoints finish, the log is synced and closed, and further ApplyBatch
// calls fail. Reads stay valid (the published snapshot survives). It
// returns any background checkpoint error that would otherwise be lost.
// Closing a non-durable server just stops writes. Safe to call twice.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.stopProbe.Do(func() { close(s.probeStop) })
	s.probeWG.Wait()
	s.ckptWG.Wait()
	s.mu.Lock()
	log := s.wal // recovery may have swapped the handle
	s.mu.Unlock()
	var err error
	if log != nil {
		err = log.Close()
	}
	s.errMu.Lock()
	if err == nil && s.ckptErr != nil {
		err = fmt.Errorf("serve: background checkpoint: %w", s.ckptErr)
	}
	s.errMu.Unlock()
	return err
}

// ---------------------------------------------------------------------------
// Batch wire codec
// ---------------------------------------------------------------------------

// Batch payload framing (hypervectors are raw words, the dimension being
// fixed by the server config the log belongs to):
//
//	u32 nTrain   | nTrain   × (u32 class | words)
//	u32 nUntrain | nUntrain × (u32 class | words)
//	u32 nPairs   | nPairs   × (f64 value | words)
//	u32 nItems   | nItems   × string
//	u32 nWrites  | nWrites  × (address words | data words)
//	u8 hasRefine | [u32 epochs | u32 n | n × (u32 label | words)]

// encodeBatch serializes a validated batch for the write-ahead log.
func encodeBatch(b *Batch, d int) []byte {
	vb := 8 * ((d + 63) / 64)
	size := 21 + (len(b.Train)+len(b.Untrain))*(4+vb) + len(b.Pairs)*(8+vb) + len(b.Writes)*2*vb
	for _, sym := range b.Items {
		size += 4 + len(sym)
	}
	if b.Refine != nil {
		size += 8 + len(b.Refine.HVs)*(4+vb)
	}
	w := codec.NewWriter(make([]byte, 0, size))
	samples := func(ss []Sample) {
		w.U32(uint32(len(ss)))
		for _, smp := range ss {
			w.U32(uint32(smp.Class))
			w.Words(smp.HV.Words())
		}
	}
	samples(b.Train)
	samples(b.Untrain)
	w.U32(uint32(len(b.Pairs)))
	for _, p := range b.Pairs {
		w.F64(p.Value)
		w.Words(p.X.Words())
	}
	w.U32(uint32(len(b.Items)))
	for _, sym := range b.Items {
		w.String(sym)
	}
	w.U32(uint32(len(b.Writes)))
	for _, mw := range b.Writes {
		w.Words(mw.Address.Words())
		w.Words(mw.Data.Words())
	}
	if b.Refine == nil {
		w.U8(0)
	} else {
		w.U8(1)
		w.U32(uint32(b.Refine.Epochs))
		w.U32(uint32(len(b.Refine.HVs)))
		for i, hv := range b.Refine.HVs {
			w.U32(uint32(b.Refine.Labels[i]))
			w.Words(hv.Words())
		}
	}
	return w.Bytes()
}

// decodeBatch parses a payload produced by encodeBatch into dst. The
// payload passed its CRC, but the decoder is also the last line of defense
// against a logic bug elsewhere: every count is bounded by the bytes that
// remain.
func decodeBatch(payload []byte, d int, dst *Batch) error {
	r := codec.NewBytesReader(payload)
	nw := (d + 63) / 64
	count := func(elemBytes int) int { return r.Count(uint64(r.U32()), math.MaxUint32, elemBytes) }
	vec := func() *bitvec.Vector {
		words := r.Words(nw)
		if r.Err() != nil {
			return nil
		}
		v, err := bitvec.NewFromWords(d, words)
		r.Fail(err)
		return v
	}
	samples := func() []Sample {
		out := make([]Sample, count(4+8*nw))
		for i := range out {
			out[i].Class = int(r.U32())
			out[i].HV = vec()
		}
		return out
	}
	dst.Train = samples()
	dst.Untrain = samples()
	dst.Pairs = make([]Pair, count(8+8*nw))
	for i := range dst.Pairs {
		dst.Pairs[i].Value = r.F64()
		dst.Pairs[i].X = vec()
	}
	dst.Items = make([]string, count(4))
	for i := range dst.Items {
		dst.Items[i] = r.String(len(payload))
	}
	dst.Writes = make([]MemWrite, count(16*nw))
	for i := range dst.Writes {
		dst.Writes[i].Address = vec()
		dst.Writes[i].Data = vec()
	}
	dst.Refine = nil
	switch r.U8() {
	case 0:
	case 1:
		ref := &Refine{Epochs: int(r.U32())}
		n := count(4 + 8*nw)
		ref.HVs, ref.Labels = make([]*bitvec.Vector, n), make([]int, n)
		for i := 0; i < n; i++ {
			ref.Labels[i] = int(r.U32())
			ref.HVs[i] = vec()
		}
		dst.Refine = ref
	default:
		r.Fail(errors.New("serve: bad refine marker in batch payload"))
	}
	if r.End(); r.Err() != nil {
		return fmt.Errorf("serve: batch payload: %w", r.Err())
	}
	return nil
}

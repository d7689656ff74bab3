package repl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdcirc/internal/httpapi"
	"hdcirc/internal/serve"
	"hdcirc/internal/wal"
)

// SourceConfig parameterizes the primary-side shipper.
type SourceConfig struct {
	// Server is the durable serving core whose log is shipped (required;
	// replication needs Config.WAL).
	Server *serve.Server
	// Heartbeat is the idle cadence: a session with nothing to ship emits
	// a heartbeat frame this often so followers keep lag observable and
	// connections stay verified live. <= 0 selects 2s.
	Heartbeat time.Duration
	// ChunkRecords bounds how many records one disk read buffers per
	// session before frames start flowing. <= 0 selects 64.
	ChunkRecords int
}

func (c *SourceConfig) heartbeat() time.Duration {
	if c.Heartbeat > 0 {
		return c.Heartbeat
	}
	return 2 * time.Second
}

func (c *SourceConfig) chunkRecords() int {
	if c.ChunkRecords > 0 {
		return c.ChunkRecords
	}
	return 64
}

// Source is the primary side of WAL shipping: an
// httpapi.ReplicationSource whose sessions serve catch-up from the log,
// re-seed from checkpoints past compaction, and tail live applies via
// the server's coalesced apply notification. Constructing a Source
// registers replication stats on the server. Safe for concurrent
// sessions.
type Source struct {
	cfg SourceConfig

	mu       sync.Mutex
	sessions map[int]*session
	nextID   int
}

// NewSource validates the config and attaches the shipper to the server.
// Attaching a shipper declares the server the tier's primary: its stats
// report role "primary" from here on (a follower cannot host one —
// chained replication is not supported).
func NewSource(cfg SourceConfig) (*Source, error) {
	if cfg.Server == nil {
		return nil, errors.New("repl: SourceConfig.Server is required")
	}
	if _, durable := cfg.Server.WALOldestSeq(); !durable {
		return nil, errors.New("repl: replication needs a durable server (serve.Config.WAL)")
	}
	if cfg.Server.Role() == serve.RoleFollower {
		return nil, errors.New("repl: cannot ship from a follower (chained replication is not supported)")
	}
	if err := cfg.Server.Promote(); err != nil {
		return nil, err
	}
	s := &Source{cfg: cfg, sessions: make(map[int]*session)}
	cfg.Server.SetReplicationStatsFunc(s.stats)
	return s, nil
}

// stats summarizes the shipper for serve.Stats: live session count, the
// slowest connected follower's acked position, and the head's distance
// from it.
func (s *Source) stats() serve.ReplicationStats {
	head := s.cfg.Server.Snapshot().Version()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := serve.ReplicationStats{ConnectedFollowers: len(s.sessions)}
	first := true
	for _, sess := range s.sessions {
		if a := sess.acked.Load(); first || a < st.LastAckedSeq {
			st.LastAckedSeq = a
			first = false
		}
	}
	if !first && head > st.LastAckedSeq {
		st.FollowerLagSeq = head - st.LastAckedSeq
	}
	return st
}

// Stream opens one follower session. A from_seq ahead of the primary's
// history is rejected with stale_seq — that follower has records this
// primary never wrote (a divergence, e.g. after a botched failover), and
// only a checkpoint re-seed (reconnect with from_seq 0) can make it a
// replica of THIS history.
func (s *Source) Stream(ctx context.Context, req httpapi.ReplicateRequest) (httpapi.ReplicationStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	from := req.FromSeq
	if from == 0 {
		from = 1
	}
	if head := s.cfg.Server.Snapshot().Version(); from > head+1 {
		return nil, httpapi.Errorf(httpapi.CodeStaleSeq,
			"from_seq %d is ahead of primary head %d: follower diverged, re-seed from checkpoint", from, head)
	}
	sess := &session{src: s, from: from}
	sess.notify, sess.cancelSub = s.cfg.Server.SubscribeApplied()
	s.mu.Lock()
	sess.id = s.nextID
	s.nextID++
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	return sess, nil
}

// errChunkFull stops a log read once a session's chunk is buffered.
var errChunkFull = errors.New("repl: chunk full")

// session is one follower's shipping state. Next runs on a single
// goroutine (the handler's write loop); Ack is called concurrently from
// the handler's body reader.
type session struct {
	src       *Source
	id        int
	from      uint64 // next sequence to ship
	queue     []httpapi.ReplicateFrame
	notify    <-chan struct{}
	cancelSub func()
	acked     atomic.Uint64
	closed    atomic.Bool
}

// Ack records the follower's applied position (monotonic).
func (se *session) Ack(seq uint64) {
	for {
		cur := se.acked.Load()
		if seq <= cur || se.acked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// Close releases the session; idempotent.
func (se *session) Close() error {
	if se.closed.CompareAndSwap(false, true) {
		se.cancelSub()
		se.src.mu.Lock()
		delete(se.src.sessions, se.id)
		se.src.mu.Unlock()
	}
	return nil
}

// Next blocks until the next frame is due: a buffered record, a fresh
// chunk read from the log, a checkpoint seed when compaction passed the
// session's cursor, or a heartbeat when the primary is idle.
func (se *session) Next(ctx context.Context) (httpapi.ReplicateFrame, error) {
	for {
		if len(se.queue) > 0 {
			// Zero the popped slot and drop the drained array: a frame's
			// payload is a whole WAL record, and the backing array would
			// otherwise keep every shipped one reachable.
			f := se.queue[0]
			se.queue[0] = httpapi.ReplicateFrame{}
			se.queue = se.queue[1:]
			if len(se.queue) == 0 {
				se.queue = nil
			}
			return f, nil
		}
		if err := ctx.Err(); err != nil {
			return httpapi.ReplicateFrame{}, err
		}
		srv := se.src.cfg.Server
		head := srv.Snapshot().Version()
		n := 0
		next, err := srv.WALStreamFrom(se.from, func(seq uint64, payload []byte) error {
			// payload is a fresh per-record allocation (wal contract), so
			// retaining it frame-side is safe.
			se.queue = append(se.queue, httpapi.ReplicateFrame{
				Seq:     seq,
				Payload: payload,
				CRC:     wal.RecordCRC(seq, payload),
				HeadSeq: head,
			})
			if n++; n >= se.src.cfg.chunkRecords() {
				return errChunkFull
			}
			return nil
		})
		switch {
		case err == nil:
			se.from = next
		case errors.Is(err, errChunkFull):
			se.from = se.queue[len(se.queue)-1].Seq + 1
		case errors.Is(err, wal.ErrCompacted):
			// The suffix below the cursor is gone — seed the follower with
			// the primary's exact current state and resume past it. The
			// queue holds nothing here (compaction is checked before the
			// first record), so the seed cannot jump over buffered records.
			version, image, eerr := srv.EncodeCheckpoint()
			if eerr != nil {
				return httpapi.ReplicateFrame{}, httpapi.Errorf(httpapi.CodeStaleSeq,
					"follower needs a checkpoint seed but encoding failed: %v", eerr)
			}
			se.from = version + 1
			return httpapi.ReplicateFrame{Checkpoint: image, CheckpointVersion: version, HeadSeq: version}, nil
		default:
			return httpapi.ReplicateFrame{}, fmt.Errorf("repl: reading log from %d: %w", se.from, err)
		}
		if len(se.queue) > 0 {
			continue
		}
		// Fully caught up: sleep until an apply lands (coalesced — the
		// next loop re-reads the log for everything new) or the heartbeat
		// cadence expires.
		idle := time.NewTimer(se.src.cfg.heartbeat())
		select {
		case <-ctx.Done():
			idle.Stop()
			return httpapi.ReplicateFrame{}, ctx.Err()
		case <-se.notify:
			idle.Stop()
		case <-idle.C:
			return httpapi.ReplicateFrame{Heartbeat: true, HeadSeq: srv.Snapshot().Version()}, nil
		}
	}
}

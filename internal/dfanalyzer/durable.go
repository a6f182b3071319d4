package dfanalyzer

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/provlight/provlight/internal/wal"
)

// This file adds crash durability to Store: a write-ahead log of every
// mutating operation (registration, task ingestion), periodic snapshots
// written with the atomic temp+rename pattern, recovery-on-open that loads
// the latest snapshot and replays the WAL tail, and a persistent
// per-origin frame-deduplication table that makes redelivered spool
// frames idempotent (exactly-once ingestion across client, translator,
// and server restarts).
//
// WAL ops and snapshots are binary and versioned (codec.go); nothing on
// disk is JSON, and a store refuses a file in a format it does not know
// rather than skipping it. The HTTP API (server.go) stays JSON.
//
// A Store from NewStore stays purely in-memory; OpenStore returns a
// durable one. Both take every write through the same path under the
// commit lock (RegisterDataflowTerm, IngestFramesTerm); a durable store
// also logs each write before applying it, so replay order equals apply
// order.

// snapFile is the snapshot's file name in the data directory;
// legacySnapFile is the JSON snapshot of earlier versions, which a store
// refuses to open beside.
const (
	snapFile       = "snapshot.bin"
	legacySnapFile = "snapshot.json"
)

// StoreOptions configures a durable store.
type StoreOptions struct {
	// Dir is the data directory (created if missing): binary WAL segments
	// under "wal/" and the binary snapshot "snapshot.bin".
	Dir string
	// Sync is the WAL fsync policy (wal.SyncEach / SyncInterval / SyncOff).
	// Default SyncInterval.
	Sync wal.SyncPolicy
	// SyncInterval is the background fsync period. Default 100 ms.
	SyncInterval time.Duration
	// SnapshotEvery snapshots after this many WAL-logged operations, then
	// reclaims the WAL behind the snapshot. Default 4096; negative
	// disables periodic snapshots (the WAL grows until Snapshot is called).
	SnapshotEvery int
	// SegmentSize is the WAL segment rotation size. Default 8 MiB.
	SegmentSize int64
}

// durability is the persistent half of a durable Store.
type durability struct {
	log           *wal.Log
	snapPath      string
	snapshotEvery int

	// opsSinceSnap counts WAL appends since the last snapshot. Guarded by
	// the store's commit lock (Store.commitMu).
	opsSinceSnap int
	snapSeq      uint64 // WAL seq covered by the latest snapshot
	// opBuf is logOp's encoding scratch. Guarded by commitMu.
	opBuf []byte
}

// walOp is one logged mutation, encoded into a WAL record by appendOp.
type walOp struct {
	Kind     opKind
	Dataflow *Dataflow  // opRegister
	Frames   []FrameMsg // opFrames
	// Term/TermStart record a replication term adoption (opTerm): the new
	// term and the WAL position where it began. Logging the term makes
	// fencing survive restarts and ship to followers through the ordinary
	// replication stream (see replication.go).
	Term      uint64
	TermStart uint64
}

// FrameMsg is one decoded capture frame with its provenance identity: the
// origin topic the frame arrived on and the durable sequence number the
// spooling client stamped into it. Seq 0 means "no durable id" (a
// non-spooling client); such frames are ingested without deduplication.
type FrameMsg struct {
	Origin string     `json:"origin,omitempty"`
	Seq    uint64     `json:"seq,omitempty"`
	Tasks  []*TaskMsg `json:"tasks"`
}

// OpenStore opens a durable store in opts.Dir, recovering the latest
// snapshot plus the WAL tail. The returned store behaves exactly like an
// in-memory one, with every mutation write-ahead logged. A snapshot or
// WAL op in a format this store does not know, or a truncated one, fails
// the open with an error naming the file.
func OpenStore(opts StoreOptions) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("dfanalyzer: StoreOptions.Dir required")
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 4096
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfanalyzer: create data dir: %w", err)
	}
	legacy := filepath.Join(opts.Dir, legacySnapFile)
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("dfanalyzer: %s is a JSON snapshot, which this store no longer reads; it reads %s", legacy, snapFile)
	}
	s := NewStore()
	snapPath := filepath.Join(opts.Dir, snapFile)
	snapSeq, err := s.loadSnapshot(snapPath)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(opts.Dir, "wal"), wal.Options{
		Sync:         opts.Sync,
		SyncInterval: opts.SyncInterval,
		SegmentSize:  opts.SegmentSize,
	})
	if err != nil {
		return nil, err
	}
	// Replay the tail: every op after the snapshot point, in append order.
	err = log.Replay(snapSeq+1, func(seq uint64, payload []byte) error {
		op, err := decodeOp(payload)
		if err != nil {
			return fmt.Errorf("dfanalyzer: %s: WAL op %d: %w", log.SegmentPath(seq), seq, err)
		}
		return s.applyOp(op)
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	s.dur = &durability{
		log:           log,
		snapPath:      snapPath,
		snapshotEvery: opts.SnapshotEvery,
		snapSeq:       snapSeq,
	}
	return s, nil
}

// applyOp applies one recovered or replicated WAL operation to the
// in-memory state, including the dedup table (so recovery rebuilds exactly
// the applied set). Best effort on ingest errors: a record the live path
// accepted cannot fail replay, but quarantined-gap WALs may reference a
// dataflow whose registration was lost — those ops are skipped rather
// than fatal. Frames go through applyFrames, the live ingest path's own
// function, so the poison-frame rule (see Store.IngestFrames) and in-batch
// dedup hold identically on replay.
func (s *Store) applyOp(op *walOp) error {
	switch op.Kind {
	case opRegister:
		s.registerDataflowApply(op.Dataflow)
	case opFrames:
		_, _ = s.applyFrames(op.Frames)
	case opTerm:
		s.setTermState(op.Term, op.TermStart)
	default:
		return fmt.Errorf("dfanalyzer: unknown WAL op kind %d", op.Kind)
	}
	return nil
}

// logOp appends a mutation to the WAL (write-ahead: callers apply only
// after this returns); a no-op for in-memory stores. Callers hold
// s.commitMu.
func (s *Store) logOp(op *walOp) error {
	if s.dur == nil {
		return nil
	}
	payload, err := appendOp(s.dur.opBuf[:0], op)
	if err != nil {
		return fmt.Errorf("dfanalyzer: encode WAL op: %w", err)
	}
	s.dur.opBuf = payload
	if _, err := s.dur.log.Append(payload); err != nil {
		return err
	}
	s.dur.opsSinceSnap++
	return nil
}

// maybeSnapshotLocked snapshots when SnapshotEvery ops accumulated (never
// for in-memory stores). It must run only *after* the logged op was
// applied — a snapshot cut between log and apply would claim a WAL
// position ahead of the state it captured, silently dropping that op on
// recovery. Callers hold s.commitMu.
func (s *Store) maybeSnapshotLocked() error {
	if s.dur != nil && s.dur.snapshotEvery > 0 && s.dur.opsSinceSnap >= s.dur.snapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			return fmt.Errorf("dfanalyzer: periodic snapshot: %w", err)
		}
	}
	return nil
}

// Snapshot writes a point-in-time snapshot (atomic temp+rename) and
// reclaims the WAL behind it. No-op for in-memory stores.
func (s *Store) Snapshot() error {
	if s.dur == nil {
		return nil
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.snapshotLocked()
}

// Close syncs the WAL and releases the durable resources; the store
// remains readable. No-op for in-memory stores.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.dur.log.Close()
}

// snapshotLocked streams the store into the snapshot file atomically.
// Callers hold s.commitMu, which excludes every durable mutation, so the
// cut is consistent with the WAL position.
func (s *Store) snapshotLocked() error {
	walSeq := s.dur.log.LastSeq()
	if err := wal.WriteFileAtomic(s.dur.snapPath, func(w io.Writer) error {
		return s.writeSnapshot(w, walSeq)
	}); err != nil {
		return err
	}
	s.dur.snapSeq = walSeq
	s.dur.opsSinceSnap = 0
	// The snapshot covers everything up to walSeq; older WAL segments are
	// dead weight now.
	return s.dur.log.TruncateFront(walSeq)
}

// loadSnapshot restores the store from the latest snapshot, returning the
// WAL sequence it covers (0 when no snapshot exists).
func (s *Store) loadSnapshot(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("dfanalyzer: read snapshot: %w", err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return 0, fmt.Errorf("dfanalyzer: snapshot %s: %w", path, err)
	}
	s.install(snap)
	return snap.walSeq, nil
}

// install replaces the in-memory state with a decoded snapshot's
// (recovery-on-open, and InstallSnapshot on a bootstrapping follower).
// Callers hold s.commitMu or own the store.
func (s *Store) install(snap *snapshot) {
	s.mu.Lock()
	s.shards = snap.shards
	s.mu.Unlock()
	s.dedup = snap.dedup
	s.setTermState(snap.term, snap.termStart)
}

// ---- frame deduplication ----

// dedupTable tracks, per origin topic, which durable frame ids have been
// applied: a floor (everything at or below it applied) plus a sparse set
// above it, mirroring the spool's ack bookkeeping on the client side.
type dedupTable struct {
	origins map[string]*originState
}

type originState struct {
	floor uint64
	seen  map[uint64]struct{}
}

func newDedupTable() *dedupTable {
	return &dedupTable{origins: map[string]*originState{}}
}

// mark records (origin, seq) as applied, reporting false when it already
// was (the duplicate-detection hit). Callers serialize access (the
// store's commit lock, or recovery's single goroutine).
func (d *dedupTable) mark(origin string, seq uint64) bool {
	st, ok := d.origins[origin]
	if !ok {
		st = &originState{seen: map[uint64]struct{}{}}
		d.origins[origin] = st
	}
	if seq <= st.floor {
		return false
	}
	if _, dup := st.seen[seq]; dup {
		return false
	}
	st.seen[seq] = struct{}{}
	for {
		if _, ok := st.seen[st.floor+1]; !ok {
			break
		}
		delete(st.seen, st.floor+1)
		st.floor++
	}
	return true
}

func (d *dedupTable) applied(origin string, seq uint64) bool {
	st, ok := d.origins[origin]
	if !ok {
		return false
	}
	if seq <= st.floor {
		return true
	}
	_, dup := st.seen[seq]
	return dup
}

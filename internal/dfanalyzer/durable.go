package dfanalyzer

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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
// A Store from NewStore stays purely in-memory (the historical behaviour,
// zero overhead); OpenStore returns a durable one. The ingestion fast
// path is unchanged for in-memory stores; durable stores serialize
// mutations through the WAL so that replay order equals apply order.

// StoreOptions configures a durable store.
type StoreOptions struct {
	// Dir is the data directory (created if missing): WAL segments under
	// "wal/", snapshots as "snapshot.json".
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
}

// walOp is one logged mutation, JSON-encoded into a WAL record.
type walOp struct {
	Op       string     `json:"op"` // "register" | "ingest" | "frames" | "term"
	Dataflow *Dataflow  `json:"dataflow,omitempty"`
	Tasks    []*TaskMsg `json:"tasks,omitempty"`
	Frames   []FrameMsg `json:"frames,omitempty"`
	// Term/TermStart record a replication term adoption (Op == "term"):
	// the new term and the WAL position where it began. Logging the term
	// makes fencing survive restarts and ship to followers through the
	// ordinary replication stream (see replication.go).
	Term      uint64 `json:"term,omitempty"`
	TermStart uint64 `json:"term_start,omitempty"`
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
// in-memory one, with every mutation write-ahead logged.
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
	s := NewStore()
	s.dedup = newDedupTable()
	snapPath := filepath.Join(opts.Dir, "snapshot.json")
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
		var op walOp
		if err := json.Unmarshal(payload, &op); err != nil {
			return fmt.Errorf("dfanalyzer: corrupt WAL op at seq %d: %w", seq, err)
		}
		return s.applyOp(&op)
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

// applyOp applies one recovered WAL operation to the in-memory state,
// including the dedup table (so recovery rebuilds exactly the applied
// set). Best effort on ingest errors: a record the live path accepted
// cannot fail replay, but quarantined-gap WALs may reference a dataflow
// whose registration was lost — those ops are skipped rather than fatal.
// Frames go through applyFrames, the live ingest path's own function, so
// the poison-frame rule (see Store.IngestFrames) and in-batch dedup hold
// identically on replay.
func (s *Store) applyOp(op *walOp) error {
	switch op.Op {
	case "register":
		if op.Dataflow == nil {
			return nil
		}
		return s.registerDataflowApply(op.Dataflow)
	case "ingest":
		_ = s.ingestTasksApply(op.Tasks)
		return nil
	case "frames":
		_, _ = s.applyFrames(op.Frames)
		return nil
	case "term":
		s.setTermState(op.Term, op.TermStart)
		return nil
	default:
		return fmt.Errorf("dfanalyzer: unknown WAL op %q", op.Op)
	}
}

// logOp appends a mutation to the WAL (write-ahead: callers apply only
// after this returns). Callers hold s.commitMu.
func (s *Store) logOp(op *walOp) error {
	payload, err := json.Marshal(op)
	if err != nil {
		return fmt.Errorf("dfanalyzer: encode WAL op: %w", err)
	}
	if _, err := s.dur.log.Append(payload); err != nil {
		return err
	}
	s.dur.opsSinceSnap++
	return nil
}

// maybeSnapshotLocked snapshots when SnapshotEvery ops accumulated. It
// must run only *after* the logged op was applied — a snapshot cut
// between log and apply would claim a WAL position ahead of the state it
// captured, silently dropping that op on recovery. Callers hold
// s.commitMu.
func (s *Store) maybeSnapshotLocked() error {
	if s.dur.snapshotEvery > 0 && s.dur.opsSinceSnap >= s.dur.snapshotEvery {
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

// ---- snapshot format ----

// snapFile is the on-disk snapshot document.
type snapFile struct {
	// WalSeq is the WAL sequence number the snapshot covers: recovery
	// replays strictly after it.
	WalSeq uint64                `json:"wal_seq"`
	Dedup  map[string]originSnap `json:"dedup,omitempty"`
	Shards map[string]shardSnap  `json:"shards"`
	// Term/TermStart carry the replication term the snapshot was cut
	// under, so fencing state survives WAL truncation behind the snapshot.
	Term      uint64 `json:"term,omitempty"`
	TermStart uint64 `json:"term_start,omitempty"`
}

type shardSnap struct {
	Spec   *Dataflow            `json:"spec,omitempty"`
	Tasks  []*TaskMsg           `json:"tasks,omitempty"` // in taskOrder
	Tables map[string]tableSnap `json:"tables,omitempty"`
}

type tableSnap struct {
	Schema  SetSchema `json:"schema"`
	TaskIDs []string  `json:"task_ids,omitempty"`
	Cols    []colSnap `json:"cols,omitempty"`
}

type colSnap struct {
	Name string    `json:"name"`
	Type AttrType  `json:"type"`
	Nums []float64 `json:"nums,omitempty"`
	Strs []string  `json:"strs,omitempty"`
}

// snapshotLocked marshals the whole store under its shard locks and
// writes it atomically. Callers hold s.commitMu, which excludes every
// durable mutation, so the cut is consistent with the WAL position.
func (s *Store) snapshotLocked() error {
	snap := snapFile{
		WalSeq:    s.dur.log.LastSeq(),
		Dedup:     s.dedup.snapshot(),
		Shards:    map[string]shardSnap{},
		Term:      s.repl.term.Load(),
		TermStart: s.repl.termStart.Load(),
	}
	s.mu.RLock()
	tags := make([]string, 0, len(s.shards))
	for tag := range s.shards {
		tags = append(tags, tag)
	}
	s.mu.RUnlock()
	sort.Strings(tags)
	for _, tag := range tags {
		sh := s.shard(tag)
		if sh == nil {
			continue
		}
		sh.mu.RLock()
		ss := shardSnap{Spec: sh.spec, Tables: map[string]tableSnap{}}
		for _, id := range sh.taskOrder {
			cp := *sh.tasks[id]
			cp.Dependencies = append([]string(nil), cp.Dependencies...)
			ss.Tasks = append(ss.Tasks, &cp)
		}
		for setTag, table := range sh.tables {
			ts := tableSnap{Schema: table.Schema, TaskIDs: append([]string(nil), table.taskIDs...)}
			for i := range table.cols {
				c := &table.cols[i]
				ts.Cols = append(ts.Cols, colSnap{
					Name: c.name, Type: c.typ,
					Nums: append([]float64(nil), c.nums...),
					Strs: append([]string(nil), c.strs...),
				})
			}
			ss.Tables[setTag] = ts
		}
		sh.mu.RUnlock()
		snap.Shards[tag] = ss
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(s.dur.snapPath, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return err
	}
	s.dur.snapSeq = snap.WalSeq
	s.dur.opsSinceSnap = 0
	// The snapshot covers everything up to WalSeq; older WAL segments are
	// dead weight now.
	return s.dur.log.TruncateFront(snap.WalSeq)
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
	var snap snapFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("dfanalyzer: corrupt snapshot %s: %w", path, err)
	}
	s.installSnapshotState(&snap)
	return snap.WalSeq, nil
}

// installSnapshotState loads a parsed snapshot into the in-memory state
// (recovery-on-open, and InstallSnapshot on a bootstrapping follower).
func (s *Store) installSnapshotState(snap *snapFile) {
	s.dedup.restore(snap.Dedup)
	s.setTermState(snap.Term, snap.TermStart)
	for tag, ss := range snap.Shards {
		sh := s.ensureShard(tag)
		sh.mu.Lock()
		sh.spec = ss.Spec
		for setTag, ts := range ss.Tables {
			table := &Table{
				Schema:  ts.Schema,
				taskIDs: ts.TaskIDs,
				rows:    len(ts.TaskIDs),
				cols:    make([]column, len(ts.Cols)),
			}
			for i, cs := range ts.Cols {
				table.cols[i] = column{name: cs.Name, typ: cs.Type, nums: cs.Nums, strs: cs.Strs}
				// JSON round trips nil and empty slices loosely; rows is
				// authoritative via taskIDs.
			}
			sh.tables[setTag] = table
		}
		for _, task := range ss.Tasks {
			sh.tasks[task.ID] = task
			sh.taskOrder = append(sh.taskOrder, task.ID)
		}
		sh.mu.Unlock()
	}
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

type originSnap struct {
	Floor uint64   `json:"floor"`
	Seen  []uint64 `json:"seen,omitempty"`
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

func (d *dedupTable) snapshot() map[string]originSnap {
	if d == nil || len(d.origins) == 0 {
		return nil
	}
	out := make(map[string]originSnap, len(d.origins))
	for origin, st := range d.origins {
		seen := make([]uint64, 0, len(st.seen))
		for s := range st.seen {
			seen = append(seen, s)
		}
		sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		out[origin] = originSnap{Floor: st.floor, Seen: seen}
	}
	return out
}

func (d *dedupTable) restore(snap map[string]originSnap) {
	for origin, os := range snap {
		st := &originState{floor: os.Floor, seen: map[uint64]struct{}{}}
		for _, s := range os.Seen {
			st.seen[s] = struct{}{}
		}
		d.origins[origin] = st
	}
}

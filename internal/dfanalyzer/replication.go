package dfanalyzer

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"github.com/provlight/provlight/internal/wal"
)

// This file is the store side of WAL-shipping replication (internal/
// replica drives the wire protocol): role and term state, the fenced
// write guard, the follower apply path that mirrors the primary's WAL
// byte for byte, and snapshot install/export for follower bootstrap.
//
// The fencing model is a single monotonic *term*, Raft-style but without
// elections — promotion is an explicit operator (or harness) action:
//
//   - every store has a current term, persisted as a WAL record and in
//     snapshots, so it survives restarts and ships to followers through
//     the ordinary replication stream;
//   - promotion bumps the term by one and records the WAL position where
//     the new term began (TermStart);
//   - nothing sets a writer's term: every write answer names the term
//     the store committed (or refused) it under, and writers (Client,
//     translators) stamp the highest term any answer carried. The store
//     rejects a stamped term that is not its own, so a writer that has
//     seen a promotion cannot write to the deposed primary, and the acks
//     a translator sends carry the term its batch was committed under,
//     which a device that saw a newer term drops;
//   - a rejoining follower whose WAL extends past the promotion point of
//     a newer term has *diverged* (its tail was never replicated and the
//     new lineage wrote different records there); the primary refuses it
//     until its data directory is reset.

// Role is a store's replication role.
type Role int32

const (
	// RoleStandalone is the default: a single-node store, no fencing.
	RoleStandalone Role = iota
	// RolePrimary accepts writes and ships its WAL to followers.
	RolePrimary
	// RoleReplica replays a primary's WAL and serves reads; every
	// external write path is rejected with ErrNotPrimary.
	RoleReplica
)

// String returns "standalone", "primary", or "replica".
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	default:
		return "standalone"
	}
}

// Errors of the fenced write path. Match with errors.Is.
var (
	// ErrNotPrimary reports a write sent to a read replica.
	ErrNotPrimary = errors.New("dfanalyzer: store is a read replica, not the primary")
	// ErrStaleTerm reports a write whose replication term does not match
	// the store's current term (a deposed primary, or a writer that has
	// not yet learned of a promotion).
	ErrStaleTerm = errors.New("dfanalyzer: replication term mismatch")
	// ErrUncommitted reports a write applied on the primary but not
	// replicated to enough followers before the commit wait gave up (see
	// Store.SetCommitWait). A retry is safe: dedup absorbs it.
	ErrUncommitted = errors.New("dfanalyzer: write not replicated to enough followers")
	// ErrDiverged reports a follower whose WAL is not a prefix of the
	// primary's lineage; its data directory must be reset before it can
	// follow again.
	ErrDiverged = errors.New("dfanalyzer: follower log diverged from primary lineage")
)

// replState is the atomically-readable replication state of a Store.
// Mutations happen under the store's commitMu; reads (the write guard,
// stats) are lock-free.
type replState struct {
	role      atomic.Int32
	term      atomic.Uint64
	termStart atomic.Uint64 // WAL seq at which the current term began
	// applied is the replica apply cursor: the highest replicated WAL
	// sequence whose in-memory effects are visible to queries. It trails
	// the WAL tail inside a batched apply (records are logged in one write
	// before their ops run), which is exactly why it exists — "caught up"
	// for read routing and follower acks must mean applied, not just
	// logged. Set to the WAL tail by BeginFollowing; see Store.AppliedSeq.
	applied atomic.Uint64
}

// Role returns the store's replication role.
func (s *Store) Role() Role { return Role(s.repl.role.Load()) }

// CurrentTerm returns the store's replication term (0 until a term is
// adopted — the unfenced single-node state).
func (s *Store) CurrentTerm() uint64 { return s.repl.term.Load() }

// TermStartSeq returns the WAL sequence number at which the current term
// began (the promotion point; 0 for term 0).
func (s *Store) TermStartSeq() uint64 { return s.repl.termStart.Load() }

// checkWriteTerm is the fenced write guard: it rejects writes to a read
// replica, and — when the writer stamped a non-zero term — writes whose
// term does not match the store's. Term 0 writers (legacy, single-node)
// pass the term check unconditionally. It returns the store's term either
// way, which the write's answer carries back to the writer. A write
// path's verdict is the one it reaches under commitMu, which every role
// and term change takes.
func (s *Store) checkWriteTerm(term uint64) (uint64, error) {
	cur := s.repl.term.Load()
	if s.Role() == RoleReplica {
		return cur, ErrNotPrimary
	}
	if term != 0 && term != cur {
		return cur, fmt.Errorf("%w: writer term %d, store term %d", ErrStaleTerm, term, cur)
	}
	return cur, nil
}

// AdoptTerm raises the store's term to term, write-ahead logging the
// change on durable stores so it survives restarts and replicates to
// followers. Adopting a term at or below the current one is a no-op
// (terms are monotonic). The store's role is unchanged.
func (s *Store) AdoptTerm(term uint64) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.adoptTermLocked(term)
}

func (s *Store) adoptTermLocked(term uint64) error {
	if term <= s.repl.term.Load() {
		return nil
	}
	start := uint64(0)
	if s.dur != nil {
		_, err := s.dur.log.AppendWith(func(seq uint64) ([]byte, error) {
			start = seq
			return appendOp(nil, &walOp{Kind: opTerm, Term: term, TermStart: seq})
		})
		if err != nil {
			return fmt.Errorf("dfanalyzer: log term record: %w", err)
		}
		s.dur.opsSinceSnap++
	}
	s.setTermState(term, start)
	return nil
}

// setTermState installs a term transition (live adoption, WAL replay, or
// snapshot restore).
func (s *Store) setTermState(term, start uint64) {
	s.repl.term.Store(term)
	s.repl.termStart.Store(start)
}

// Promote makes the store the primary of a new term: term+1 is adopted
// (and WAL-logged, marking the promotion point) and the role flips to
// primary. Returns the new term. The caller must have stopped any
// replication stream into this store first (replica.Follower.Promote
// handles the ordering).
func (s *Store) Promote() (uint64, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	next := s.repl.term.Load() + 1
	if err := s.adoptTermLocked(next); err != nil {
		return 0, err
	}
	s.repl.role.Store(int32(RolePrimary))
	return next, nil
}

// BecomePrimary marks the store primary without changing its term,
// adopting term 1 if no term was ever adopted (the fresh-cluster case).
func (s *Store) BecomePrimary() error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.repl.term.Load() == 0 {
		if err := s.adoptTermLocked(1); err != nil {
			return err
		}
	}
	s.repl.role.Store(int32(RolePrimary))
	return nil
}

// BeginFollowing marks the store a read replica: every external write
// path is rejected with ErrNotPrimary until Promote. Recovery has applied
// everything the WAL retains, so the apply cursor starts at its tail.
func (s *Store) BeginFollowing() {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	_, last := s.WALSeqs()
	s.repl.applied.Store(last)
	s.repl.role.Store(int32(RoleReplica))
}

// ReplicationWAL exposes the store's write-ahead log for WAL shipping
// (nil for an in-memory store, which cannot replicate).
func (s *Store) ReplicationWAL() *wal.Log {
	if s.dur == nil {
		return nil
	}
	return s.dur.log
}

// WALSeqs returns the store's retained WAL bounds (0, 0 when in-memory
// or empty). On a follower, last is the last replicated-and-applied
// sequence number, the resumable offset.
func (s *Store) WALSeqs() (first, last uint64) {
	if s.dur == nil {
		return 0, 0
	}
	return s.dur.log.FirstSeq(), s.dur.log.LastSeq()
}

// AppliedSeq returns the highest WAL sequence whose effects are visible
// to queries on this store. On a replica it is the apply cursor, which
// trails the WAL tail while a replicated batch is logged but not yet
// applied; elsewhere it is the WAL tail.
func (s *Store) AppliedSeq() uint64 {
	if s.Role() == RoleReplica {
		return s.repl.applied.Load()
	}
	_, last := s.WALSeqs()
	return last
}

// SnapshotSeq returns the WAL sequence covered by the latest on-disk
// snapshot (0 when none has been taken).
func (s *Store) SnapshotSeq() uint64 {
	if s.dur == nil {
		return 0
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return s.dur.snapSeq
}

// SnapshotBytes returns the on-disk snapshot file and the WAL
// sequence it covers, taking a fresh snapshot first when none exists —
// the bootstrap payload for a follower too far behind the retained WAL.
func (s *Store) SnapshotBytes() ([]byte, uint64, error) {
	if s.dur == nil {
		return nil, 0, fmt.Errorf("dfanalyzer: in-memory store has no snapshot")
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if _, err := os.Stat(s.dur.snapPath); os.IsNotExist(err) {
		if err := s.snapshotLocked(); err != nil {
			return nil, 0, err
		}
	}
	data, err := os.ReadFile(s.dur.snapPath)
	if err != nil {
		return nil, 0, err
	}
	return data, s.dur.snapSeq, nil
}

// ReplRecord is one primary WAL record in flight to a follower: the
// primary-side sequence number and the raw record payload.
type ReplRecord struct {
	Seq     uint64
	Payload []byte
}

// ApplyReplicatedBatch appends records shipped from the primary to the
// follower's own WAL — byte-identical, at the same sequence numbers — and
// applies them, reusing the recovery replay path (applyOp), so a promoted
// follower's state and dedup table are exactly what the primary's
// recovery would have produced. Sequence numbers below the follower's
// tail are duplicates of already-applied records (a resumed stream
// overlapping) and are skipped; a gap above the tail (a quarantined
// segment on the primary) is skipped with Reserve so numbering stays
// aligned; a sequence skew between the primary's numbering and the local
// append aborts the batch. The whole batch runs under one commit lock
// acquisition, and each contiguous run lands in the local WAL with a
// single batched append (wal.Log.AppendBatch) — the difference between a
// follower that keeps up with a 10k frames/s primary and one that drowns
// in per-record write(2) calls.
func (s *Store) ApplyReplicatedBatch(recs []ReplRecord) error {
	if s.dur == nil {
		return fmt.Errorf("dfanalyzer: in-memory store cannot replicate")
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for i := 0; i < len(recs); {
		last := s.dur.log.LastSeq()
		if recs[i].Seq <= last {
			i++ // already replicated and applied
			continue
		}
		if recs[i].Seq > last+1 {
			s.dur.log.Reserve(recs[i].Seq - 1)
		}
		// Extend to the contiguous run starting here; it lands in one
		// batched append.
		j := i + 1
		for j < len(recs) && recs[j].Seq == recs[j-1].Seq+1 {
			j++
		}
		payloads := make([][]byte, j-i)
		for k := i; k < j; k++ {
			payloads[k-i] = recs[k].Payload
		}
		appended, err := s.dur.log.AppendBatch(payloads)
		if err != nil {
			return err
		}
		if appended != recs[j-1].Seq {
			return fmt.Errorf("dfanalyzer: replication seq skew: primary %d, local %d",
				recs[j-1].Seq, appended)
		}
		for k := i; k < j; k++ {
			s.dur.opsSinceSnap++
			op, err := decodeOp(recs[k].Payload)
			if err != nil {
				return fmt.Errorf("dfanalyzer: corrupt replicated op at seq %d: %w", recs[k].Seq, err)
			}
			// A term record carries its primary-side position, which applyOp
			// installs as it is (equal to the local one by construction).
			if err := s.applyOp(op); err != nil {
				return err
			}
		}
		s.repl.applied.Store(recs[j-1].Seq)
		i = j
	}
	return s.maybeSnapshotLocked()
}

// InstallSnapshot resets the store to a primary's snapshot: the in-memory
// state is discarded, the snapshot is loaded and persisted locally, and
// the WAL is advanced past the covered sequence so replication resumes at
// snapSeq+1. Only a follower whose log is *behind* the snapshot may
// install it (bootstrap or catch-up past a truncation gap); a log ahead
// of the snapshot means divergence, which the replication handshake
// rejects before it gets here.
func (s *Store) InstallSnapshot(data []byte) (uint64, error) {
	if s.dur == nil {
		return 0, fmt.Errorf("dfanalyzer: in-memory store cannot install snapshots")
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	snap, err := decodeSnapshot(data)
	if err != nil {
		return 0, fmt.Errorf("dfanalyzer: corrupt replication snapshot: %w", err)
	}
	if last := s.dur.log.LastSeq(); last > snap.walSeq {
		return 0, fmt.Errorf("%w: local log at %d, snapshot covers %d", ErrDiverged, last, snap.walSeq)
	}
	// Shards and dedup state are replaced wholesale.
	s.install(snap)
	if err := wal.WriteFileAtomic(s.dur.snapPath, func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return 0, err
	}
	s.dur.snapSeq = snap.walSeq
	s.dur.opsSinceSnap = 0
	s.dur.log.Reserve(snap.walSeq)
	if err := s.dur.log.TruncateFront(snap.walSeq); err != nil {
		return 0, err
	}
	s.repl.applied.Store(snap.walSeq)
	return snap.walSeq, nil
}

// StoreStats is the store's health snapshot: role, term, WAL tail and
// catalog sizes. The replication layer (internal/replica) reports its
// own half — follower lag on a primary, staleness on a replica.
type StoreStats struct {
	Role      string
	Term      uint64
	Dataflows int
	Tasks     int
	// WAL tail and snapshot position (0 for in-memory stores).
	WALLastSeq  uint64
	SnapshotSeq uint64
	// Background WAL sync failures: silent durability degradation an
	// operator must see (zero when healthy or in-memory).
	WALSyncErrors uint64
}

// Stats returns the store's health snapshot (role, term, WAL tail,
// catalog sizes).
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		Role: s.Role().String(),
		Term: s.CurrentTerm(),
	}
	tags := s.Dataflows()
	st.Dataflows = len(tags)
	for _, tag := range tags {
		st.Tasks += s.TaskCount(tag)
	}
	if s.dur != nil {
		_, st.WALLastSeq = s.WALSeqs()
		st.SnapshotSeq = s.SnapshotSeq()
		st.WALSyncErrors, _ = s.dur.log.SyncErrors()
	}
	return st
}

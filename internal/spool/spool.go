// Package spool implements the edge-side store-and-forward queue: a
// disk-backed buffer of encoded capture frames that survives client
// crashes and long network partitions.
//
// Captured frames are appended, already compressed into their wire form,
// to a segmented WAL (internal/wal) before transmission; a drainer reads
// them back in order, makes each durable with EnsureSynced and publishes
// it. EnsureSynced's fsync holds neither the spool's lock nor the WAL's
// append lock (a group commit), so appends never wait on the disk.
// *End-to-end* acknowledgements — not mere broker receipt — advance a
// persisted low-water mark ("floor"). Everything at or below the floor is
// durably applied on the server, so fully-acked segments are reclaimed.
// Acks may arrive out of order (the publish window completes handshakes
// concurrently, and the server batches deliveries): the spool keeps the
// floor plus a sparse set of acked sequence numbers above it, advancing
// the floor whenever the run above it becomes contiguous.
//
// Crash recovery: on Open the WAL replays its surviving tail, the floor
// is restored from the mark file, and every unacked frame above the floor
// is redelivered. Frames that were applied server-side but whose ack was
// lost (or not yet persisted) are redelivered too — the durable frame ids
// stamped into each frame (wire.AppendFrameSeq) let the server
// deduplicate them, which is what turns at-least-once redelivery into
// exactly-once ingestion.
package spool

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/wal"
)

// DegradePolicy selects what the spool does when its byte quota crosses
// the high watermark: a constrained edge device with a small flash
// partition must pick which invariant to sacrifice when the network
// outage outlasts the disk.
type DegradePolicy int

const (
	// Block refuses new appends (ErrSpoolFull) until the drain brings
	// usage back under the low watermark. Nothing is lost; capture
	// stalls. The default: safest, and correct for QoS >= 1 data.
	Block DegradePolicy = iota
	// DropNew sheds arriving frames instead of storing them: QoS 0
	// frames are shed as soon as the high watermark trips, QoS >= 1
	// frames only when the hard quota itself is hit. Old data (already
	// spooled, possibly mid-flight) is preserved.
	DropNew
	// DropOldestUnacked reclaims the oldest spooled frames to make room
	// for new ones — freshest-data-wins, the right choice for telemetry
	// where the latest reading supersedes stale ones. Reclaim is
	// prefix-only (whole sealed WAL segments), so the shed prefix can
	// contain both QoS classes; sheds are counted per class and
	// acknowledged frames in the prefix are never data loss (they were
	// already applied server-side). The floor only ever advances.
	DropOldestUnacked
)

// String returns the flag-style name ("block", "drop-new", "drop-oldest").
func (p DegradePolicy) String() string {
	switch p {
	case DropNew:
		return "drop-new"
	case DropOldestUnacked:
		return "drop-oldest"
	default:
		return "block"
	}
}

// ParseDegradePolicy parses the flag-style names.
func ParseDegradePolicy(s string) (DegradePolicy, error) {
	switch strings.ToLower(s) {
	case "block", "":
		return Block, nil
	case "drop-new", "dropnew":
		return DropNew, nil
	case "drop-oldest", "drop-oldest-unacked", "dropoldest":
		return DropOldestUnacked, nil
	}
	return Block, fmt.Errorf("spool: unknown degrade policy %q (want block|drop-new|drop-oldest)", s)
}

// ErrSpoolFull is returned by appends rejected under the Block policy (or
// when no space can be reclaimed under DropOldestUnacked). It matches
// wal.IsNoSpace: retryable-degraded, not fatal — capture should stall and
// retry, not crash.
var ErrSpoolFull = fmt.Errorf("spool: full: %w", wal.ErrNoSpace)

// ErrShed is returned when a frame was intentionally dropped by the
// degradation policy instead of stored. Callers count it and move on; it
// is not a failure of the spool.
var ErrShed = errors.New("spool: frame shed by degradation policy")

// Options configures a Spool. Only Dir is required.
type Options struct {
	// Dir is the spool directory (created if missing).
	Dir string
	// Sync is the WAL fsync policy. Default wal.SyncInterval: appends stay
	// at memory speed and a crash loses at most SyncInterval of frames
	// from the *page cache flush* point of view — a process crash loses
	// nothing, a power loss at most that window.
	Sync wal.SyncPolicy
	// SyncInterval is the background fsync period. Default 100 ms.
	SyncInterval time.Duration
	// SegmentSize is the WAL segment rotation size. Default 8 MiB.
	SegmentSize int64
	// PersistEvery persists the ack mark after this many floor advances
	// (and always on Close). Default 64. Redelivery after a crash covers
	// the frames acked since the last persist; deduplication absorbs them.
	PersistEvery int
	// Quota caps the spool's on-disk bytes (0 = unlimited). Crossing
	// HighWatermark×Quota enters degraded mode (Policy applies) until
	// usage falls back under LowWatermark×Quota.
	Quota int64
	// HighWatermark and LowWatermark are fractions of Quota bounding the
	// degraded-mode hysteresis. Defaults 0.9 and 0.7.
	HighWatermark float64
	LowWatermark  float64
	// Policy selects degraded-mode behavior. Default Block.
	Policy DegradePolicy
}

const markFile = "ack.mark"

// Spool is a disk-backed frame queue. All methods are safe for concurrent
// use.
type Spool struct {
	log          *wal.Log
	markPath     string
	persistEvery int
	sync         wal.SyncPolicy

	mu          sync.Mutex
	floor       uint64 // every seq <= floor is acked (or shed)
	acked       map[uint64]struct{}
	lowPrio     map[uint64]struct{} // QoS 0 frames above the floor (shed accounting)
	lastPersist uint64
	syncedUpTo  uint64 // highest seq known fsynced (publish barrier)
	closed      bool

	// Degradation state (quota > 0 only).
	quota    int64
	hiBytes  int64
	loBytes  int64
	policy   DegradePolicy
	degraded bool

	// Degradation + durability observability (guarded by mu).
	degradedEvents  uint64
	shedQoS0        uint64
	shedHigher      uint64
	blockedAppends  uint64
	markPersistErrs uint64
	lastMarkErr     error

	// ackCh is closed by the next floor advance; nil until a waiter takes
	// it (AckSignal), so an advance nobody waits for costs nothing.
	ackMu sync.Mutex
	ackCh chan struct{}

	// beforeSync, when set, runs in EnsureSynced just before the WAL
	// fsync. A test hook, to hold the barrier inside its sync.
	beforeSync func()
}

// Stats is a snapshot of the spool's degradation and durability health.
type Stats struct {
	UsedBytes  int64 `json:"used_bytes"`
	QuotaBytes int64 `json:"quota_bytes,omitempty"`
	// Degraded is true while usage sits between the watermarks with the
	// policy active.
	Degraded bool   `json:"degraded"`
	Policy   string `json:"policy"`
	// DegradedEvents counts high-watermark crossings.
	DegradedEvents uint64 `json:"degraded_events"`
	// ShedQoS0/ShedHigher count frames dropped by policy, per QoS class.
	ShedQoS0   uint64 `json:"shed_qos0"`
	ShedHigher uint64 `json:"shed_higher"`
	// BlockedAppends counts appends rejected with ErrSpoolFull.
	BlockedAppends uint64 `json:"blocked_appends"`
	// MarkPersistErrors/LastMarkPersistError surface ack-mark write
	// failures (degraded durability: redelivery windows grow).
	MarkPersistErrors    uint64 `json:"mark_persist_errors"`
	LastMarkPersistError string `json:"last_mark_persist_error,omitempty"`
	// WALSyncErrors/LastWALSyncError surface background fsync failures.
	WALSyncErrors    uint64 `json:"wal_sync_errors"`
	LastWALSyncError string `json:"last_wal_sync_error,omitempty"`
}

// Stats snapshots degradation and durability counters.
func (s *Spool) Stats() Stats {
	used := s.log.UsedBytes()
	syncErrs, lastSync := s.log.SyncErrors()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		UsedBytes:         used,
		QuotaBytes:        s.quota,
		Degraded:          s.degraded,
		Policy:            s.policy.String(),
		DegradedEvents:    s.degradedEvents,
		ShedQoS0:          s.shedQoS0,
		ShedHigher:        s.shedHigher,
		BlockedAppends:    s.blockedAppends,
		MarkPersistErrors: s.markPersistErrs,
		WALSyncErrors:     syncErrs,
		LastWALSyncError:  lastSync,
	}
	if s.lastMarkErr != nil {
		st.LastMarkPersistError = s.lastMarkErr.Error()
	}
	return st
}

// Open opens (or creates) the spool in opts.Dir, recovering WAL and ack
// mark state.
func Open(opts Options) (*Spool, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("spool: Dir required")
	}
	if opts.PersistEvery <= 0 {
		opts.PersistEvery = 64
	}
	if opts.HighWatermark <= 0 || opts.HighWatermark > 1 {
		opts.HighWatermark = 0.9
	}
	if opts.LowWatermark <= 0 || opts.LowWatermark >= opts.HighWatermark {
		opts.LowWatermark = opts.HighWatermark * 7 / 9
	}
	l, err := wal.Open(filepath.Join(opts.Dir, "wal"), wal.Options{
		Sync:         opts.Sync,
		SyncInterval: opts.SyncInterval,
		SegmentSize:  opts.SegmentSize,
		Quota:        opts.Quota,
	})
	if err != nil {
		return nil, err
	}
	s := &Spool{
		log:          l,
		markPath:     filepath.Join(opts.Dir, markFile),
		persistEvery: opts.PersistEvery,
		sync:         opts.Sync,
		acked:        map[uint64]struct{}{},
		lowPrio:      map[uint64]struct{}{},
		policy:       opts.Policy,
	}
	s.setQuotaLocked(opts.Quota, opts.HighWatermark, opts.LowWatermark)
	floor, err := readMark(s.markPath)
	if err != nil {
		l.Close()
		return nil, err
	}
	s.floor = floor
	// Segments are only reclaimed after the mark covering them persisted,
	// but a crash can still leave the mark behind a truncated front (the
	// reverse is prevented by persist-before-truncate). Trust whichever is
	// further along.
	if first := l.FirstSeq(); first > 0 && first-1 > s.floor {
		s.floor = first - 1
	}
	s.lastPersist = s.floor
	// Never reuse a frame id: if the mark outran a lossy log tail, push
	// the sequence space past everything possibly already published.
	l.Reserve(s.floor)
	return s, nil
}

func readMark(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("spool: read mark: %w", err)
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spool: parse mark %q: %w", data, err)
	}
	return v, nil
}

// setQuotaLocked installs a quota and derives watermark byte bounds.
// Callers must not hold s.mu (it takes it).
func (s *Spool) setQuotaLocked(quota int64, hi, lo float64) {
	s.mu.Lock()
	s.quota = quota
	s.hiBytes = int64(float64(quota) * hi)
	s.loBytes = int64(float64(quota) * lo)
	s.mu.Unlock()
	s.log.SetQuota(quota)
}

// SetQuota adjusts the byte quota at runtime with default watermarks —
// the knob the chaos quota injector turns to simulate a partition filling
// up and being freed.
func (s *Spool) SetQuota(bytes int64) { s.setQuotaLocked(bytes, 0.9, 0.7) }

// UsedBytes reports the spool's current on-disk usage.
func (s *Spool) UsedBytes() int64 { return s.log.UsedBytes() }

// Quota reports the current byte quota (0 = unlimited).
func (s *Spool) Quota() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quota
}

// persistMarkLocked writes the floor atomically. Callers hold s.mu.
// Failures are counted (see Stats) so a broken mark file — which silently
// widens the crash-redelivery window — is observable.
func (s *Spool) persistMarkLocked() error {
	floor := s.floor
	err := wal.WriteFileAtomic(s.markPath, func(w io.Writer) error {
		_, werr := fmt.Fprintf(w, "%d\n", floor)
		return werr
	})
	if err != nil {
		s.markPersistErrs++
		s.lastMarkErr = err
		return fmt.Errorf("spool: persist mark: %w", err)
	}
	s.lastPersist = floor
	s.lastMarkErr = nil
	return nil
}

// AppendWith appends one frame built by build, which receives the durable
// sequence number the frame will carry (stamp it into the frame with
// wire.AppendFrameSeq). The append is atomic with the sequence
// assignment. Equivalent to AppendFrame with qos0=false: the frame is
// treated as precious under the degradation policies.
func (s *Spool) AppendWith(build func(seq uint64) ([]byte, error)) (uint64, error) {
	return s.AppendFrame(false, build)
}

// AppendFrame appends one frame, applying the degradation policy when the
// spool is over its quota watermarks. qos0 marks the frame sheddable
// first: under DropNew a degraded spool sheds QoS 0 frames at the high
// watermark while still admitting QoS >= 1 frames until the hard quota.
//
// Returns ErrShed when the policy dropped the frame (count it, move on),
// ErrSpoolFull (or another wal.IsNoSpace error) when the caller should
// stall and retry — both retryable-degraded, never fatal.
func (s *Spool) AppendFrame(qos0 bool, build func(seq uint64) ([]byte, error)) (uint64, error) {
	if err := s.admit(qos0); err != nil {
		return 0, err
	}
	seq, err := s.log.AppendWith(build)
	if err != nil && wal.IsNoSpace(err) {
		s.mu.Lock()
		policy := s.policy
		s.mu.Unlock()
		switch policy {
		case DropNew:
			s.countShed(qos0, 1)
			return 0, ErrShed
		case DropOldestUnacked:
			// Reclaim the oldest sealed segments and retry once; if the
			// log still cannot take the frame (everything lives in the
			// active segment) degrade to stalling.
			s.shedOldest()
			seq, err = s.log.AppendWith(build)
			if err != nil && wal.IsNoSpace(err) {
				s.noteBlocked()
				return 0, fmt.Errorf("%w (nothing left to shed)", ErrSpoolFull)
			}
		default: // Block
			s.noteBlocked()
			return 0, err
		}
	}
	if err == nil && qos0 {
		s.mu.Lock()
		if seq > s.floor {
			s.lowPrio[seq] = struct{}{}
		}
		s.mu.Unlock()
	}
	return seq, err
}

// admit applies watermark hysteresis and the policy's admission decision
// before the frame touches the WAL.
func (s *Spool) admit(qos0 bool) error {
	s.mu.Lock()
	if s.quota <= 0 {
		s.mu.Unlock()
		return nil
	}
	hi, lo := s.hiBytes, s.loBytes
	s.mu.Unlock()
	used := s.log.UsedBytes()
	s.mu.Lock()
	if !s.degraded && used >= hi {
		s.degraded = true
		s.degradedEvents++
	} else if s.degraded && used <= lo {
		s.degraded = false
	}
	if !s.degraded {
		s.mu.Unlock()
		return nil
	}
	policy := s.policy
	switch policy {
	case Block:
		s.blockedAppends++
		s.mu.Unlock()
		return ErrSpoolFull
	case DropNew:
		if qos0 {
			s.shedQoS0++
			s.mu.Unlock()
			return ErrShed
		}
		s.mu.Unlock()
		return nil
	case DropOldestUnacked:
		s.mu.Unlock()
		s.shedOldest()
		return nil
	}
	s.mu.Unlock()
	return nil
}

func (s *Spool) countShed(qos0 bool, n uint64) {
	s.mu.Lock()
	if qos0 {
		s.shedQoS0 += n
	} else {
		s.shedHigher += n
	}
	s.mu.Unlock()
}

func (s *Spool) noteBlocked() {
	s.mu.Lock()
	s.blockedAppends++
	s.mu.Unlock()
}

// shedOldest advances the floor over whole sealed WAL segments — the only
// reclaimable unit — until usage falls to the low watermark or only the
// active segment remains. Acked frames in the shed prefix are not loss
// (already applied server-side); unacked ones are counted per QoS class.
// The mark is persisted before each truncation (the persist-before-
// truncate invariant), and the floor only ever advances, so an acked
// frame can never reappear as unacked after a crash.
func (s *Spool) shedOldest() {
	for {
		if s.log.UsedBytes() <= s.loBytesNow() {
			return
		}
		first, last, ok := s.log.OldestSealed()
		if !ok {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if s.floor < last {
			start := s.floor + 1
			if start < first {
				start = first // quarantine gap: nothing stored below first
			}
			for seq := start; seq <= last; seq++ {
				if _, acked := s.acked[seq]; acked {
					delete(s.acked, seq)
				} else if _, low := s.lowPrio[seq]; low {
					s.shedQoS0++
				} else {
					s.shedHigher++
				}
				delete(s.lowPrio, seq)
			}
			s.floor = last
		}
		err := s.persistMarkLocked()
		s.mu.Unlock()
		s.signalAck() // the floor may have moved, even if the mark failed
		if err != nil {
			// Without a persisted mark covering the truncation, deleting
			// segments would violate persist-before-truncate; stop here.
			return
		}
		if terr := s.log.TruncateFront(last); terr != nil {
			return
		}
	}
}

func (s *Spool) loBytesNow() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loBytes
}

// Ack marks one frame as durably applied end-to-end. When the run above
// the floor becomes contiguous the floor advances, the mark is persisted
// every PersistEvery advances, and fully-acked segments are reclaimed.
func (s *Spool) Ack(seq uint64) error {
	s.mu.Lock()
	if s.closed || seq <= s.floor {
		s.mu.Unlock()
		return nil
	}
	if _, dup := s.acked[seq]; dup {
		s.mu.Unlock()
		return nil
	}
	s.acked[seq] = struct{}{}
	advanced := false
	for {
		if _, ok := s.acked[s.floor+1]; !ok {
			break
		}
		delete(s.acked, s.floor+1)
		s.floor++
		delete(s.lowPrio, s.floor)
		advanced = true
	}
	var err error
	var reclaimTo uint64
	if advanced && s.floor-s.lastPersist >= uint64(s.persistEvery) {
		// Persist before reclaiming: the mark must always cover every
		// truncated segment, or a crash would leave the floor pointing at
		// deleted frames.
		if err = s.persistMarkLocked(); err == nil {
			reclaimTo = s.floor
		}
	}
	s.mu.Unlock()
	if reclaimTo > 0 {
		if terr := s.log.TruncateFront(reclaimTo); err == nil {
			err = terr
		}
	}
	if advanced {
		s.signalAck()
	}
	return err
}

// EnsureSynced is the publish barrier: it guarantees the frame with the
// given sequence number is on stable storage before the caller transmits
// it. Without it, a power loss could drop an unsynced WAL tail whose
// frames were already published (and dedup-marked server-side); their
// sequence numbers would then be reassigned to new frames on reopen, and
// the server would silently swallow those as redeliveries. With the
// barrier, every published sequence number is durable, so the persisted
// ack mark can never outrun the log and sequence reuse is impossible.
//
// It holds no lock across the fsync, so appends (and acks) go on while it
// runs. The barrier still holds: LastSeq is read before wal.Log.Sync is
// called, and Sync returns only after an fsync that began after every
// record appended before the call, so every seq up to that LastSeq
// (which includes seq, already appended when the drainer read it) is
// durable when syncedUpTo advances to it.
//
// No-op under wal.SyncOff: that policy explicitly trades power-loss
// safety away. Under SyncEach the data is already durable and the call
// is nearly free; under SyncInterval it fsyncs only when the drainer
// outruns the background syncer.
func (s *Spool) EnsureSynced(seq uint64) error {
	if s.sync == wal.SyncOff {
		return nil
	}
	s.mu.Lock()
	synced := seq <= s.syncedUpTo
	s.mu.Unlock()
	if synced {
		return nil
	}
	last := s.log.LastSeq()
	if s.beforeSync != nil {
		s.beforeSync()
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	if last > s.syncedUpTo {
		s.syncedUpTo = last
	}
	s.mu.Unlock()
	return nil
}

// Acked reports whether seq is already acknowledged.
func (s *Spool) Acked(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.floor {
		return true
	}
	_, ok := s.acked[seq]
	return ok
}

// Floor returns the highest contiguously acknowledged sequence number.
func (s *Spool) Floor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floor
}

// LastSeq returns the last appended sequence number.
func (s *Spool) LastSeq() uint64 { return s.log.LastSeq() }

// Pending returns how many appended frames await acknowledgement.
func (s *Spool) Pending() uint64 {
	last := s.log.LastSeq()
	s.mu.Lock()
	defer s.mu.Unlock()
	if last <= s.floor {
		return 0
	}
	return last - s.floor - uint64(len(s.acked))
}

// Drained reports whether every appended frame is acknowledged.
func (s *Spool) Drained() bool { return s.Pending() == 0 }

// Notify signals appended frames (coalesced). Drain loops sleep on it and
// on AckSignal instead of polling.
func (s *Spool) Notify() <-chan struct{} { return s.log.Notify() }

// AckSignal returns a channel that the next floor advance closes. It is a
// broadcast: every waiter wakes, so one reader cannot take another's
// wakeup. Take the channel before checking the condition it guards (the
// floor, Drained), or an advance between the check and the call is
// missed; after it fires, take a fresh one.
func (s *Spool) AckSignal() <-chan struct{} {
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	if s.ackCh == nil {
		s.ackCh = make(chan struct{})
	}
	return s.ackCh
}

// signalAck wakes every AckSignal waiter.
func (s *Spool) signalAck() {
	s.ackMu.Lock()
	if s.ackCh != nil {
		close(s.ackCh)
		s.ackCh = nil
	}
	s.ackMu.Unlock()
}

// SyncMark persists the ack mark now (used on clean shutdown).
func (s *Spool) SyncMark() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.persistMarkLocked()
}

// Close persists the mark, syncs the WAL, and releases the spool. Spooled
// but unacked frames stay on disk for the next Open.
func (s *Spool) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.persistMarkLocked()
	s.closed = true
	s.mu.Unlock()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the spool without persisting the ack mark — the
// process-crash path used by recovery tests and Client.Abort. State on
// disk is exactly what a SIGKILL would have left.
func (s *Spool) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	_ = s.log.Close()
}

// Reader iterates unacknowledged frames in sequence order, starting at
// the floor when created (or Reset). Frames acked while the reader was
// behind are skipped.
type Reader struct {
	s *Spool
	r *wal.Reader
}

// NewReader returns a reader positioned at the first unacked frame.
func (s *Spool) NewReader() *Reader {
	return &Reader{s: s, r: s.log.ReadFrom(s.Floor() + 1)}
}

// Reset repositions the reader at the first unacked frame — the
// redelivery path after a reconnect or an ack timeout.
func (r *Reader) Reset() { r.r.Seek(r.s.Floor() + 1) }

// Next appends the next unacked frame to buf and returns it with its
// sequence number; ok is false when the reader has caught up with the
// appended tail (sleep on Notify/AckSignal and retry).
func (r *Reader) Next(buf []byte) (seq uint64, frame []byte, ok bool, err error) {
	for {
		seq, frame, ok, err = r.r.Next(buf)
		if err != nil || !ok {
			return 0, frame, false, err
		}
		if r.s.Acked(seq) {
			buf = frame[:len(buf)]
			continue
		}
		return seq, frame, true, nil
	}
}

// Close releases the reader.
func (r *Reader) Close() { r.r.Close() }

// Package wal implements a segmented append-only write-ahead log: the
// durability primitive behind both the edge spool (store-and-forward
// capture) and the server-side store recovery.
//
// Records are framed with a CRC32C (Castagnoli) checksum:
//
//	offset 0: uint32 LE payload length
//	offset 4: uint32 LE crc32c(payload)
//	offset 8: payload
//
// The log is a directory of segment files named "<firstSeq>.wal" (20-digit
// decimal, zero padded, so lexical order is sequence order). Appends go to
// the active (last) segment; when it exceeds Options.SegmentSize the
// segment is sealed and a new one started. Sequence numbers are assigned
// contiguously starting at 1 and survive reopen.
//
// Crash behaviour on Open:
//
//   - a torn final record (partial header or short payload at the tail of
//     the last segment) is truncated away — the write never completed, so
//     dropping it is the only consistent choice;
//   - a CRC mismatch inside the final segment is treated the same way
//     (a torn write that was later partially overwritten);
//   - a CRC mismatch inside a *sealed* segment means real corruption: the
//     segment is quarantined (renamed to "<name>.corrupt") and skipped,
//     leaving a sequence gap, and Open still succeeds. Readers skip gaps.
//
// Durability is tunable per log via Options.Sync: SyncEach fsyncs every
// append, SyncInterval (the default) fsyncs on a background timer, and
// SyncOff leaves flushing to the OS.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrNoSpace marks an append rejected because the log's byte quota would
// be exceeded. It is the quota analogue of the filesystem's ENOSPC and is
// classified the same way: retryable-degraded, not fatal — space comes
// back when acks reclaim segments or an operator frees the disk. Use
// IsNoSpace to match both causes.
var ErrNoSpace = errors.New("wal: no space")

// IsNoSpace reports whether err is an out-of-space condition: either the
// log's own quota (ErrNoSpace) or a real filesystem ENOSPC surfacing
// through a write or fsync. Callers treat these as retryable-degraded:
// back off, optionally shed, never crash.
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC)
}

// WriteFileAtomic writes a file with the crash-safe pattern shared by the
// spool's ack mark, the store's snapshots, and the translator's PROV-JSON
// output: write to a temp file in the same directory, fsync it, rename it
// over the target, then fsync the directory so the rename itself survives
// power loss. Readers (and recovery) only ever observe either the old or
// the complete new content.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename. Best effort: not every filesystem supports
	// fsync on directories.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval fsyncs dirty segments on a background timer
	// (Options.SyncInterval). A crash can lose at most the last interval's
	// appends. This is the default: it keeps appends at memory speed while
	// bounding the loss window.
	SyncInterval SyncPolicy = iota
	// SyncEach fsyncs after every append before Append returns: nothing
	// acknowledged is ever lost, at the cost of one fsync per record.
	SyncEach
	// SyncOff never fsyncs explicitly; the OS flushes when it pleases.
	// Survives process crashes (the page cache is intact) but not power
	// loss or kernel panics.
	SyncOff
)

// String returns the flag-style name of the policy ("interval", "each",
// "off").
func (p SyncPolicy) String() string {
	switch p {
	case SyncEach:
		return "each"
	case SyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses the flag-style names accepted by the server
// commands: "each" (or "always"), "interval", "off" (or "none").
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "each", "always":
		return SyncEach, nil
	case "interval", "":
		return SyncInterval, nil
	case "off", "none":
		return SyncOff, nil
	}
	return SyncInterval, fmt.Errorf("wal: unknown sync policy %q (want each|interval|off)", s)
}

// Options tunes a Log. The zero value is usable: 8 MiB segments, interval
// fsync every 100 ms.
type Options struct {
	// SegmentSize is the byte size past which the active segment is sealed
	// and a new one started. Default 8 MiB.
	SegmentSize int64
	// Sync is the fsync policy. Default SyncInterval.
	Sync SyncPolicy
	// SyncInterval is the background fsync period for SyncInterval.
	// Default 100 ms.
	SyncInterval time.Duration
	// Quota caps the total bytes of retained segments. 0 means unlimited.
	// An append that would push usage past the quota fails with an error
	// matching IsNoSpace instead of touching the disk; reclaiming space
	// (TruncateFront after acks) or SetQuota lifts the condition. This is
	// how an edge spool shares a small flash partition without ever
	// hitting the filesystem's own ENOSPC mid-write.
	Quota int64
}

func (o *Options) applyDefaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 8 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
}

const (
	headerSize = 8
	// MaxRecord bounds a single record payload (defense against a corrupt
	// length field pointing into gigabytes).
	MaxRecord = 64 << 20
	suffix    = ".wal"
	// CorruptSuffix is appended to quarantined segment files.
	CorruptSuffix = ".corrupt"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segment is one log file. first/last are the sequence numbers of its
// first and last records; a sealed segment's last is fixed, the active
// segment's grows with every append.
type segment struct {
	path  string
	first uint64
	last  uint64 // 0 when the segment holds no records yet
	size  int64
}

func (s *segment) empty() bool { return s.last == 0 }

// Log is a segmented append-only log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	dir  string
	opts Options

	// syncMu serialises Sync and Close. It is taken before mu and held
	// across Sync's fsync, which runs without mu, so appends never wait on
	// the disk.
	syncMu sync.Mutex
	// fsync syncs the active segment in Sync (nil: (*os.File).Sync). A
	// test hook, to hold a Sync inside its fsync.
	fsync func(*os.File) error

	mu          sync.Mutex
	segs        []*segment // ascending by first; last entry is active
	active      *os.File
	buf         []byte // append scratch: header + payload in one write
	last        uint64 // last assigned sequence number
	first       uint64 // first retained sequence number (after TruncateFront); 0 if none written yet
	dirty       bool   // records appended since the last fsync began
	syncing     bool   // a Sync's fsync of active is in flight
	closed      bool
	forceRotate bool // next append must start a fresh segment (after Reserve)

	quarantined int // segments quarantined during Open
	truncated   int // bytes truncated from the tail during Open

	used  int64 // total bytes across retained segments
	quota int64 // byte quota (0 = unlimited); runtime-adjustable

	syncErrs    uint64 // background/explicit fsync failures
	lastSyncErr error  // most recent fsync failure; nil once a sync succeeds

	notify chan struct{} // 1-buffered append signal for tailing readers

	syncStop chan struct{}
	syncDone chan struct{}
}

// Open opens (or creates) the log in dir, recovering from torn or corrupt
// tails as described in the package comment.
func Open(dir string, opts Options) (*Log, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		dir:    dir,
		opts:   opts,
		quota:  opts.Quota,
		notify: make(chan struct{}, 1),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// scan discovers existing segments, validates them, quarantines corrupt
// sealed segments, and truncates a torn tail off the final one.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []*segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, suffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, suffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, &segment{path: filepath.Join(l.dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i, s := range segs {
		final := i == len(segs)-1
		count, validSize, clean, err := validateSegment(s.path)
		switch {
		// A sealed segment must both checksum and end exactly at a record
		// boundary; the final segment may end torn (the crashed write).
		case (err == nil && clean) || final:
			// Healthy, or the tail segment: a torn/corrupt suffix there is
			// truncated away (it is the record being written at the crash).
			if final && validSize >= 0 {
				if fi, statErr := os.Stat(s.path); statErr == nil && fi.Size() > validSize {
					l.truncated += int(fi.Size() - validSize)
					if err := os.Truncate(s.path, validSize); err != nil {
						return fmt.Errorf("wal: truncate torn tail of %s: %w", s.path, err)
					}
				}
			}
			s.size = validSize
			if count > 0 {
				s.last = s.first + uint64(count) - 1
			}
			l.segs = append(l.segs, s)
		default:
			// Corruption inside a sealed segment: quarantine and move on.
			if qerr := os.Rename(s.path, s.path+CorruptSuffix); qerr != nil {
				return fmt.Errorf("wal: quarantine %s: %w", s.path, qerr)
			}
			l.quarantined++
		}
	}
	for _, s := range l.segs {
		l.used += s.size
		if l.first == 0 {
			l.first = s.first
		}
		if !s.empty() && s.last > l.last {
			l.last = s.last
		}
		if s.empty() && s.first > l.last {
			// An empty tail segment pre-announces the next sequence number.
			l.last = s.first - 1
		}
	}
	if n := len(l.segs); n > 0 {
		f, err := os.OpenFile(l.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: open active segment: %w", err)
		}
		l.active = f
	}
	return nil
}

// validateSegment walks a segment and returns the record count and the
// byte offset after the last whole, checksum-valid record. clean reports
// whether the segment ended exactly at a record boundary (EOF); err is
// non-nil on a checksum or length-field violation. validSize is always
// meaningful for truncation.
func validateSegment(path string) (count int, validSize int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	var (
		hdr [headerSize]byte
		buf []byte
		off int64
	)
	for {
		if _, rerr := io.ReadFull(f, hdr[:]); rerr != nil {
			return count, off, rerr == io.EOF, nil // clean end or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecord {
			return count, off, false, fmt.Errorf("wal: record length %d exceeds limit", n)
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, rerr := io.ReadFull(f, buf); rerr != nil {
			return count, off, false, nil // torn payload: truncatable
		}
		if crc32.Checksum(buf, castagnoli) != crc {
			return count, off, false, fmt.Errorf("wal: crc mismatch at offset %d", off)
		}
		off += headerSize + int64(n)
		count++
	}
}

// Quarantined reports how many corrupt sealed segments Open set aside.
func (l *Log) Quarantined() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quarantined
}

// TruncatedBytes reports how many torn-tail bytes Open discarded.
func (l *Log) TruncatedBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// LastSeq returns the sequence number of the most recently appended
// record (0 if the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// FirstSeq returns the first retained sequence number (0 if empty).
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) == 0 {
		return 0
	}
	return l.first
}

// SegmentPath returns the path of the retained segment holding record
// seq, or the log directory when no segment does: the file to name when
// a record fails to decode.
func (l *Log) SegmentPath(seq uint64) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.segs) - 1; i >= 0; i-- {
		if l.segs[i].first <= seq {
			return l.segs[i].path
		}
	}
	return l.dir
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", first, suffix))
}

// rotateLocked seals the active segment and starts a new one whose first
// record will be seq. An active segment that never received a record is
// deleted instead of sealed (it would otherwise pin TruncateFront
// forever). Callers hold l.mu.
func (l *Log) rotateLocked(seq uint64) error {
	if l.active != nil {
		// A Sync in flight may have claimed the dirty flag for this file
		// and can still fail: seal it synced either way.
		if (l.dirty || l.syncing) && l.opts.Sync != SyncOff {
			if err := l.active.Sync(); err != nil {
				return fmt.Errorf("wal: sync sealed segment: %w", err)
			}
			l.dirty = false
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: close sealed segment: %w", err)
		}
		l.active = nil
		if n := len(l.segs); n > 0 && l.segs[n-1].empty() {
			if err := os.Remove(l.segs[n-1].path); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: remove empty segment: %w", err)
			}
			l.segs = l.segs[:n-1]
		}
	}
	path := segPath(l.dir, seq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.active = f
	l.segs = append(l.segs, &segment{path: path, first: seq})
	if l.first == 0 {
		l.first = seq
	}
	return nil
}

// Append writes one record and returns its sequence number. The write is
// a single write(2) call (header and payload in one buffer), so a crash
// tears at most the record being written — exactly what Open truncates.
func (l *Log) Append(payload []byte) (uint64, error) {
	seq, err := l.AppendWith(func(uint64) ([]byte, error) { return payload, nil })
	return seq, err
}

// AppendWith assigns the next sequence number, calls build with it, and
// appends the returned payload under that number — atomically with respect
// to other appends. It exists for callers that embed the sequence number
// inside the payload itself (the spool's frame ids).
func (l *Log) AppendWith(build func(seq uint64) ([]byte, error)) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	seq := l.last + 1
	payload, err := build(seq)
	if err != nil {
		return 0, err
	}
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	if l.quota > 0 && l.used+headerSize+int64(len(payload)) > l.quota {
		return 0, fmt.Errorf("%w: quota %d bytes, used %d, record needs %d",
			ErrNoSpace, l.quota, l.used, headerSize+len(payload))
	}
	if l.active == nil || l.forceRotate || (len(l.segs) > 0 && l.segs[len(l.segs)-1].size >= l.opts.SegmentSize) {
		if err := l.rotateLocked(seq); err != nil {
			return 0, err
		}
		l.forceRotate = false
	}
	l.buf = l.buf[:0]
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(len(payload)))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.Checksum(payload, castagnoli))
	l.buf = append(l.buf, payload...)
	if _, err := l.active.Write(l.buf); err != nil {
		// The write may have landed partially; Open will truncate the torn
		// record. Do not advance the sequence.
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	seg := l.segs[len(l.segs)-1]
	seg.size += int64(len(l.buf))
	l.used += int64(len(l.buf))
	seg.last = seq
	l.last = seq
	if l.opts.Sync == SyncEach {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
	} else {
		l.dirty = true
	}
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return seq, nil
}

// AppendBatch appends payloads as consecutively-numbered records in as
// few write(2) calls as segment rotation allows — one, when the whole
// batch fits the active segment. A torn write still truncates to a clean
// record boundary on Open (a partial write of the batch buffer is a
// prefix, so records before the tear survive intact and nothing after it
// was ever visible), so batching changes the syscall count, not the
// recovery semantics. Under SyncEach the batch is fsynced once, after the
// final flush — the batch is durable when AppendBatch returns, same
// contract as one Append per record. Returns the sequence number of the
// last appended record (or the current tail for an empty batch).
//
// This is the follower-side replication apply path's throughput lever:
// replaying a primary's stream record-by-record costs one syscall per
// record, which on syscall-expensive hosts caps apply throughput below
// the primary's ingest rate.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	var need int64
	for _, p := range payloads {
		if len(p) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(p))
		}
		need += headerSize + int64(len(p))
	}
	if l.quota > 0 && l.used+need > l.quota {
		return 0, fmt.Errorf("%w: quota %d bytes, used %d, batch needs %d",
			ErrNoSpace, l.quota, l.used, need)
	}
	l.buf = l.buf[:0]
	pendingSeq := l.last // last record framed into l.buf
	// flush commits the accumulated frames: only after the write succeeds
	// do the segment bounds and the sequence counter advance (a failed
	// write may have landed partially; Open truncates the torn record, and
	// the unadvanced counter keeps numbering consistent — exactly the
	// single-record Append contract).
	flush := func() error {
		if len(l.buf) == 0 {
			return nil
		}
		if _, err := l.active.Write(l.buf); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
		seg := l.segs[len(l.segs)-1]
		seg.size += int64(len(l.buf))
		l.used += int64(len(l.buf))
		seg.last = pendingSeq
		l.last = pendingSeq
		l.buf = l.buf[:0]
		return nil
	}
	for _, p := range payloads {
		seq := pendingSeq + 1
		if l.active == nil || l.forceRotate ||
			(len(l.segs) > 0 && l.segs[len(l.segs)-1].size+int64(len(l.buf)) >= l.opts.SegmentSize) {
			if err := flush(); err != nil {
				return 0, err
			}
			if err := l.rotateLocked(seq); err != nil {
				return 0, err
			}
			l.forceRotate = false
		}
		l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(len(p)))
		l.buf = binary.LittleEndian.AppendUint32(l.buf, crc32.Checksum(p, castagnoli))
		l.buf = append(l.buf, p...)
		pendingSeq = seq
	}
	if err := flush(); err != nil {
		return 0, err
	}
	if len(payloads) > 0 {
		if l.opts.Sync == SyncEach {
			if err := l.active.Sync(); err != nil {
				return 0, fmt.Errorf("wal: fsync: %w", err)
			}
		} else {
			l.dirty = true
		}
		select {
		case l.notify <- struct{}{}:
		default:
		}
	}
	return l.last, nil
}

// Reserve advances the sequence counter so the next append is assigned at
// least seq+1. The spool uses it on open to keep frame ids from being
// reused when the persisted ack mark outruns a log tail lost to a crash
// under a relaxed fsync policy (reused ids would be swallowed by the
// server's deduplication). The next append starts a fresh segment, since
// records within one segment must be contiguously numbered.
func (l *Log) Reserve(seq uint64) {
	l.mu.Lock()
	if seq > l.last {
		l.last = seq
		l.forceRotate = true
	}
	l.mu.Unlock()
}

// Sync flushes the active segment to stable storage: when it returns nil,
// every record appended before the call is durable. It is a group commit.
// Under l.mu it only notes what the fsync covers (the active file, and
// clears the dirty flag); the fsync itself runs outside l.mu, so appends
// go on while it is in flight and the next Sync covers them. Syncs are
// serialised by syncMu, so a Sync that finds nothing dirty returns only
// after the fsync that covered its records has finished. A failed fsync
// puts the dirty flag back and is counted in SyncErrors. A segment
// rotated away during the fsync was fsynced by the rotation itself, and
// Close waits for an fsync in flight.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed || l.active == nil || !l.dirty {
		l.mu.Unlock()
		return nil
	}
	f := l.active
	l.dirty = false
	l.syncing = true
	l.mu.Unlock()

	var err error
	if l.fsync != nil {
		err = l.fsync(f)
	} else {
		err = f.Sync()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncing = false
	if l.active != f {
		// Rotation sealed f with its own fsync (under l.mu, which fails the
		// append that rotated if it fails), so f is durable whatever this
		// fsync of the possibly closed file returned.
		err = nil
	}
	if err != nil {
		l.dirty = true
		l.syncErrs++
		l.lastSyncErr = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.lastSyncErr = nil
	return nil
}

// syncLocked fsyncs the active segment while holding l.mu (Close's final
// sync). Callers hold l.mu.
func (l *Log) syncLocked() error {
	if l.closed || l.active == nil || !l.dirty {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.syncErrs++
		l.lastSyncErr = err
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.lastSyncErr = nil
	return nil
}

func (l *Log) syncLoop() {
	ticker := time.NewTicker(l.opts.SyncInterval)
	defer func() {
		ticker.Stop()
		close(l.syncDone)
	}()
	for {
		select {
		case <-l.syncStop:
			return
		case <-ticker.C:
			// Failures are recorded in syncErrs/lastSyncErr (see
			// SyncErrors) so degraded durability is observable in stats
			// rather than silently swallowed here.
			_ = l.Sync()
		}
	}
}

// SyncErrors reports how many fsyncs have failed over the log's lifetime
// and the most recent failure ("" once a later sync succeeds). A non-empty
// last error means the background syncer is currently unable to make
// appends durable — degraded durability that should page before it
// becomes data loss.
func (l *Log) SyncErrors() (count uint64, last string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lastSyncErr != nil {
		last = l.lastSyncErr.Error()
	}
	return l.syncErrs, last
}

// UsedBytes returns the total size of retained segments.
func (l *Log) UsedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// Quota returns the current byte quota (0 = unlimited).
func (l *Log) Quota() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quota
}

// SetQuota adjusts the byte quota at runtime (0 disables it). Lowering it
// below current usage does not touch existing records; it only makes
// further appends fail with ErrNoSpace until space is reclaimed — exactly
// how a filesystem filling up behaves, which is what the chaos quota
// injector exploits.
func (l *Log) SetQuota(bytes int64) {
	l.mu.Lock()
	l.quota = bytes
	l.mu.Unlock()
}

// Notify returns a 1-buffered channel signalled on every append, so a
// tailing reader can sleep until new records arrive. Signals coalesce.
func (l *Log) Notify() <-chan struct{} { return l.notify }

// OldestSealed returns the sequence bounds of the oldest sealed
// (reclaimable) segment. ok is false when only the active segment (or
// nothing) remains — there is then nothing TruncateFront could reclaim.
// The spool's DropOldestUnacked policy uses this to shed in the only
// unit that actually frees disk: whole sealed segments.
func (l *Log) OldestSealed() (first, last uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) < 2 {
		return 0, 0, false
	}
	s := l.segs[0]
	if s.empty() {
		return 0, 0, false
	}
	return s.first, s.last, true
}

// TruncateFront deletes sealed segments whose records all have sequence
// numbers <= upto, reclaiming disk space behind a durable low-water mark.
// The active segment and any segment holding a record > upto survive.
func (l *Log) TruncateFront(upto uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := 0
	for keep < len(l.segs)-1 { // never the active (last) segment
		s := l.segs[keep]
		if s.empty() || s.last > upto {
			break
		}
		if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: remove segment: %w", err)
		}
		l.used -= s.size
		keep++
	}
	if keep > 0 {
		l.segs = append(l.segs[:0], l.segs[keep:]...)
		l.first = l.segs[0].first
	}
	return nil
}

// Close syncs and releases the log. Appends after Close fail.
func (l *Log) Close() error {
	l.syncMu.Lock() // wait out a Sync's fsync in flight
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.syncMu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	l.mu.Unlock()
	l.syncMu.Unlock()
	if l.syncStop != nil {
		close(l.syncStop)
		<-l.syncDone
	}
	return err
}

// Replay calls fn for every retained record with sequence number >= from,
// in order, skipping quarantine gaps. fn returning an error stops the
// replay and propagates it.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	r := l.ReadFrom(from)
	defer r.Close()
	var buf []byte
	for {
		seq, payload, ok, err := r.Next(buf[:0])
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		buf = payload
		if err := fn(seq, payload); err != nil {
			return err
		}
	}
}

// Reader iterates records in sequence order. It tolerates concurrent
// appends (records become visible atomically with their sequence number)
// and concurrent TruncateFront of segments it has passed.
type Reader struct {
	l    *Log
	next uint64 // next sequence number wanted
	f    *os.File
	// br buffers reads of f: segments are append-only, so bytes at an
	// offset never change once written and buffered read-ahead can never
	// go stale — a short fill at the committed tail simply refills later.
	// This is what keeps a tailing reader (replication shipping, spool
	// drain) at a fraction of a syscall per record instead of two.
	br  *bufio.Reader
	seg segment // copy of the segment f reads (first fixed; last/size refreshed)
	at  uint64  // sequence number the file offset points at
	hdr [headerSize]byte
}

// ReadFrom returns a reader positioned at the first retained record with
// sequence number >= from.
func (l *Log) ReadFrom(from uint64) *Reader {
	if from == 0 {
		from = 1
	}
	return &Reader{l: l, next: from}
}

// Seek repositions the reader at the first retained record >= from.
func (r *Reader) Seek(from uint64) {
	if from == 0 {
		from = 1
	}
	r.next = from
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// locate finds the segment holding r.next (or the first one after a gap)
// and returns a copy plus whether a record >= r.next exists yet.
func (r *Reader) locate() (segment, bool) {
	l := r.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.next > l.last {
		return segment{}, false
	}
	for _, s := range l.segs {
		if s.empty() {
			continue
		}
		if s.last >= r.next {
			if s.first > r.next {
				r.next = s.first // quarantine/truncation gap: skip forward
			}
			return *s, true
		}
	}
	return segment{}, false
}

// retains reports whether the segment starting at first is still part of
// the log.
func (l *Log) retains(first uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		if s.first == first {
			return true
		}
	}
	return false
}

// Next appends the next record's payload to buf and returns it with its
// sequence number. ok is false when the reader has caught up with the
// tail (wait on Log.Notify and retry). Errors are permanent for the
// current position; Seek past them to continue.
func (r *Reader) Next(buf []byte) (seq uint64, payload []byte, ok bool, err error) {
	for {
		seg, found := r.locate()
		if !found {
			return 0, buf, false, nil
		}
		if r.f == nil || r.seg.first != seg.first || r.at > r.next {
			if r.f != nil {
				r.f.Close()
				r.f = nil
			}
			f, oerr := os.Open(seg.path)
			if oerr != nil {
				if os.IsNotExist(oerr) && !r.l.retains(seg.first) {
					continue // TruncateFront removed it after locate: skip past it
				}
				return 0, buf, false, fmt.Errorf("wal: open segment: %w", oerr)
			}
			r.f = f
			if r.br == nil {
				r.br = bufio.NewReaderSize(f, 64<<10)
			} else {
				r.br.Reset(f)
			}
			r.seg = seg
			r.at = seg.first
		}
		r.seg.last = seg.last
		// Skip forward to r.next within the segment.
		for r.at <= r.seg.last {
			if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
				return 0, buf, false, fmt.Errorf("wal: read header of %d: %w", r.at, err)
			}
			n := binary.LittleEndian.Uint32(r.hdr[0:4])
			crc := binary.LittleEndian.Uint32(r.hdr[4:8])
			if n > MaxRecord {
				return 0, buf, false, fmt.Errorf("wal: record %d length %d exceeds limit", r.at, n)
			}
			if r.at < r.next {
				if _, err := io.CopyN(io.Discard, r.br, int64(n)); err != nil {
					return 0, buf, false, fmt.Errorf("wal: skip record %d: %w", r.at, err)
				}
				r.at++
				continue
			}
			start := len(buf)
			if cap(buf)-start < int(n) {
				grown := make([]byte, start, start+int(n))
				copy(grown, buf)
				buf = grown
			}
			buf = buf[:start+int(n)]
			if _, err := io.ReadFull(r.br, buf[start:]); err != nil {
				return 0, buf[:start], false, fmt.Errorf("wal: read record %d: %w", r.at, err)
			}
			if crc32.Checksum(buf[start:], castagnoli) != crc {
				return 0, buf[:start], false, fmt.Errorf("wal: crc mismatch at record %d", r.at)
			}
			seq = r.at
			r.at++
			r.next = seq + 1
			return seq, buf, true, nil
		}
		// Exhausted this segment; move to the next one.
		r.f.Close()
		r.f = nil
		if r.next <= r.seg.last {
			r.next = r.seg.last + 1
		}
	}
}

// Close releases the reader's file handle.
func (r *Reader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

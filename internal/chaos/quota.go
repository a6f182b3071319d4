package chaos

import "sync"

// QuotaFS is the knob surface of a quota-enforcing store — satisfied by
// *wal.Log and *spool.Spool. The quota injector drives it to simulate a
// filesystem filling up and being freed, without actually exhausting the
// host disk: lowering the quota below current usage makes the next append
// fail exactly the way ENOSPC does (wal.IsNoSpace matches both).
type QuotaFS interface {
	SetQuota(bytes int64)
	Quota() int64
	UsedBytes() int64
}

// DiskQuota is a runtime-togglable disk-exhaustion fault. Fill clamps the
// target's quota to its current usage (every subsequent append is out of
// space); Free restores the quota that was in effect before the first
// Fill. Safe for concurrent use.
type DiskQuota struct {
	fs QuotaFS

	mu     sync.Mutex
	saved  int64
	filled bool
}

// NewDiskQuota wraps fs for fault injection.
func NewDiskQuota(fs QuotaFS) *DiskQuota {
	return &DiskQuota{fs: fs}
}

// Fill simulates the disk filling to the brim right now: the quota is
// clamped to current usage, so the very next append is rejected for
// space. Idempotent; the pre-fault quota is remembered for Free.
func (q *DiskQuota) Fill() { q.FillTo(q.fs.UsedBytes()) }

// FillTo clamps the quota to the given byte count (usage above it simply
// means no headroom at all). Remembers the pre-fault quota on first use.
func (q *DiskQuota) FillTo(bytes int64) {
	if bytes <= 0 {
		bytes = 1 // quota 0 means unlimited, not empty
	}
	q.mu.Lock()
	if !q.filled {
		q.saved = q.fs.Quota()
		q.filled = true
	}
	q.mu.Unlock()
	q.fs.SetQuota(bytes)
}

// Free heals the fault, restoring the quota in effect before Fill.
// No-op if the fault was never injected.
func (q *DiskQuota) Free() {
	q.mu.Lock()
	filled := q.filled
	saved := q.saved
	q.filled = false
	q.mu.Unlock()
	if filled {
		q.fs.SetQuota(saved)
	}
}

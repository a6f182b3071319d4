package spool

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/wal"
)

// heldSync holds each EnsureSynced just before its WAL fsync until the
// test releases it; calls counts the syncs EnsureSynced started.
type heldSync struct {
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int32
}

func holdSync(t *testing.T, s *Spool) *heldSync {
	// Buffered beyond the few syncs a test holds at once, so a release
	// can be queued before the sync it is meant for starts.
	h := &heldSync{entered: make(chan struct{}, 16), release: make(chan struct{}, 16)}
	s.beforeSync = func() {
		h.calls.Add(1)
		h.entered <- struct{}{}
		<-h.release
	}
	t.Cleanup(func() { close(h.release) }) // unblock a failed test's leftovers
	return h
}

// openQuiet opens a spool whose background syncer never fires.
func openQuiet(t *testing.T, dir string, segSize int64) *Spool {
	t.Helper()
	s, err := Open(Options{Dir: dir, Sync: wal.SyncInterval, SyncInterval: time.Hour, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func ensureSyncedAsync(s *Spool, seq uint64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.EnsureSynced(seq) }()
	return done
}

func waitSignal(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// returnsSoon runs fn and fails the test unless it returns within a
// second.
func returnsSoon(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s blocked behind the sync in flight", what)
	}
}

// TestAppendDuringEnsureSynced: appends and acks return while the publish
// barrier is inside its sync.
func TestAppendDuringEnsureSynced(t *testing.T) {
	s := openQuiet(t, t.TempDir(), 0)
	h := holdSync(t, s)
	appendFrames(t, s, 0, 1)
	synced := ensureSyncedAsync(s, 1)
	waitSignal(t, h.entered, "the sync")

	returnsSoon(t, "AppendWith", func() error {
		_, err := s.AppendWith(func(uint64) ([]byte, error) { return []byte("frame"), nil })
		return err
	})
	returnsSoon(t, "AppendFrame(qos0)", func() error {
		_, err := s.AppendFrame(true, func(uint64) ([]byte, error) { return []byte("frame"), nil })
		return err
	})
	returnsSoon(t, "Ack", func() error { return s.Ack(1) })
	h.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
}

// TestEnsureSyncedWaitsForLaterFsync: EnsureSynced(seq) returns only after
// a sync that began after seq was appended; a sync already under way when
// seq was appended does not count.
func TestEnsureSyncedWaitsForLaterFsync(t *testing.T) {
	s := openQuiet(t, t.TempDir(), 0)
	h := holdSync(t, s)
	appendFrames(t, s, 0, 1)
	first := ensureSyncedAsync(s, 1)
	waitSignal(t, h.entered, "the first sync")
	returnsSoon(t, "append of seq 2", func() error {
		_, err := s.AppendWith(func(uint64) ([]byte, error) { return []byte("frame"), nil })
		return err
	})
	h.release <- struct{}{}
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	second := ensureSyncedAsync(s, 2)
	select {
	case err := <-second:
		t.Fatalf("EnsureSynced(2) returned (%v) on a sync that began before seq 2 was appended", err)
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("EnsureSynced(2) never started a sync")
	}
	select {
	case err := <-second:
		t.Fatalf("EnsureSynced(2) returned (%v) before its sync ran", err)
	case <-time.After(50 * time.Millisecond):
	}
	h.release <- struct{}{}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := s.EnsureSynced(seq); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("syncs = %d, want 2", n)
	}
}

// TestRotationAndCloseDuringEnsureSynced rotates WAL segments, and then
// closes the spool, while the barrier's sync is held, and checks that the
// reopened spool redelivers every frame.
func TestRotationAndCloseDuringEnsureSynced(t *testing.T) {
	dir := t.TempDir()
	s := openQuiet(t, dir, 64) // a few frames per segment
	h := holdSync(t, s)
	appendFrames(t, s, 0, 1)
	synced := ensureSyncedAsync(s, 1)
	waitSignal(t, h.entered, "the sync")
	for i := 1; i < 40; i++ {
		returnsSoon(t, "append with rotation", func() error {
			seq, err := s.AppendWith(func(seq uint64) ([]byte, error) {
				return []byte(fmt.Sprintf("frame-%05d@%d", i, seq)), nil
			})
			if err == nil && seq != uint64(i+1) {
				err = fmt.Errorf("seq = %d, want %d", seq, i+1)
			}
			return err
		})
	}
	h.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatalf("EnsureSynced across a rotation: %v", err)
	}

	appendFrames(t, s, 40, 1)
	synced = ensureSyncedAsync(s, 41)
	waitSignal(t, h.entered, "the sync")
	returnsSoon(t, "Close", s.Close)
	h.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatalf("EnsureSynced across Close: %v", err)
	}
	if st := s.Stats(); st.WALSyncErrors != 0 {
		t.Fatalf("WAL sync errors = %d (%s), want 0", st.WALSyncErrors, st.LastWALSyncError)
	}

	re, err := Open(Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := drainAll(t, re)
	if len(got) != 41 {
		t.Fatalf("reopened spool redelivers %d frames, want 41", len(got))
	}
	for i := 0; i < 41; i++ {
		if want := fmt.Sprintf("frame-%05d@%d", i, i+1); got[uint64(i+1)] != want {
			t.Fatalf("frame %d = %q, want %q", i+1, got[uint64(i+1)], want)
		}
	}
}

package wal

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// heldFsync replaces a log's Sync fsync with one that announces itself on
// entered and then waits for release before syncing (or failing with
// fail, when set). calls counts the fsyncs Sync started.
type heldFsync struct {
	entered chan struct{}
	release chan struct{}
	calls   atomic.Int32
	fail    error
}

func holdFsync(t *testing.T, l *Log) *heldFsync {
	// Buffered beyond the few syncs a test holds at once, so a release
	// can be queued before the sync it is meant for starts.
	h := &heldFsync{entered: make(chan struct{}, 16), release: make(chan struct{}, 16)}
	l.fsync = func(f *os.File) error {
		h.calls.Add(1)
		h.entered <- struct{}{}
		<-h.release
		if h.fail != nil {
			return h.fail
		}
		return f.Sync()
	}
	t.Cleanup(func() { close(h.release) }) // unblock a failed test's leftovers
	return h
}

// openQuiet opens a log whose background syncer never fires, so every
// fsync in the test is one the test started.
func openQuiet(t *testing.T, dir string, segSize int64) *Log {
	t.Helper()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncInterval: time.Hour, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
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
		t.Fatalf("%s blocked behind the fsync in flight", what)
	}
}

// notYet fails the test if ch delivers within 50 ms.
func notYet(t *testing.T, ch <-chan error, what string) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("%s returned (%v) while the fsync it needs was held", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestAppendDuringFsync: an Append returns while a Sync is held inside its
// fsync, and the next Sync fsyncs again to cover it.
func TestAppendDuringFsync(t *testing.T) {
	l := openQuiet(t, t.TempDir(), 0)
	h := holdFsync(t, l)
	appendN(t, l, 0, 1)
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	waitSignal(t, h.entered, "the fsync")

	returnsSoon(t, "Append", func() error { _, err := l.Append([]byte("record-0001")); return err })
	returnsSoon(t, "AppendBatch", func() error { _, err := l.AppendBatch([][]byte{[]byte("record-0002")}); return err })
	h.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}

	h.release <- struct{}{}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("fsyncs = %d, want 2: records appended during the first must get their own", n)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("fsyncs = %d, want 2: nothing was appended since the last", n)
	}
}

// TestSyncWaitsForFsyncInFlight: a Sync that finds nothing dirty because
// an fsync in flight claimed its records returns only after that fsync
// has finished.
func TestSyncWaitsForFsyncInFlight(t *testing.T) {
	l := openQuiet(t, t.TempDir(), 0)
	h := holdFsync(t, l)
	appendN(t, l, 0, 3)
	first := make(chan error, 1)
	go func() { first <- l.Sync() }()
	waitSignal(t, h.entered, "the fsync")

	second := make(chan error, 1)
	go func() { second <- l.Sync() }()
	notYet(t, second, "a second Sync")
	h.release <- struct{}{}
	for _, ch := range []chan error{first, second} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if n := h.calls.Load(); n != 1 {
		t.Fatalf("fsyncs = %d, want 1", n)
	}
}

// TestSyncFailureKeepsDirty: a failed fsync is counted, and the records it
// covered stay dirty, so the next Sync fsyncs them again.
func TestSyncFailureKeepsDirty(t *testing.T) {
	l := openQuiet(t, t.TempDir(), 0)
	h := holdFsync(t, l)
	h.fail = errors.New("injected EIO")
	appendN(t, l, 0, 2)
	h.release <- struct{}{}
	if err := l.Sync(); err == nil || !errors.Is(err, h.fail) {
		t.Fatalf("Sync = %v, want the injected error", err)
	}
	if n, last := l.SyncErrors(); n != 1 || last == "" {
		t.Fatalf("SyncErrors = %d, %q; want 1 and the error", n, last)
	}

	h.fail = nil
	h.release <- struct{}{}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := h.calls.Load(); n != 2 {
		t.Fatalf("fsyncs = %d, want 2: the failed one's records must be synced again", n)
	}
	if n, last := l.SyncErrors(); n != 1 || last != "" {
		t.Fatalf("SyncErrors = %d, %q; want 1 and no current error", n, last)
	}
}

// TestRotationAndCloseDuringFsync rotates segments, and then closes the
// log, each while a Sync is held inside its fsync, and checks that
// nothing is lost and no sync error is reported.
func TestRotationAndCloseDuringFsync(t *testing.T) {
	dir := t.TempDir()
	l := openQuiet(t, dir, 64) // every four records seal a segment
	h := holdFsync(t, l)
	appendN(t, l, 0, 1)
	synced := make(chan error, 1)
	go func() { synced <- l.Sync() }()
	waitSignal(t, h.entered, "the fsync")
	for i := 1; i < 40; i++ {
		payload := []byte(fmt.Sprintf("record-%04d", i))
		returnsSoon(t, "Append with rotation", func() error { _, err := l.Append(payload); return err })
	}
	h.release <- struct{}{} // the held file was sealed and closed meanwhile
	if err := <-synced; err != nil {
		t.Fatalf("Sync across a rotation: %v", err)
	}

	appendN(t, l, 40, 1)
	go func() { synced <- l.Sync() }()
	waitSignal(t, h.entered, "the fsync")
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	notYet(t, closed, "Close")
	h.release <- struct{}{}
	if err := <-synced; err != nil {
		t.Fatalf("Sync across Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n, last := l.SyncErrors(); n != 0 {
		t.Fatalf("SyncErrors = %d (%s), want 0", n, last)
	}

	re, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := collect(t, re, 1)
	if len(got) != 41 {
		t.Fatalf("reopened log holds %d records, want 41", len(got))
	}
	for i := 0; i < 41; i++ {
		if want := fmt.Sprintf("record-%04d", i); got[uint64(i+1)] != want {
			t.Fatalf("record %d = %q, want %q", i+1, got[uint64(i+1)], want)
		}
	}
}

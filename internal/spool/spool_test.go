package spool

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/wal"
)

func appendFrames(t testing.TB, s *Spool, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		payload := fmt.Sprintf("frame-%05d", i)
		seq, err := s.AppendWith(func(seq uint64) ([]byte, error) {
			return []byte(fmt.Sprintf("%s@%d", payload, seq)), nil
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, want)
		}
	}
}

func drainAll(t testing.TB, s *Spool) map[uint64]string {
	t.Helper()
	r := s.NewReader()
	defer r.Close()
	out := map[uint64]string{}
	var buf []byte
	for {
		seq, frame, ok, err := r.Next(buf[:0])
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !ok {
			return out
		}
		buf = frame
		out[seq] = string(frame)
	}
}

func TestSpoolAppendDrainAck(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendFrames(t, s, 0, 50)
	got := drainAll(t, s)
	if len(got) != 50 {
		t.Fatalf("drained %d frames, want 50", len(got))
	}
	if got[1] != "frame-00000@1" {
		t.Fatalf("frame 1 = %q", got[1])
	}
	for seq := uint64(1); seq <= 50; seq++ {
		if err := s.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Drained() || s.Floor() != 50 {
		t.Fatalf("after full ack: drained=%v floor=%d", s.Drained(), s.Floor())
	}
}

func TestOutOfOrderAcksAdvanceFloorContiguously(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendFrames(t, s, 0, 10)
	for _, seq := range []uint64{3, 2, 5, 10} {
		if err := s.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	if s.Floor() != 0 {
		t.Fatalf("floor = %d before seq 1 acked", s.Floor())
	}
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
	if err := s.Ack(1); err != nil {
		t.Fatal(err)
	}
	if s.Floor() != 3 {
		t.Fatalf("floor = %d after 1..3 contiguous, want 3", s.Floor())
	}
	if err := s.Ack(4); err != nil {
		t.Fatal(err)
	}
	if s.Floor() != 5 {
		t.Fatalf("floor = %d, want 5", s.Floor())
	}
	// The reader skips acked frames (10) and yields only 6..9.
	got := drainAll(t, s)
	if len(got) != 4 {
		t.Fatalf("reader yielded %d frames, want 4: %v", len(got), got)
	}
	for _, seq := range []uint64{6, 7, 8, 9} {
		if _, ok := got[seq]; !ok {
			t.Fatalf("unacked frame %d not yielded", seq)
		}
	}
}

func TestReopenResumesAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	appendFrames(t, s, 0, 20)
	for seq := uint64(1); seq <= 12; seq++ {
		_ = s.Ack(seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Floor() != 12 {
		t.Fatalf("floor after reopen = %d, want 12", s2.Floor())
	}
	got := drainAll(t, s2)
	if len(got) != 8 {
		t.Fatalf("redelivery count = %d, want 8 (13..20)", len(got))
	}
	appendFrames(t, s2, 20, 5) // numbering resumes at 21
}

// TestCrashRedeliversUnpersistedAcks simulates a SIGKILL: acks beyond the
// last persisted mark are forgotten, so those frames are redelivered (the
// server's dedup absorbs them). Nothing below the persisted mark is.
func TestCrashRedeliversUnpersistedAcks(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: wal.SyncOff, PersistEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	appendFrames(t, s, 0, 20)
	for seq := uint64(1); seq <= 8; seq++ {
		_ = s.Ack(seq) // mark persisted at floor 5 (PersistEvery), 6..8 volatile
	}
	s.Crash()

	s2, err := Open(Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Floor() != 5 {
		t.Fatalf("floor after crash = %d, want 5 (last persisted)", s2.Floor())
	}
	got := drainAll(t, s2)
	if len(got) != 15 {
		t.Fatalf("redelivery count = %d, want 15 (6..20)", len(got))
	}
	if _, ok := got[6]; !ok {
		t.Fatal("frame 6 (acked but not persisted) must be redelivered")
	}
}

func TestSegmentReclaimBehindFloor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: wal.SyncOff, SegmentSize: 256, PersistEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendFrames(t, s, 0, 200)
	before, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	for seq := uint64(1); seq <= 190; seq++ {
		if err := s.Ack(seq); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(after) >= len(before) {
		t.Fatalf("reclaim removed nothing: %d -> %d segments", len(before), len(after))
	}
	if got := drainAll(t, s); len(got) != 10 {
		t.Fatalf("pending after reclaim = %d, want 10", len(got))
	}
}

func TestSeqNeverReusedWhenMarkOutrunsWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Sync: wal.SyncOff, PersistEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendFrames(t, s, 0, 10)
	for seq := uint64(1); seq <= 10; seq++ {
		_ = s.Ack(seq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a lossy tail: delete the WAL entirely, keep the mark.
	files, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(Options{Dir: dir, Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	seq, err := s2.AppendWith(func(seq uint64) ([]byte, error) { return []byte("x"), nil })
	if err != nil {
		t.Fatal(err)
	}
	if seq <= 10 {
		t.Fatalf("sequence %d reused after WAL loss (would be deduped server-side)", seq)
	}
}

func TestAckSignalAndNotify(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendFrames(t, s, 0, 1)
	select {
	case <-s.Notify():
	case <-time.After(time.Second):
		t.Fatal("no append notification")
	}
	// AckSignal is a broadcast: two waiters that took the channel before
	// the advance both wake, and neither takes the other's wakeup.
	woke := make(chan int, 2)
	for w := 0; w < 2; w++ {
		sig := s.AckSignal()
		go func() {
			select {
			case <-sig:
				woke <- w
			case <-time.After(time.Second):
				woke <- -1
			}
		}()
	}
	_ = s.Ack(1)
	for i := 0; i < 2; i++ {
		if w := <-woke; w < 0 {
			t.Fatal("an ack signal waiter did not wake")
		}
	}
	// A fired signal stays fired; the next advance closes a fresh one.
	fired := s.AckSignal()
	appendFrames(t, s, 1, 1)
	_ = s.Ack(2)
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("no ack signal for the second advance")
	}
	if next := s.AckSignal(); next == fired {
		t.Fatal("AckSignal returned a channel that already fired")
	}
}

// BenchmarkSpoolDrain measures the full disk round trip: append N frames,
// then read + ack (with mark persistence and segment reclaim) at the
// drain loop's cadence.
func BenchmarkSpoolDrain(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), Sync: wal.SyncInterval, SegmentSize: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendWith(func(uint64) ([]byte, error) { return payload, nil }); err != nil {
			b.Fatal(err)
		}
	}
	r := s.NewReader()
	defer r.Close()
	var buf []byte
	for {
		seq, frame, ok, err := r.Next(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		buf = frame
		if err := s.Ack(seq); err != nil {
			b.Fatal(err)
		}
	}
	if !s.Drained() {
		b.Fatal("not drained")
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "frames/s")
}

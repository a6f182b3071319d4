package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// failingTarget fails its first failLeft batches and records the durable
// ids of the frames it failed and of the frames it later accepted.
type failingTarget struct {
	mu       sync.Mutex
	failLeft int
	failed   map[uint64]bool
	accepted map[uint64]bool
}

func (*failingTarget) Name() string { return "failing" }

func (f *failingTarget) DeliverFrames(frames []translate.Frame) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	fail := f.failLeft > 0
	seen := f.accepted
	if fail {
		f.failLeft--
		seen = f.failed
	}
	for i := range frames {
		seen[frames[i].Seq] = true
	}
	if fail {
		return errors.New("target unavailable")
	}
	return nil
}

// TestFailedTargetBatchRedeliveredExactlyOnce: when one target fails a
// batch, the translator counts one delivery error for it and publishes no
// ack, so the spooling client redelivers those frames; the store, which
// took the batch the first time, deduplicates the redelivery, and every
// captured record ends up in it exactly once.
func TestFailedTargetBatchRedeliveredExactlyOnce(t *testing.T) {
	const failures = 3
	const tasks = 30
	lb := transport.NewLoopback()
	store := dfanalyzer.NewStore()
	failing := &failingTarget{failLeft: failures, failed: map[uint64]bool{}, accepted: map[uint64]bool{}}
	srv := startLoopServer(t, lb, translate.NewStoreTarget(store, "provlight"), failing)
	defer srv.Close()
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "failing-target-device",
		SpoolDir:          t.TempDir(),
		RedeliverAfter:    300 * time.Millisecond,
		ReconnectMinDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		captureTask(t, client, "wf", i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, client.StatsSnapshot())
	}
	cst := client.StatsSnapshot()
	if cst.SpoolPending != 0 || cst.SpoolAcked != cst.FramesSpooled || cst.FramesSpooled != 2*tasks {
		t.Fatalf("spool not drained: spooled=%d acked=%d pending=%d, want %d/%d/0",
			cst.FramesSpooled, cst.SpoolAcked, cst.SpoolPending, 2*tasks, 2*tasks)
	}
	srv.tr.Drain()

	st := srv.tr.Stats()
	if st.DeliveryErrors != failures {
		t.Errorf("DeliveryErrors = %d, want %d (one per failed batch)", st.DeliveryErrors, failures)
	}
	// No ack for a failed batch: its frames were reclaimed from the spool
	// only after a redelivery the failing target accepted.
	failing.mu.Lock()
	if len(failing.failed) == 0 {
		t.Error("the failing target saw no frames")
	}
	for seq := range failing.failed {
		if !failing.accepted[seq] {
			t.Errorf("frame %d failed and was never redelivered: it was acked", seq)
		}
	}
	failing.mu.Unlock()
	if cst.SpoolRedeliveries == 0 {
		t.Error("client never redelivered")
	}

	// Exactly once in the store: count rows, not dedup entries.
	if got := store.TaskCount("provlight"); got != tasks {
		t.Errorf("task catalog has %d entries, want %d", got, tasks)
	}
	rows := 0
	for _, set := range []string{"train_input", "train_output"} {
		got, err := store.Select(context.Background(), dfanalyzer.Query{Dataflow: "provlight", Set: set})
		if err != nil {
			t.Fatalf("select %s: %v", set, err)
		}
		rows += len(got)
	}
	if rows != 2*tasks {
		t.Errorf("store holds %d rows, want one per captured record (%d)", rows, 2*tasks)
	}
}

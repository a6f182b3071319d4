package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/chaos"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/transport"
)

// captureBurst captures one workflow of n tasks as fast as possible and
// returns the records' identities in capture order.
func captureBurst(t *testing.T, c *Client, wf string, n int) []string {
	t.Helper()
	id := func(ev provdm.EventKind, task string) string { return fmt.Sprintf("%s/%s/%s", wf, ev, task) }
	order := []string{id(provdm.EventWorkflowBegin, "")}
	w := c.NewWorkflow(wf)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		task := w.NewTask(fmt.Sprintf("t%d", i), "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
		order = append(order, id(provdm.EventTaskBegin, task.ID()), id(provdm.EventTaskEnd, task.ID()))
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	return append(order, id(provdm.EventWorkflowEnd, ""))
}

// TestPackExactlyOnceInOrderUnderLoss sends a burst through a lossy,
// duplicating device link at QoS 2. The sender packs the frames that queue
// behind each handshake, so fewer PUBLISHes than records leave, and every
// record still arrives exactly once, in capture order (WindowSize 1 keeps
// the hop's order; the broker-translator leg is loss-free).
func TestPackExactlyOnceInOrderUnderLoss(t *testing.T) {
	t.Parallel() // waits out re-sends on the lossy link
	client, mem, _ := startPipeline(t, func(c *Config) {
		c.Transport = netem.WrapTransport(transport.UDP{}, netem.Profile{LossRate: 0.25, DupRate: 0.25, Seed: 11})
		c.WindowSize = 1
	})
	// Bursts paced below the handshake time, so several packs leave.
	var want []string
	for b := 0; b < 8; b++ {
		want = append(want, captureBurst(t, client, fmt.Sprintf("burst-%d", b), 5)...)
		time.Sleep(20 * time.Millisecond)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	records := waitRecords(t, mem, len(want))
	if len(records) != len(want) {
		t.Fatalf("received %d records, want %d", len(records), len(want))
	}
	for i, r := range records {
		if got := fmt.Sprintf("%s/%s/%s", r.WorkflowID, r.Event, r.TaskID); got != want[i] {
			t.Fatalf("record %d is %s, want %s (capture order)", i, got, want[i])
		}
	}
	st := client.StatsSnapshot()
	t.Logf("%d records in %d PUBLISHes, %d retransmissions", st.RecordsCaptured, st.Publishes, client.MQTTStats().Retransmissions)
	if st.AsyncErrors != 0 {
		t.Errorf("async errors = %d, want 0", st.AsyncErrors)
	}
	if st.Publishes == 0 || st.Publishes >= st.RecordsCaptured {
		t.Errorf("%d PUBLISHes for %d records, want fewer PUBLISHes than records", st.Publishes, st.RecordsCaptured)
	}
	if client.MQTTStats().Retransmissions == 0 {
		t.Error("no retransmissions: the link did not lose anything")
	}
}

// TestPackFailureCountsEveryFrame: a partitioned client loses nothing,
// although the silence ends its session (1.5 keepalives), and Flush
// waits the partition out. Only Shutdown's deadline gives the frames up:
// each counts one AsyncError, and OnError is called at most once per
// PUBLISH.
func TestPackFailureCountsEveryFrame(t *testing.T) {
	fault := chaos.NewFault(1)
	var reported atomic.Int64
	client, _, _ := startPipeline(t, func(c *Config) {
		c.Transport = fault.Transport(transport.UDP{})
		c.WindowSize = 1
		c.KeepAlive = 200 * time.Millisecond
		// No redial within the test, so no failed dial reaches OnError.
		c.ReconnectMinDelay = time.Minute
		c.ReconnectMaxDelay = time.Minute
		c.OnError = func(error) { reported.Add(1) }
	})
	fault.Partition() // the device's sends vanish; its socket stays open
	const tasks = 10
	for i := 0; i < tasks; i++ {
		captureTask(t, client, "lost", i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for client.StatsSnapshot().NextRetryUnixNano == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the session outlived the partition: %+v", client.StatsSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- client.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned during the partition: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
	st := client.StatsSnapshot()
	if st.AsyncErrors != 0 || reported.Load() != 0 {
		t.Fatalf("%d async errors, %d reported, during the partition; want none", st.AsyncErrors, reported.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := client.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v, want DeadlineExceeded", err)
	}
	select {
	case <-flushed:
	case <-time.After(5 * time.Second):
		t.Fatal("Flush still waiting after Shutdown")
	}
	st = client.StatsSnapshot()
	t.Logf("%d frames in %d PUBLISHes", st.FramesPublished, st.Publishes)
	if st.FramesPublished != 2*tasks {
		t.Fatalf("frames queued = %d, want %d", st.FramesPublished, 2*tasks)
	}
	if st.AsyncErrors != st.FramesPublished {
		t.Errorf("async errors = %d, want one per lost frame (%d)", st.AsyncErrors, st.FramesPublished)
	}
	if st.Publishes >= st.FramesPublished {
		t.Errorf("%d PUBLISHes for %d frames: nothing was packed", st.Publishes, st.FramesPublished)
	}
	if n := reported.Load(); n < 1 || uint64(n) > st.Publishes {
		t.Errorf("OnError called %d times for %d PUBLISHes", n, st.Publishes)
	}
}

// TestPackPartitionHealDeliversOnceInOrder: a burst captured while the
// device's link is partitioned, at WindowSize 16, ends the session when
// the silence outlasts 1.5 keepalives; the partition heals before the
// redial, and the next session re-sends the kept PUBLISHes, then the
// queued frames. Every record arrives once, in capture order, and nothing
// counts as an AsyncError.
func TestPackPartitionHealDeliversOnceInOrder(t *testing.T) {
	fault := chaos.NewFault(1)
	client, mem, _ := startPipeline(t, func(c *Config) {
		c.Transport = fault.Transport(transport.UDP{})
		c.WindowSize = 16
		c.KeepAlive = 200 * time.Millisecond
		c.ReconnectMinDelay = 300 * time.Millisecond
		c.ReconnectMaxDelay = 300 * time.Millisecond
	})
	fault.Partition()
	var want []string
	for i := 0; i < 60; i++ {
		captureTask(t, client, "healed", i)
		task := fmt.Sprintf("t%d", i)
		want = append(want, "healed/"+provdm.EventTaskBegin.String()+"/"+task, "healed/"+provdm.EventTaskEnd.String()+"/"+task)
		if i%3 == 0 {
			time.Sleep(time.Millisecond) // several packs
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for client.StatsSnapshot().NextRetryUnixNano == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the session outlived the partition: %+v", client.StatsSnapshot())
		}
		time.Sleep(time.Millisecond)
	}
	fault.Heal() // before the redial, which waits at least 150 ms
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	records := waitRecords(t, mem, len(want))
	time.Sleep(100 * time.Millisecond) // let a duplicate show
	if records = mem.Records(); len(records) != len(want) {
		t.Fatalf("received %d records, want %d", len(records), len(want))
	}
	for i, r := range records {
		if got := fmt.Sprintf("%s/%s/%s", r.WorkflowID, r.Event, r.TaskID); got != want[i] {
			t.Fatalf("record %d is %s, want %s (capture order)", i, got, want[i])
		}
	}
	st := client.StatsSnapshot()
	t.Logf("%d records in %d PUBLISHes over %d sessions", st.RecordsCaptured, st.Publishes, st.SpoolReconnects)
	if st.AsyncErrors != 0 {
		t.Errorf("async errors = %d, want 0", st.AsyncErrors)
	}
	if st.SpoolReconnects < 2 {
		t.Errorf("%d sessions, want a redial", st.SpoolReconnects)
	}
}

// TestWorkflowEndDoesNotWait: a memory-mode workflow ends at once while
// its device's link is partitioned (the end capture cuts the group, and
// delivery is Flush's job); the records arrive once the partition heals.
func TestWorkflowEndDoesNotWait(t *testing.T) {
	fault := chaos.NewFault(1)
	client, mem, _ := startPipeline(t, func(c *Config) {
		c.Transport = fault.Transport(transport.UDP{})
		c.GroupSize = 4
		c.ReconnectMinDelay = 100 * time.Millisecond
		c.ReconnectMaxDelay = 100 * time.Millisecond
	})
	fault.Partition()
	w := client.NewWorkflow("partitioned")
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	task := w.NewTask("t0", "tr")
	if err := task.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := task.End(); err != nil {
		t.Fatal(err)
	}
	ended := make(chan error, 1)
	go func() { ended <- w.End() }()
	select {
	case err := <-ended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(100 * time.Millisecond):
		fault.Heal() // releases End, so the test's client can close
		t.Fatal("End still waiting 100ms into a partition")
	}
	fault.Heal()
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if records := waitRecords(t, mem, 4); len(records) != 4 {
		t.Fatalf("received %d records, want 4", len(records))
	}
}

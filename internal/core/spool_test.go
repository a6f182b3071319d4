package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

func captureTask(t testing.TB, c *Client, wf string, i int) {
	t.Helper()
	w := c.NewWorkflow(wf)
	task := w.NewTask(fmt.Sprintf("t%d", i), "train")
	if err := task.Begin(NewData(fmt.Sprintf("in%d", i), Attrs(map[string]any{"lr": 0.01}))); err != nil {
		t.Fatalf("begin %d: %v", i, err)
	}
	if err := task.End(NewData(fmt.Sprintf("out%d", i), Attrs(map[string]any{"acc": float64(i)}))); err != nil {
		t.Fatalf("end %d: %v", i, err)
	}
}

// TestQueueFullDropsAndCounts pins the backpressure contract: with no
// spool and a full transmit queue, Capture fails fast with ErrQueueFull
// and counts the drop — it never blocks the workload.
func TestQueueFullDropsAndCounts(t *testing.T) {
	// A broker that accepts the session but a queue of 1 with a slow
	// (high-latency) path would be flaky; instead just stop the sender
	// from draining by pointing at a broker, connecting, then filling the
	// queue faster than QoS 2 over loopback can drain a queue of 2.
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	client, err := NewClient(context.Background(), Config{
		Broker:        b.Addr(),
		ClientID:      "qf-device",
		QueueCapacity: 1,
		WindowSize:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var dropped int
	for i := 0; i < 500; i++ {
		rec := &provdm.Record{Event: provdm.EventWorkflowBegin, WorkflowID: fmt.Sprintf("w%d", i), Time: time.Now()}
		if err := client.Capture(rec); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("capture %d: %v", i, err)
			}
			dropped++
		}
	}
	st := client.StatsSnapshot()
	if dropped == 0 || st.QueueFull != uint64(dropped) {
		t.Fatalf("dropped=%d QueueFull=%d (want equal, nonzero)", dropped, st.QueueFull)
	}
	if st.FramesPublished+st.QueueFull != 500 {
		t.Fatalf("published %d + dropped %d != 500", st.FramesPublished, st.QueueFull)
	}
}

// TestSpoolPipelineEndToEnd drives the full durable path: spooling client
// -> broker -> translator -> target, with end-to-end acks draining the
// spool.
func TestSpoolPipelineEndToEnd(t *testing.T) {
	mem := translate.NewMemoryTarget()
	srv, err := StartServer(context.Background(), ServerConfig{
		Addr:    "127.0.0.1:0",
		Targets: []translate.Target{mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewClient(context.Background(), Config{
		Broker:            srv.Addr(),
		ClientID:          "spool-device",
		SpoolDir:          t.TempDir(),
		RedeliverAfter:    500 * time.Millisecond,
		ReconnectMinDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		captureTask(t, client, "wf", i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, client.StatsSnapshot())
	}
	st := client.StatsSnapshot()
	if st.FramesSpooled != 2*n {
		t.Fatalf("FramesSpooled = %d, want %d", st.FramesSpooled, 2*n)
	}
	if st.SpoolAcked != 2*n || st.SpoolPending != 0 {
		t.Fatalf("acked=%d pending=%d, want %d/0", st.SpoolAcked, st.SpoolPending, 2*n)
	}
	srv.Drain()
	if got := mem.Len(); got != 2*n {
		t.Fatalf("memory target has %d records, want %d", got, 2*n)
	}
}

// TestSpoolSurvivesBrokerOutage starts capturing with no broker at all,
// then brings the server up: the drainer's reconnect loop must find it
// and drain everything without losing a record.
func TestSpoolSurvivesBrokerOutage(t *testing.T) {
	// No broker listens on loopAddr yet, so the drainer's first dials fail.
	lb := transport.NewLoopback()
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "outage-device",
		SpoolDir:          t.TempDir(),
		RedeliverAfter:    500 * time.Millisecond,
		ReconnectMinDelay: 50 * time.Millisecond,
		ReconnectMaxDelay: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient must succeed with the broker down: %v", err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		captureTask(t, client, "wf", i)
	}
	if st := client.StatsSnapshot(); st.FramesSpooled != 2*n || st.SpoolAcked != 0 {
		t.Fatalf("before broker: spooled=%d acked=%d", st.FramesSpooled, st.SpoolAcked)
	}

	mem := translate.NewMemoryTarget()
	srv := startLoopServer(t, lb, mem)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after outage: %v (stats %+v)", err, client.StatsSnapshot())
	}
	st := client.StatsSnapshot()
	if st.SpoolAcked != 2*n {
		t.Fatalf("acked = %d, want %d", st.SpoolAcked, 2*n)
	}
	if st.SpoolReconnects == 0 {
		t.Fatal("no reconnects counted")
	}
	srv.tr.Drain()
	if got := mem.Len(); got != 2*n {
		t.Fatalf("memory target has %d records, want %d", got, 2*n)
	}
}

// TestSpoolClientCrashResume: Abort mid-stream (simulated SIGKILL), then
// a new client on the same spool dir finishes the job; the server sees
// every record exactly once (dedup absorbs the redeliveries).
func TestSpoolClientCrashResume(t *testing.T) {
	store := translate.NewStoreTarget(newTestStore(t), "provlight")
	srv, err := StartServer(context.Background(), ServerConfig{
		Addr:    "127.0.0.1:0",
		Targets: []translate.Target{store},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dir := t.TempDir()
	mkClient := func(id string) *Client {
		c, err := NewClient(context.Background(), Config{
			Broker:            srv.Addr(),
			ClientID:          id,
			Topic:             DefaultTopic("crash-device"), // same identity across restarts
			SpoolDir:          dir,
			RedeliverAfter:    400 * time.Millisecond,
			ReconnectMinDelay: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	const n = 60
	c1 := mkClient("crash-device")
	for i := 0; i < n/2; i++ {
		captureTask(t, c1, "wf", i)
	}
	// Give the drainer a moment to publish some (but likely not persist
	// every ack), then crash.
	time.Sleep(300 * time.Millisecond)
	c1.Abort()

	c2 := mkClient("crash-device")
	for i := n / 2; i < n; i++ {
		captureTask(t, c2, "wf", i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c2.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, c2.StatsSnapshot())
	}
	srv.Drain()
	if got := store.Store().TaskCount("provlight"); got != n {
		t.Fatalf("store has %d tasks, want exactly %d (lost or duplicated)", got, n)
	}
	rows, err := store.Store().Select(context.Background(), querySelectAll("train_output"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("output rows = %d, want exactly %d", len(rows), n)
	}
}

func newTestStore(t *testing.T) *dfanalyzer.Store { return dfanalyzer.NewStore() }

func querySelectAll(set string) dfanalyzer.Query {
	return dfanalyzer.Query{Dataflow: "provlight", Set: set}
}

// TestSpoolReconnectsAfterMidStreamBrokerDeath is the session-recycle
// regression: the broker dies while frames are in flight, so a publish
// exhausts its retries and the error collector closes the session from
// our own side — a path OnDisconnect deliberately does not report. The
// drainer must still notice (via the session's Done channel), back off,
// and reconnect once a broker is listening again.
func TestSpoolReconnectsAfterMidStreamBrokerDeath(t *testing.T) {
	// One store target shared by both server incarnations, so exactly-once
	// is assertable across the outage (frames acked by either server land
	// in the same store).
	store := translate.NewStoreTarget(dfanalyzer.NewStore(), "provlight")
	lb := transport.NewLoopback()
	srv := startLoopServer(t, lb, store)
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "midstream-device",
		SpoolDir:          t.TempDir(),
		RedeliverAfter:    400 * time.Millisecond,
		ReconnectMinDelay: 50 * time.Millisecond,
		ReconnectMaxDelay: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n/2; i++ {
		captureTask(t, client, "wf", i)
	}
	// Let some frames ack, then kill the whole server mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for client.StatsSnapshot().SpoolAcked == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	srv.Close()
	for i := n / 2; i < n; i++ {
		captureTask(t, client, "wf", i)
	}
	// Give the in-flight publishes time to exhaust retries and recycle
	// the session (the wedge this test guards against).
	time.Sleep(600 * time.Millisecond)

	srv2 := startLoopServer(t, lb, store)
	defer srv2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("drain after mid-stream broker death: %v (stats %+v)", err, client.StatsSnapshot())
	}
	st := client.StatsSnapshot()
	if st.SpoolPending != 0 || st.SpoolReconnects < 2 {
		t.Fatalf("pending=%d reconnects=%d (want 0 pending, >=2 sessions)", st.SpoolPending, st.SpoolReconnects)
	}
	srv2.tr.Drain()
	if got := store.Store().TaskCount("provlight"); got != n {
		t.Fatalf("store has %d tasks, want exactly %d", got, n)
	}
}

// TestShutdownDrainKeepsAckWindowMoving: Shutdown waiting for the spool
// to drain must not take the ack-progress wakeup the drainer sleeps on in
// a full ack window, or the drain stalls until RedeliverAfter.
func TestShutdownDrainKeepsAckWindowMoving(t *testing.T) {
	srv, err := StartServer(context.Background(), ServerConfig{
		Addr:    "127.0.0.1:0",
		Targets: []translate.Target{translate.NewMemoryTarget()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewClient(context.Background(), Config{
		Broker:         srv.Addr(),
		ClientID:       "window-drain",
		SpoolDir:       t.TempDir(),
		AckWindow:      1,
		RedeliverAfter: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 50
	for i := 0; i < tasks; i++ {
		captureTask(t, client, "wf", i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, client.StatsSnapshot())
	}
	if st := client.StatsSnapshot(); st.SpoolAcked != 2*tasks {
		t.Fatalf("acked %d frames, want %d", st.SpoolAcked, 2*tasks)
	}
}

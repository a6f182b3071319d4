// Kill-and-restart end-to-end tests for the durability subsystem: a
// spooling capture client over a lossy netem link, a translator backed by
// a WAL+snapshot store, and crashes (abrupt teardown, exactly as a
// SIGKILL leaves the persistent state) injected mid-stream on both sides.
// The invariant under test is exactly-once: after everything restarts and
// drains, the store holds every record exactly once — zero lost, zero
// duplicated.
package provlight_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wal"
)

func newSpoolingClient(t testing.TB, brokerAddr, spoolDir string) *provlight.Client {
	t.Helper()
	// 25 % loss and 10 % duplication; the n-th session (from 0) dials a
	// link with seed 1001+n.
	lossy := netem.WrapTransport(transport.UDP{}, netem.Profile{LossRate: 0.25, DupRate: 0.10, Seed: 1001})
	client, err := provlight.NewClient(context.Background(), provlight.Config{
		Broker:            brokerAddr,
		ClientID:          "edge-1",
		SpoolDir:          spoolDir,
		Transport:         lossy,
		AckWindow:         32,
		RedeliverAfter:    500 * time.Millisecond,
		ReconnectMinDelay: 50 * time.Millisecond,
		ReconnectMaxDelay: 400 * time.Millisecond,
		OnError:           func(err error) { t.Logf("client: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func startDurableTranslator(t testing.TB, brokerAddr, storeDir, clientID string) (*translate.Translator, *dfanalyzer.Store) {
	t.Helper()
	store, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
		Dir:           storeDir,
		Sync:          wal.SyncInterval,
		SnapshotEvery: 16, // exercise snapshots during the test
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tr, err := translate.New(ctx, translate.Config{
		Broker:   brokerAddr,
		ClientID: clientID,
		Targets:  []translate.Target{translate.NewStoreTarget(store, "provlight")},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, store
}

func captureRange(t testing.TB, client *provlight.Client, from, to int) {
	t.Helper()
	wf := client.NewWorkflow("wf")
	for i := from; i < to; i++ {
		task := wf.NewTask(fmt.Sprintf("t%04d", i), "train")
		if err := task.Begin(provlight.NewData(fmt.Sprintf("in%d", i),
			provlight.Attrs(map[string]any{"lr": 0.01}))); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if err := task.End(provlight.NewData(fmt.Sprintf("out%d", i),
			provlight.Attrs(map[string]any{"accuracy": float64(i)}))); err != nil {
			t.Fatalf("end %d: %v", i, err)
		}
	}
}

// assertExactlyOnce checks the store holds records [0, n) exactly once.
func assertExactlyOnce(t testing.TB, store *dfanalyzer.Store, n int) {
	t.Helper()
	if got := store.TaskCount("provlight"); got != n {
		t.Fatalf("task catalog has %d entries, want exactly %d", got, n)
	}
	for _, set := range []string{"train_input", "train_output"} {
		rows, err := store.Select(context.Background(), dfanalyzer.Query{Dataflow: "provlight", Set: set})
		if err != nil {
			t.Fatalf("select %s: %v", set, err)
		}
		if len(rows) != n {
			t.Fatalf("%s has %d rows, want exactly %d (lost or duplicated)", set, len(rows), n)
		}
		seen := map[any]bool{}
		for _, row := range rows {
			id := row["task_id"]
			if seen[id] {
				t.Fatalf("%s: duplicated task %v", set, id)
			}
			seen[id] = true
		}
	}
}

// TestKillRestartExactlyOnce is the headline crash test: over a 25%-loss
// link, the translator (with its durable store) is killed mid-stream,
// then the client is killed too; both restart and the drained pipeline
// must hold every record exactly once.
func TestKillRestartExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("crash e2e in -short mode")
	}
	t.Parallel() // mostly waits for re-sends on the lossy link
	spoolDir, storeDir := t.TempDir(), t.TempDir()
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 36
	tr1, store1 := startDurableTranslator(t, b.Addr(), storeDir, "translator-a")
	client1 := newSpoolingClient(t, b.Addr(), spoolDir)

	// Phase 1: capture a third, let some of it flow.
	captureRange(t, client1, 0, n/3)
	time.Sleep(400 * time.Millisecond)

	// SIGKILL the translator mid-stream: frames the broker already
	// acknowledged (the hop's PUBACK) but not yet durably applied die
	// with it; unacked spool frames must cover them.
	tr1.Abort()
	if err := store1.Close(); err != nil { // crash-equivalent: no snapshot, WAL only
		t.Fatal(err)
	}

	// Phase 2: the client keeps capturing into the dead air, then crashes
	// too (no flush, no ack-mark persistence).
	captureRange(t, client1, n/3, 2*n/3)
	time.Sleep(200 * time.Millisecond)
	client1.Abort()

	// Phase 3: both sides restart from their directories.
	tr2, store2 := startDurableTranslator(t, b.Addr(), storeDir, "translator-b")
	client2 := newSpoolingClient(t, b.Addr(), spoolDir)
	captureRange(t, client2, 2*n/3, n)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := client2.Shutdown(ctx); err != nil {
		t.Fatalf("drain after restart: %v (stats %+v)", err, client2.StatsSnapshot())
	}
	tr2.Drain()
	st := client2.StatsSnapshot()
	if st.SpoolPending != 0 {
		t.Fatalf("spool still pending %d frames", st.SpoolPending)
	}
	assertExactlyOnce(t, store2, n)

	// And the store state itself survives another restart.
	if err := tr2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	store3, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{Dir: storeDir})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	assertExactlyOnce(t, store3, n)
	t.Logf("exactly-once after double crash: %d tasks; client stats %+v", n, st)
}

// TestServerCrashRecoversSnapshotAndTail kills the store-side process
// between snapshots and replays the tail: the acceptance criterion's
// "SIGKILL of dfanalyzer-server at arbitrary points" half, driven
// through the HTTP server.
func TestServerCrashRecoversSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	store, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{Dir: dir, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv := dfanalyzer.NewServer(store)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	cl := dfanalyzer.NewClient("http://" + srv.Addr())
	spec := &dfanalyzer.Dataflow{Tag: "provlight", Transformations: []dfanalyzer.Transformation{{
		Tag:    "train",
		Output: []dfanalyzer.SetSchema{{Tag: "train_output", Attributes: []dfanalyzer.Attribute{{Name: "accuracy", Type: dfanalyzer.Numeric}}}},
	}}}
	if err := cl.RegisterDataflow(spec); err != nil {
		t.Fatal(err)
	}
	const n = 21
	for i := 0; i < n; i++ {
		frame := []dfanalyzer.FrameMsg{{
			Origin: "provlight/edge-1/records", Seq: uint64(i + 1),
			Tasks: []*dfanalyzer.TaskMsg{{
				Dataflow: "provlight", Transformation: "train", ID: fmt.Sprintf("t%d", i),
				Status: dfanalyzer.StatusFinished,
				Sets:   []dfanalyzer.SetData{{Tag: "train_output", Elements: []dfanalyzer.Element{{float64(i)}}}},
			}},
		}}
		if err := cl.SendFrames(frame); err != nil {
			t.Fatalf("send frame %d: %v", i, err)
		}
	}
	// SIGKILL the server: no final snapshot, just what WAL + the periodic
	// snapshots persisted.
	srv.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{Dir: dir, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := store2.TaskCount("provlight"); got != n {
		t.Fatalf("recovered %d tasks, want %d", got, n)
	}
	// Redelivering every frame against the recovered server must be a
	// complete no-op.
	srv2 := dfanalyzer.NewServer(store2)
	if err := srv2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl2 := dfanalyzer.NewClient("http://" + srv2.Addr())
	for i := 0; i < n; i++ {
		frame := []dfanalyzer.FrameMsg{{
			Origin: "provlight/edge-1/records", Seq: uint64(i + 1),
			Tasks: []*dfanalyzer.TaskMsg{{
				Dataflow: "provlight", Transformation: "train", ID: fmt.Sprintf("t%d", i),
				Status: dfanalyzer.StatusFinished,
				Sets:   []dfanalyzer.SetData{{Tag: "train_output", Elements: []dfanalyzer.Element{{float64(i)}}}},
			}},
		}}
		if err := cl2.SendFrames(frame); err != nil {
			t.Fatalf("redeliver frame %d: %v", i, err)
		}
	}
	rows, err := store2.Select(context.Background(), dfanalyzer.Query{Dataflow: "provlight", Set: "train_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("after full redelivery: %d rows, want exactly %d", len(rows), n)
	}
}

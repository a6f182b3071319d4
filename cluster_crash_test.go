// Crash e2e tests for cluster self-healing: a node of a 3-node broker
// cluster is killed (SIGKILL semantics — no Leave, no drain, no goodbye
// on the wire) in the middle of a live capture stream. The failure
// detector must notice, crash takeover must reassign the dead node's
// partitions and redeliver the retained link frames, and the end-to-end
// machinery (device spools, end-to-end acks, store dedup) must converge
// the pipeline to exactly-once despite the frames that died inside the
// killed broker.
package provlight_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	provlight "github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/cluster"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wal"
)

const crashSuspectTimeout = 600 * time.Millisecond

func newCrashCluster(t testing.TB, lb transport.Transport) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Config{
		Nodes:             3,
		Transport:         lb,
		RetryInterval:     time.Second,
		DrainTimeout:      20 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectTimeout:    crashSuspectTimeout,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// killAndAwaitTakeover kills a node and waits for the detector to remove
// it, returning the detection+takeover latency.
func killAndAwaitTakeover(t testing.TB, cl *cluster.Cluster, id string) time.Duration {
	t.Helper()
	killAt := time.Now()
	if err := cl.Kill(id); err != nil {
		t.Fatalf("kill %s: %v", id, err)
	}
	deadline := killAt.Add(30 * time.Second)
	for len(cl.NodeIDs()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("detector never removed %s", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(killAt)
}

// TestClusterPipelineCrash is the self-healing headline: spooling devices
// stream through a 3-node cluster into a durable store while one node is
// killed mid-stream. The detector fires within its budget, partitions
// reassign, and — after the spool/ack/dedup machinery drains — the store
// holds every record exactly once. Frames that died inside the killed
// broker are re-published by the device spools; frames the takeover
// redelivered twice are deduplicated by the store's frame-origin dedup.
func TestClusterPipelineCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash e2e in -short mode")
	}
	lb := transport.NewLoopback()
	cl := newCrashCluster(t, lb)
	addrs := cl.Addrs()

	store, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
		Dir:           t.TempDir(),
		Sync:          wal.SyncInterval,
		SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tr, err := translate.New(context.Background(), translate.Config{
		ClusterAddrs:  addrs,
		Transport:     lb,
		ClientID:      "crash-translator",
		KeepAlive:     300 * time.Millisecond,
		RetryInterval: 200 * time.Millisecond,
		MaxRetries:    10,
		Targets:       []translate.Target{translate.NewStoreTarget(store, "provlight")},
	})
	if err != nil {
		t.Fatalf("translate.New: %v", err)
	}
	defer tr.Close()

	const devices = 4
	const tasks = 40
	clients := make([]*provlight.Client, devices)
	for d := range clients {
		c, err := provlight.NewClient(context.Background(), provlight.Config{
			Broker:         addrs[d%2], // n0, n1 — the survivors
			Transport:      lb,
			ClientID:       fmt.Sprintf("dev-%d", d),
			SpoolDir:       t.TempDir(),
			WindowSize:     16,
			AckWindow:      32,
			RedeliverAfter: 500 * time.Millisecond,
			RetryInterval:  time.Second,
			OnError:        func(err error) { t.Logf("device: %v", err) },
		})
		if err != nil {
			t.Fatalf("device %d: %v", d, err)
		}
		defer c.Close()
		clients[d] = c
	}

	kill := make(chan struct{})
	takeoverDone := make(chan time.Duration, 1)
	go func() {
		<-kill
		takeoverDone <- killAndAwaitTakeover(t, cl, "n2")
	}()

	start := time.Now()
	errs := make(chan error, devices)
	for d := range clients {
		go func(d int) {
			wf := clients[d].NewWorkflow(fmt.Sprintf("wf-%d", d))
			if err := wf.Begin(); err != nil {
				errs <- fmt.Errorf("device %d workflow begin: %w", d, err)
				return
			}
			for i := 0; i < tasks; i++ {
				task := wf.NewTask(fmt.Sprintf("d%d-t%04d", d, i), "train")
				if err := task.Begin(provlight.NewData(fmt.Sprintf("in-%d-%d", d, i),
					provlight.Attrs(map[string]any{"lr": 0.01}))); err != nil {
					errs <- fmt.Errorf("device %d task %d begin: %w", d, i, err)
					return
				}
				if err := task.End(provlight.NewData(fmt.Sprintf("out-%d-%d", d, i),
					provlight.Attrs(map[string]any{"accuracy": float64(i)}))); err != nil {
					errs <- fmt.Errorf("device %d task %d end: %w", d, i, err)
					return
				}
				if d == 0 && i == tasks/3 {
					close(kill)
				}
			}
			errs <- nil
		}(d)
	}
	for i := 0; i < devices; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	detectLatency := <-takeoverDone

	// Drain every device spool: Shutdown only returns once each frame has
	// been end-to-end acknowledged by the translator, which means it was
	// durably applied (or deduplicated) by the store.
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for d, c := range clients {
		if err := c.Shutdown(ctx); err != nil {
			t.Fatalf("device %d drain: %v (stats %+v)", d, err, c.StatsSnapshot())
		}
	}
	tr.Drain()
	elapsed := time.Since(start)

	const n = devices * tasks
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

	// The detector's latency budget: suspicion needs one timeout of
	// silence, confirmation and takeover must not take another.
	if detectLatency > 2*crashSuspectTimeout {
		t.Errorf("takeover took %v, budget 2x suspicion timeout = %v", detectLatency, 2*crashSuspectTimeout)
	}
	topo := cl.Topology()
	for p, owner := range topo.Owners {
		if owner == "n2" {
			t.Fatalf("partition %d still owned by killed n2", p)
		}
	}
	redelivered, lost := uint64(0), uint64(0)
	for _, st := range cl.Stats() {
		redelivered += st.TakeoverRedelivered
		lost += st.LinkLost
	}
	rate := float64(2*n+devices) / elapsed.Seconds()
	t.Logf("takeover in %v; %d records at %.0f frames/s; %d redelivered, %d link-lost",
		detectLatency, n, rate, redelivered, lost)
}

// TestTranslatorFailoverOnNodeDeath: a node dies WITHOUT a clean Leave —
// its broker just stops answering (no DISCONNECT goes out on loopback; a
// dead endpoint swallows datagrams silently). The translator session
// homed on it must notice via keepalive silence, redial a surviving
// node, and the stream must stay exactly-once: records published before
// the kill are fully quiesced, records published after it route through
// the survivors (including takeover redelivery of frames retained toward
// the corpse), so the target must end with every record exactly once.
func TestTranslatorFailoverOnNodeDeath(t *testing.T) {
	lb := transport.NewLoopback()
	cl := newCrashCluster(t, lb)

	mem := translate.NewMemoryTarget()
	tr, err := translate.New(context.Background(), translate.Config{
		ClusterAddrs:  cl.Addrs(),
		Transport:     lb,
		ClientID:      "failover-translator",
		KeepAlive:     300 * time.Millisecond,
		RetryInterval: 200 * time.Millisecond,
		MaxRetries:    10,
		Targets:       []translate.Target{mem},
		DisableAcks:   true,
	})
	if err != nil {
		t.Fatalf("translate.New: %v", err)
	}
	defer tr.Close()
	if got := tr.Sessions(); got != 3 {
		t.Fatalf("translator opened %d sessions, want one per node", got)
	}

	dev, err := provlight.NewClient(context.Background(), provlight.Config{
		Broker:     cl.Addrs()[0],
		Transport:  lb,
		ClientID:   "dev-0",
		WindowSize: 16,
	})
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close()

	// Phase 1: capture and fully quiesce, so nothing is in flight when
	// the node dies (in-flight frames need spool+dedup to stay exactly-
	// once through a crash — that path is TestClusterPipelineCrash's).
	const tasks = 15
	wf := dev.NewWorkflow("wf-failover")
	if err := wf.Begin(); err != nil {
		t.Fatalf("workflow begin: %v", err)
	}
	capture := func(from, to int) {
		for i := from; i < to; i++ {
			task := wf.NewTask(fmt.Sprintf("t%04d", i), "step")
			if err := task.Begin(provlight.NewData(fmt.Sprintf("in-%d", i), nil)); err != nil {
				t.Fatalf("task %d begin: %v", i, err)
			}
			if err := task.End(provlight.NewData(fmt.Sprintf("out-%d", i), nil)); err != nil {
				t.Fatalf("task %d end: %v", i, err)
			}
		}
		if err := dev.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	capture(0, tasks)
	phase1 := 1 + 2*tasks
	waitRecords(t, mem, phase1)

	// The node dies. No Leave, no drain, no goodbye.
	latency := killAndAwaitTakeover(t, cl, "n2")
	t.Logf("takeover in %v", latency)

	// Phase 2: the stream continues; topics previously owned by n2 now
	// route to survivors, and the translator's third session redials.
	capture(tasks, 2*tasks)
	want := 1 + 2*2*tasks
	waitRecords(t, mem, want)
	tr.Drain()
	if got := mem.Len(); got != want {
		t.Fatalf("target has %d records, want exactly %d (duplicate delivery)", got, want)
	}
	// The session homed on the dead node notices via keepalive silence
	// (1.5x KeepAlive of nothing heard) and redials a survivor; that can
	// trail the record stream, which survivors' group members already
	// cover.
	deadline := time.Now().Add(30 * time.Second)
	for tr.Stats().SessionRedials == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("translator never redialed a session: %+v", tr.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitRecords(t testing.TB, mem *translate.MemoryTarget, want int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("target has %d/%d records", mem.Len(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

package provlight_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	provlight "github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/cluster"
	"github.com/provlight/provlight/internal/core"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// TestObservabilityEndToEnd drives the full capture pipeline — devices,
// a 2-node broker cluster, a cluster-aware translator — with one shared
// metrics registry and asserts the end-to-end frame trace populated a
// latency histogram at every stage: capture→publish, broker routing,
// the cluster forward hop, translation, and durable apply. One device
// is deliberately connected to the node that does NOT own its topic so
// at least part of the stream crosses a bridge link.
func TestObservabilityEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	lb := transport.NewLoopback()
	cl, err := cluster.New(cluster.Config{
		Nodes:     2,
		Transport: lb,
		Metrics:   reg,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer cl.Close()

	mem := translate.NewMemoryTarget()
	tr, err := translate.New(context.Background(), translate.Config{
		ClusterAddrs: cl.Addrs(),
		Transport:    lb,
		ClientID:     "obs-translator",
		Targets:      []translate.Target{mem},
		DisableAcks:  true,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatalf("translate.New: %v", err)
	}
	defer tr.Close()

	// Pick one device whose topic partition is owned by the node it
	// connects to (local routing) and one owned by the other node
	// (forwarded over a bridge link) — both connect to node 0, so the
	// second is guaranteed to exercise the forward hop.
	topo := cl.Topology()
	ownerOf := func(id string) string {
		return topo.Owners[cluster.PartitionOf(core.DefaultTopic(id), topo.Partitions)]
	}
	var localID, remoteID string
	for i := 0; (localID == "" || remoteID == "") && i < 1000; i++ {
		id := fmt.Sprintf("obs-dev-%d", i)
		switch ownerOf(id) {
		case "n0":
			if localID == "" {
				localID = id
			}
		case "n1":
			if remoteID == "" {
				remoteID = id
			}
		}
	}
	if localID == "" || remoteID == "" {
		t.Fatalf("could not find device ids on both sides of the partition map")
	}

	const tasks = 20
	addr := cl.Addrs()[0]
	for _, id := range []string{localID, remoteID} {
		c, err := provlight.NewClient(context.Background(), provlight.Config{
			Broker:     addr,
			Transport:  lb,
			ClientID:   id,
			WindowSize: 16,
			Metrics:    reg,
		})
		if err != nil {
			t.Fatalf("client %s: %v", id, err)
		}
		defer c.Close()
		wf := c.NewWorkflow("wf-" + id)
		if err := wf.Begin(); err != nil {
			t.Fatalf("%s workflow begin: %v", id, err)
		}
		for i := 0; i < tasks; i++ {
			task := wf.NewTask(fmt.Sprintf("t%04d", i), "step")
			if err := task.Begin(provlight.NewData(fmt.Sprintf("in-%d", i), nil)); err != nil {
				t.Fatalf("%s task %d begin: %v", id, i, err)
			}
			if err := task.End(provlight.NewData(fmt.Sprintf("out-%d", i), nil)); err != nil {
				t.Fatalf("%s task %d end: %v", id, i, err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("%s flush: %v", id, err)
		}
	}

	want := 2 * (1 + 2*tasks)
	deadline := time.Now().Add(60 * time.Second)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("target has %d/%d records", mem.Len(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tr.Drain()

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	sc, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}

	// Every pipeline stage must have observed at least one traced frame.
	for _, stage := range []string{
		obs.StageCapturePublish,
		obs.StageBrokerRoute,
		obs.StageForwardHop,
		obs.StageTranslate,
		obs.StageDurableApply,
	} {
		n, ok := sc.Value(obs.StageLatencyName+"_count", "stage", stage)
		if !ok {
			t.Errorf("stage %q: histogram missing from exposition", stage)
			continue
		}
		if n <= 0 {
			t.Errorf("stage %q: histogram count = %v, want > 0", stage, n)
		}
		sum, _ := sc.Value(obs.StageLatencyName+"_sum", "stage", stage)
		if sum < 0 {
			t.Errorf("stage %q: negative latency sum %v", stage, sum)
		}
	}

	// Cluster health families: per-node broker counters and per-peer
	// link gauges, labeled by node identity.
	if v, ok := sc.Value("provlight_broker_publishes_received_total", "node", "n0"); !ok || v <= 0 {
		t.Errorf("n0 publishes_received = %v (present=%v), want > 0", v, ok)
	}
	if _, ok := sc.Value("provlight_cluster_peer_heartbeat_age_seconds", "node", "n0", "peer", "n1"); !ok {
		t.Errorf("per-peer heartbeat age gauge missing")
	}
	if v, ok := sc.Value("provlight_cluster_link_up", "node", "n1", "peer", "n0"); !ok || v != 1 {
		t.Errorf("n1->n0 link_up = %v (present=%v), want 1", v, ok)
	}

	// Per-client capture counters, labeled by client id. The sender packs
	// queued frames, so a client sends at most one PUBLISH per record.
	for _, id := range []string{localID, remoteID} {
		if v, ok := sc.Value("provlight_client_records_captured_total", "client", id); !ok || v != float64(1+2*tasks) {
			t.Errorf("client %s records_captured = %v (present=%v), want %d", id, v, ok, 1+2*tasks)
		}
		if v, ok := sc.Value("provlight_client_publishes_total", "client", id); !ok || v < 1 || v > float64(1+2*tasks) {
			t.Errorf("client %s publishes = %v (present=%v), want 1..%d", id, v, ok, 1+2*tasks)
		}
	}
	if err := sc.Lint(); err != nil {
		t.Errorf("exposition fails the naming lint: %v", err)
	}

	// Translator counters from the same registry.
	if v, ok := sc.Value("provlight_translate_records_total"); !ok || v != float64(want) {
		t.Errorf("translate records_total = %v (present=%v), want %d", v, ok, want)
	}
}

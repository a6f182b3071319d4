package provlight_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	provlight "github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/cluster"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// TestClusterPipelineLeave drives the full capture pipeline through a
// 3-node broker cluster: devices connected to two different nodes, a
// cluster-aware translator with a consumer-group member on every node,
// and a node leave in the middle of the stream. Every record must reach
// the target exactly once, and each workflow's records must arrive in
// capture order — the tier's headline guarantee.
func TestClusterPipelineLeave(t *testing.T) {
	lb := transport.NewLoopback()
	cl, err := cluster.New(cluster.Config{
		Nodes:        3,
		Transport:    lb,
		DrainTimeout: 20 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer cl.Close()

	mem := translate.NewMemoryTarget()
	tr, err := translate.New(context.Background(), translate.Config{
		ClusterAddrs: cl.Addrs(),
		Transport:    lb,
		ClientID:     "cluster-translator",
		Targets:      []translate.Target{mem},
		DisableAcks:  true,
	})
	if err != nil {
		t.Fatalf("translate.New: %v", err)
	}
	defer tr.Close()
	if got := tr.Sessions(); got != 3 {
		t.Fatalf("translator opened %d sessions, want one per node", got)
	}

	// Devices on the two surviving nodes (a device on the leaving node
	// would need a spool to outlive its broker; that path is covered by
	// the store-and-forward tests).
	const devices = 4
	const tasks = 30
	addrs := cl.Addrs()
	clients := make([]*provlight.Client, devices)
	for d := range clients {
		c, err := provlight.NewClient(context.Background(), provlight.Config{
			Broker:     addrs[d%2], // n0, n1
			Transport:  lb,
			ClientID:   fmt.Sprintf("dev-%d", d),
			WindowSize: 16,
		})
		if err != nil {
			t.Fatalf("device %d: %v", d, err)
		}
		defer c.Close()
		clients[d] = c
	}

	leave := make(chan struct{})
	left := make(chan error, 1)
	go func() {
		<-leave
		left <- cl.Leave(context.Background(), "n2")
	}()

	errs := make(chan error, devices)
	for d := range clients {
		go func(d int) {
			wf := clients[d].NewWorkflow(fmt.Sprintf("wf-%d", d))
			if err := wf.Begin(); err != nil {
				errs <- fmt.Errorf("device %d workflow begin: %w", d, err)
				return
			}
			for i := 0; i < tasks; i++ {
				task := wf.NewTask(fmt.Sprintf("t%04d", i), "step")
				if err := task.Begin(provlight.NewData(fmt.Sprintf("in-%d-%d", d, i), nil)); err != nil {
					errs <- fmt.Errorf("device %d task %d begin: %w", d, i, err)
					return
				}
				if err := task.End(provlight.NewData(fmt.Sprintf("out-%d-%d", d, i), nil)); err != nil {
					errs <- fmt.Errorf("device %d task %d end: %w", d, i, err)
					return
				}
				if d == 0 && i == tasks/3 {
					close(leave)
				}
			}
			errs <- clients[d].Flush()
		}(d)
	}
	for i := 0; i < devices; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-left; err != nil {
		t.Fatalf("leave: %v", err)
	}

	want := devices * (1 + 2*tasks)
	deadline := time.Now().Add(60 * time.Second)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("target has %d/%d records", mem.Len(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	tr.Drain()
	if got := mem.Len(); got != want {
		t.Fatalf("target has %d records, want exactly %d (duplicate delivery)", got, want)
	}

	// Per-workflow capture order must survive forwarding and migration.
	perWF := map[string][]provdm.Record{}
	for _, r := range mem.Records() {
		perWF[r.WorkflowID] = append(perWF[r.WorkflowID], r)
	}
	if len(perWF) != devices {
		t.Fatalf("records span %d workflows, want %d", len(perWF), devices)
	}
	for wf, recs := range perWF {
		if recs[0].Event != provdm.EventWorkflowBegin {
			t.Fatalf("workflow %s: first record is %v, not workflow begin", wf, recs[0].Event)
		}
		rest := recs[1:]
		if len(rest) != 2*tasks {
			t.Fatalf("workflow %s: %d task records, want %d", wf, len(rest), 2*tasks)
		}
		for i := 0; i < tasks; i++ {
			wantID := fmt.Sprintf("t%04d", i)
			begin, end := rest[2*i], rest[2*i+1]
			if begin.Event != provdm.EventTaskBegin || begin.TaskID != wantID {
				t.Fatalf("workflow %s: record %d is %v %s, want begin %s", wf, 2*i, begin.Event, begin.TaskID, wantID)
			}
			if end.Event != provdm.EventTaskEnd || end.TaskID != wantID {
				t.Fatalf("workflow %s: record %d is %v %s, want end %s", wf, 2*i+1, end.Event, end.TaskID, wantID)
			}
		}
	}

	// The leave really moved ownership: two survivors cover the space.
	topo := cl.Topology()
	for p, owner := range topo.Owners {
		if owner == "n2" {
			t.Fatalf("partition %d still owned by departed n2", p)
		}
	}
}

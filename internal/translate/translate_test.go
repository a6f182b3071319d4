package translate

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/provlake"
	"github.com/provlight/provlight/internal/wire"
)

func sampleRecords(n int) []provdm.Record {
	recs := []provdm.Record{
		{Event: provdm.EventWorkflowBegin, WorkflowID: "wf", Time: time.Now()},
	}
	for i := 0; i < n; i++ {
		recs = append(recs,
			provdm.Record{Event: provdm.EventTaskBegin, WorkflowID: "wf",
				TaskID: fmt.Sprintf("t%d", i), Transformation: "train",
				Status: provdm.StatusRunning, Time: time.Now(),
				Data: []provdm.DataRef{{ID: fmt.Sprintf("in%d", i), Attributes: []provdm.Attribute{
					{Name: "lr", Value: 0.1}, {Name: "batch", Value: int64(32)},
				}}}},
			provdm.Record{Event: provdm.EventTaskEnd, WorkflowID: "wf",
				TaskID: fmt.Sprintf("t%d", i), Transformation: "train",
				Status: provdm.StatusFinished, Time: time.Now(),
				Data: []provdm.DataRef{{ID: fmt.Sprintf("out%d", i), Attributes: []provdm.Attribute{
					{Name: "loss", Value: 1.0 / float64(i+1)}, {Name: "accuracy", Value: 0.5 + 0.01*float64(i)},
				}}}},
		)
	}
	recs = append(recs, provdm.Record{Event: provdm.EventWorkflowEnd, WorkflowID: "wf", Time: time.Now()})
	return recs
}

// publishRecords pushes records through a real broker to the translator.
func publishRecords(t *testing.T, brokerAddr string, records []provdm.Record) {
	t.Helper()
	pub, err := mqttsn.NewClient(mqttsn.ClientConfig{
		ClientID:      "pub-device",
		Gateway:       brokerAddr,
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
		CleanSession:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Connect(); err != nil {
		t.Fatal(err)
	}
	enc := wire.Encoder{}
	for i := range records {
		frame, err := enc.EncodeFrame(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish("provlight/pub-device/records", frame, mqttsn.QoS2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTranslatorToAllTargets(t *testing.T) {
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	dfaSrv := dfanalyzer.NewServer(nil)
	if err := dfaSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dfaSrv.Close()
	plSrv := provlake.NewServer(nil)
	if err := plSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer plSrv.Close()

	mem := NewMemoryTarget()
	tr, err := New(context.Background(), Config{
		Broker:        b.Addr(),
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
		Targets: []Target{
			mem,
			NewDfAnalyzerTarget(dfanalyzer.NewClient("http://"+dfaSrv.Addr()), "wf"),
			NewProvLakeTarget(provlake.NewClient("http://" + plSrv.Addr())),
		},
		OnError: func(err error) { t.Errorf("translator error: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	const tasks = 5
	records := sampleRecords(tasks)
	publishRecords(t, b.Addr(), records)

	deadline := time.Now().Add(5 * time.Second)
	want := len(records)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("memory target has %d records, want %d", mem.Len(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	tr.Drain()

	// DfAnalyzer got queryable rows.
	dfa := dfanalyzer.NewClient("http://" + dfaSrv.Addr())
	rows, err := dfa.Select(context.Background(), dfanalyzer.Query{
		Dataflow: "wf", Set: "train_output",
		OrderBy: "accuracy", Desc: true, Limit: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("dfanalyzer rows = %d, want 3", len(rows))
	}
	if rows[0]["accuracy"].(float64) < rows[1]["accuracy"].(float64) {
		t.Error("top-k accuracy not sorted")
	}

	// ProvLake stored every request.
	if got := plSrv.Store().Count(); got != want {
		t.Errorf("provlake stored %d, want %d", got, want)
	}

	// PROV-JSON document is valid and complete.
	doc, err := mem.Document()
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mem.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wasGeneratedBy") {
		t.Error("PROV-JSON output missing relations")
	}

	st := tr.Stats()
	if st.FramesReceived != uint64(want) || st.RecordsTranslated != uint64(want) {
		t.Errorf("translator stats = %+v", st)
	}
	if st.DecodeErrors != 0 || st.DeliveryErrors != 0 {
		t.Errorf("translator errors: %+v", st)
	}
}

func TestTranslatorSurvivesGarbageFrames(t *testing.T) {
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	mem := NewMemoryTarget()
	var gotErr error
	tr, err := New(context.Background(), Config{
		Broker:        b.Addr(),
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
		Targets:       []Target{mem},
		OnError:       func(err error) { gotErr = err },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	pub, err := mqttsn.NewClient(mqttsn.ClientConfig{
		ClientID: "garbage", Gateway: b.Addr(),
		RetryInterval: 150 * time.Millisecond, MaxRetries: 10, CleanSession: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := pub.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("provlight/garbage/records", []byte{0xDE, 0xAD}, mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	// Then a valid frame: the translator must still work.
	rec := provdm.Record{Event: provdm.EventWorkflowBegin, WorkflowID: "ok", Time: time.Now()}
	frame, _ := (&wire.Encoder{}).EncodeFrame(&rec)
	if err := pub.Publish("provlight/garbage/records", frame, mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for mem.Len() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("valid frame after garbage was not delivered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := tr.Stats(); st.DecodeErrors != 1 {
		t.Errorf("decode errors = %d, want 1", st.DecodeErrors)
	}
	if gotErr == nil {
		t.Error("OnError not called for garbage frame")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(context.Background(), Config{Broker: "127.0.0.1:1"}); err == nil {
		t.Error("translator without targets should fail")
	}
}

// countingTarget records how records arrive: every record exactly once,
// in batches of at most BatchSize frames.
type countingTarget struct {
	mu         sync.Mutex
	records    int
	frames     int
	batchCalls int
	maxBatch   int
}

func (*countingTarget) Name() string { return "counting" }

func (c *countingTarget) DeliverFrames(frames []Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.batchCalls++
	c.frames += len(frames)
	if len(frames) > c.maxBatch {
		c.maxBatch = len(frames)
	}
	for i := range frames {
		c.records += len(frames[i].Records)
	}
	return nil
}

// TestTranslatorBatchDelivery drives frames through the batch path and
// asserts exactly-once accounting: every frame delivered once, and the
// translator's own counters agree with the target's after Drain.
func TestTranslatorBatchDelivery(t *testing.T) {
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	counting := &countingTarget{}
	tr, err := New(context.Background(), Config{
		Broker:        b.Addr(),
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
		BatchSize:     8,
		Targets:       []Target{counting},
		OnError:       func(err error) { t.Errorf("translator error: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	records := sampleRecords(20)
	publishRecords(t, b.Addr(), records)

	want := len(records)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := tr.Stats(); st.FramesReceived >= uint64(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames received = %d, want %d", tr.Stats().FramesReceived, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr.Drain()

	counting.mu.Lock()
	defer counting.mu.Unlock()
	st := tr.Stats()
	if counting.frames != want || counting.records != want {
		t.Errorf("target saw %d frames / %d records, want %d each", counting.frames, counting.records, want)
	}
	if st.FramesReceived != uint64(want) || st.RecordsTranslated != uint64(want) {
		t.Errorf("translator stats = %+v, want %d frames and records", st, want)
	}
	if st.BatchesDelivered != uint64(counting.batchCalls) {
		t.Errorf("BatchesDelivered = %d, target saw %d calls", st.BatchesDelivered, counting.batchCalls)
	}
	if st.BatchesDelivered == 0 || st.BatchesDelivered > st.FramesReceived {
		t.Errorf("BatchesDelivered = %d out of range (frames %d)", st.BatchesDelivered, st.FramesReceived)
	}
	if counting.maxBatch > 8 {
		t.Errorf("largest batch = %d frames, want at most BatchSize 8", counting.maxBatch)
	}
	if st.DeliveryErrors != 0 || st.DecodeErrors != 0 {
		t.Errorf("translator errors: %+v", st)
	}
}

// slowOrderTarget records every record it is handed and sleeps a random
// 0-300µs per delivery, like a target doing I/O.
type slowOrderTarget struct {
	mu      sync.Mutex
	records []provdm.Record
}

func (*slowOrderTarget) Name() string { return "slow-order" }

func (o *slowOrderTarget) DeliverFrames(frames []Frame) error {
	time.Sleep(time.Duration(rand.Int64N(int64(300 * time.Microsecond))))
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := range frames {
		o.records = append(o.records, frames[i].Records...)
	}
	return nil
}

func (o *slowOrderTarget) snapshot() []provdm.Record {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]provdm.Record(nil), o.records...)
}

// TestTranslatorDeliversWorkflowInOrder sends one workflow from one
// publisher through a real broker into a target whose deliveries take
// varying time: the records must reach the target, and a live
// subscription, in capture order.
func TestTranslatorDeliversWorkflowInOrder(t *testing.T) {
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	target := &slowOrderTarget{}
	tr, err := New(context.Background(), Config{
		Broker:        b.Addr(),
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
		Targets:       []Target{target},
		OnError:       func(err error) { t.Errorf("translator error: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	records := sampleRecords(100)
	live, cancel := tr.Subscribe(context.Background(), Filter{Buffer: len(records)})
	defer cancel()

	publishRecords(t, b.Addr(), records)
	deadline := time.Now().Add(10 * time.Second)
	for len(target.snapshot()) < len(records) {
		if time.Now().After(deadline) {
			t.Fatalf("target has %d/%d records", len(target.snapshot()), len(records))
		}
		time.Sleep(10 * time.Millisecond)
	}
	tr.Drain()

	inOrder := func(what string, got []provdm.Record) {
		t.Helper()
		if len(got) != len(records) {
			t.Fatalf("%s has %d records, want exactly %d", what, len(got), len(records))
		}
		misplaced := 0
		for i := range got {
			if got[i].Event != records[i].Event || got[i].TaskID != records[i].TaskID {
				misplaced++
			}
		}
		if misplaced > 0 {
			t.Errorf("%s: %d of %d records out of capture order", what, misplaced, len(records))
		}
	}
	inOrder("target", target.snapshot())
	var streamed []provdm.Record
	for len(live) > 0 {
		streamed = append(streamed, <-live)
	}
	inOrder("subscription", streamed)
}

// TestDfAnalyzerTargetRetriesRegistration: if registration fails (server
// down), the schema stays dirty and the next delivery re-registers instead
// of sending tasks into an unregistered dataflow forever.
func TestDfAnalyzerTargetRetriesRegistration(t *testing.T) {
	// Reserve a port, then leave it closed for the first delivery.
	probe := dfanalyzer.NewServer(nil)
	if err := probe.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	target := NewDfAnalyzerTarget(dfanalyzer.NewClient("http://"+addr), "wf")
	batch := []Frame{{Records: sampleRecords(2)}}
	if err := target.DeliverFrames(batch); err == nil {
		t.Fatal("delivery with the server down should fail")
	}
	srv := dfanalyzer.NewServer(nil)
	if err := srv.Start(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv.Close()
	// Same records, no schema growth — registration must still be retried.
	if err := target.DeliverFrames(batch); err != nil {
		t.Fatalf("delivery after server came back: %v", err)
	}
	if _, ok := srv.Store().Dataflow("wf"); !ok {
		t.Error("dataflow was not registered on retry")
	}
	if got := srv.Store().TaskCount("wf"); got != 2 {
		t.Errorf("task count = %d, want 2", got)
	}
}

// TestMultiSessionConsumerGroup runs one translator with three broker
// sessions in a consumer group: the broker must partition the device
// topics across the sessions, and the target must see every record
// exactly once with per-device order intact.
func TestMultiSessionConsumerGroup(t *testing.T) {
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	mem := NewMemoryTarget()
	tr, err := New(context.Background(), Config{
		Broker:        b.Addr(),
		Targets:       []Target{mem},
		Sessions:      3,
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	if got := tr.Sessions(); got != 3 {
		t.Fatalf("Sessions() = %d, want 3", got)
	}

	const devices = 6
	const tasks = 5
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := fmt.Sprintf("dev-%d", d)
			pub, err := mqttsn.NewClient(mqttsn.ClientConfig{
				ClientID: id, Gateway: b.Addr(),
				RetryInterval: 150 * time.Millisecond, MaxRetries: 10, CleanSession: true,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer pub.Close()
			if err := pub.Connect(); err != nil {
				t.Error(err)
				return
			}
			enc := wire.Encoder{}
			topic := fmt.Sprintf("provlight/%s/records", id)
			for i := 0; i < tasks; i++ {
				rec := provdm.Record{
					Event: provdm.EventTaskEnd, WorkflowID: id,
					TaskID: fmt.Sprintf("t%d", i), Transformation: "train",
					Status: provdm.StatusFinished, Time: time.Now(),
				}
				frame, err := enc.EncodeFrame(&rec)
				if err != nil {
					t.Error(err)
					return
				}
				if err := pub.Publish(topic, frame, mqttsn.QoS2); err != nil {
					t.Errorf("%s publish %d: %v", id, i, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()

	want := devices * tasks
	deadline := time.Now().Add(10 * time.Second)
	for len(mem.Records()) < want {
		if time.Now().After(deadline) {
			t.Fatalf("target has %d/%d records", len(mem.Records()), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	tr.Drain()
	recs := mem.Records()
	if len(recs) != want {
		t.Fatalf("records = %d, want exactly %d (duplicates or losses across the group)", len(recs), want)
	}
	// Exactly once per (workflow, task), order preserved per workflow.
	nextTask := map[string]int{}
	seen := map[string]bool{}
	for _, r := range recs {
		key := r.WorkflowID + "/" + r.TaskID
		if seen[key] {
			t.Errorf("record %s delivered twice", key)
		}
		seen[key] = true
		want := fmt.Sprintf("t%d", nextTask[r.WorkflowID])
		if r.TaskID != want {
			t.Errorf("workflow %s: got %s, want %s (per-workflow order violated)", r.WorkflowID, r.TaskID, want)
		}
		nextTask[r.WorkflowID]++
	}
	if st := tr.Stats(); st.FramesReceived != uint64(want) {
		t.Errorf("FramesReceived = %d, want %d", st.FramesReceived, want)
	}
}

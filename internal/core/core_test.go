package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/capture"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
)

var _ capture.Client = (*Client)(nil)

func startPipeline(t *testing.T, cfgMod func(*Config)) (*Client, *translate.MemoryTarget, *Server) {
	t.Helper()
	mem := translate.NewMemoryTarget()
	srv, err := StartServer(context.Background(), ServerConfig{
		Addr:          "127.0.0.1:0",
		Targets:       []translate.Target{mem},
		RetryInterval: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cfg := Config{
		Broker:        srv.Addr(),
		ClientID:      "device-1",
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	client, err := NewClient(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, mem, srv
}

func waitRecords(t *testing.T, mem *translate.MemoryTarget, want int) []provdm.Record {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("received %d records, want %d", mem.Len(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return mem.Records()
}

func TestListing1EndToEnd(t *testing.T) {
	// Reproduce Listing 1: 5 chained transformations, tasks with input and
	// output data derivations, through the full client->broker->translator
	// pipeline.
	client, mem, _ := startPipeline(t, nil)

	const transformations = 3
	const tasksPerTransf = 4
	attrs := Attrs(map[string]any{"in": int64(1), "param": 0.5})

	wf := client.NewWorkflow("1")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	dataID := 0
	var prev *Task
	for tr := 0; tr < transformations; tr++ {
		for i := 0; i < tasksPerTransf; i++ {
			dataID++
			task := wf.NewTask(fmt.Sprintf("%d-%d", tr, i), fmt.Sprintf("transf%d", tr), prev)
			in := NewData(fmt.Sprintf("in%d", dataID), attrs)
			if err := task.Begin(in); err != nil {
				t.Fatal(err)
			}
			out := NewData(fmt.Sprintf("out%d", dataID), attrs).DerivedFrom(in.ID())
			if err := task.End(out); err != nil {
				t.Fatal(err)
			}
			prev = task
		}
	}
	if err := wf.End(); err != nil {
		t.Fatal(err)
	}

	total := 2 + 2*transformations*tasksPerTransf
	records := waitRecords(t, mem, total)
	if records[0].Event != provdm.EventWorkflowBegin {
		t.Errorf("first record = %s, want workflow.begin", records[0].Event)
	}
	// Build the PROV document and validate the full mapping.
	doc, err := provdm.BuildDocument(records)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(doc.ElementsOfKind(provdm.KindActivity)); got != transformations*tasksPerTransf {
		t.Errorf("activities = %d, want %d", got, transformations*tasksPerTransf)
	}
	// Derivations made it across the wire.
	if got := len(doc.RelationsOfKind(provdm.WasDerivedFrom)); got != transformations*tasksPerTransf {
		t.Errorf("derivations = %d, want %d", got, transformations*tasksPerTransf)
	}
}

func TestGroupingEndedTasksOnly(t *testing.T) {
	client, mem, _ := startPipeline(t, func(c *Config) {
		c.GroupSize = 5
	})
	wf := client.NewWorkflow("g")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		task := wf.NewTask(fmt.Sprintf("t%d", i), "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := wf.End(); err != nil {
		t.Fatal(err)
	}
	waitRecords(t, mem, 22)

	st := client.StatsSnapshot()
	// begins (10) + workflow.begin are immediate; 10 ends + workflow.end
	// grouped by 5: 11 immediate frames + 3 group frames.
	if st.RecordsCaptured != 22 {
		t.Errorf("captured = %d, want 22", st.RecordsCaptured)
	}
	if st.RecordsGrouped != 11 {
		t.Errorf("grouped records = %d, want 11 (ends + workflow end)", st.RecordsGrouped)
	}
	if st.FramesPublished != 14 {
		t.Errorf("frames = %d, want 14 (11 immediate + 3 groups)", st.FramesPublished)
	}
}

func TestCompressionStats(t *testing.T) {
	bigAttrs := map[string]any{}
	for i := 0; i < 100; i++ {
		bigAttrs[fmt.Sprintf("attr_%02d", i)] = int64(i)
	}
	client, mem, _ := startPipeline(t, nil)
	wf := client.NewWorkflow("c")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	task := wf.NewTask("t0", "tr")
	if err := task.Begin(NewData("in", Attrs(bigAttrs))); err != nil {
		t.Fatal(err)
	}
	if err := task.End(NewData("out", Attrs(bigAttrs))); err != nil {
		t.Fatal(err)
	}
	if err := wf.End(); err != nil {
		t.Fatal(err)
	}
	records := waitRecords(t, mem, 4)
	// The sender may pack the four records into fewer PUBLISHes; every
	// PUBLISH that carries a 100-attribute record is compressed.
	st := client.StatsSnapshot()
	if st.FramesCompressed < 1 || st.FramesCompressed > st.Publishes {
		t.Errorf("compressed PUBLISHes = %d of %d, want >= 1 (100-attr payloads)", st.FramesCompressed, st.Publishes)
	}
	// The attribute values survived.
	var tasks int
	for _, r := range records {
		if r.Event != provdm.EventTaskBegin && r.Event != provdm.EventTaskEnd {
			continue
		}
		tasks++
		if len(r.Data) != 1 || len(r.Data[0].Attributes) != 100 {
			t.Fatalf("%s data corrupted: %+v", r.Event, r)
		}
	}
	if tasks != 2 {
		t.Fatalf("got %d task records, want 2", tasks)
	}
}

func TestWindowSizeOneStopAndWait(t *testing.T) {
	// WindowSize 1 restores the pre-windowing stop-and-wait sender: one
	// frame fully acknowledged before the next leaves. Everything must
	// still arrive exactly once, in capture order on a loss-free link.
	client, mem, _ := startPipeline(t, func(c *Config) {
		c.WindowSize = 1
	})
	wf := client.NewWorkflow("w1")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	const tasks = 10
	for i := 0; i < tasks; i++ {
		task := wf.NewTask(fmt.Sprintf("t%d", i), "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := wf.End(); err != nil {
		t.Fatal(err)
	}
	records := waitRecords(t, mem, 2+2*tasks)
	if records[0].Event != provdm.EventWorkflowBegin {
		t.Errorf("first record = %s, want workflow.begin", records[0].Event)
	}
	if last := records[len(records)-1]; last.Event != provdm.EventWorkflowEnd {
		t.Errorf("last record = %s, want workflow.end", last.Event)
	}
	if st := client.StatsSnapshot(); st.FramesPublished != uint64(2+2*tasks) {
		t.Errorf("frames = %d, want %d", st.FramesPublished, 2+2*tasks)
	}
}

func TestWindowedCaptureDeliversEverything(t *testing.T) {
	// A wide window overlaps many QoS 2 handshakes; every record must
	// still arrive exactly once.
	client, mem, _ := startPipeline(t, func(c *Config) {
		c.WindowSize = 32
	})
	wf := client.NewWorkflow("wide")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	const tasks = 50
	for i := 0; i < tasks; i++ {
		task := wf.NewTask(fmt.Sprintf("t%d", i), "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := wf.End(); err != nil {
		t.Fatal(err)
	}
	records := waitRecords(t, mem, 2+2*tasks)
	seen := map[string]int{}
	for _, r := range records {
		seen[fmt.Sprintf("%s/%s", r.Event, r.TaskID)]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("record %s delivered %d times", k, n)
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	client, _, _ := startPipeline(t, nil)
	wf := client.NewWorkflow("e")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := wf.Begin(); err == nil {
		t.Error("double workflow begin should fail")
	}
	task := wf.NewTask("t", "tr")
	if err := task.End(); err == nil {
		t.Error("end before begin should fail")
	}
	if err := task.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := task.Begin(); err == nil {
		t.Error("double task begin should fail")
	}
	if err := task.End(); err != nil {
		t.Fatal(err)
	}
	if err := task.End(); err == nil {
		t.Error("double task end should fail")
	}
	if err := wf.End(); err != nil {
		t.Fatal(err)
	}
	if err := wf.End(); err == nil {
		t.Error("double workflow end should fail")
	}
}

func TestTranslatorsShareConsumerGroup(t *testing.T) {
	// Table IX setup: each device publishes to its own topic and
	// translators consume in parallel. They scale out by sharing one
	// consumer group, so the broker splits the device topics between them
	// and every record is stored exactly once.
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	mem := translate.NewMemoryTarget()
	var trs []*translate.Translator
	for i := 0; i < 2; i++ {
		tr, err := translate.New(context.Background(), translate.Config{
			Broker:        b.Addr(),
			ClientID:      fmt.Sprintf("tableix-%d", i),
			Group:         "tableix",
			Targets:       []translate.Target{mem},
			RetryInterval: 150 * time.Millisecond,
			MaxRetries:    10,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tr.Close)
		trs = append(trs, tr)
	}
	const devices = 4
	for d := 0; d < devices; d++ {
		client, err := NewClient(context.Background(), Config{
			Broker:        b.Addr(),
			ClientID:      fmt.Sprintf("device-%d", d),
			RetryInterval: 150 * time.Millisecond,
			MaxRetries:    10,
		})
		if err != nil {
			t.Fatal(err)
		}
		wf := client.NewWorkflow(fmt.Sprintf("wf-%d", d))
		if err := wf.Begin(); err != nil {
			t.Fatal(err)
		}
		task := wf.NewTask("t0", "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
		if err := wf.End(); err != nil {
			t.Fatal(err)
		}
		client.Close()
	}
	waitRecords(t, mem, devices*4)
	for _, tr := range trs {
		tr.Drain()
	}
	wfs := map[string]int{}
	for _, r := range mem.Records() {
		wfs[r.WorkflowID]++
	}
	for d := 0; d < devices; d++ {
		if wfs[fmt.Sprintf("wf-%d", d)] != 4 {
			t.Errorf("workflow wf-%d has %d records, want 4", d, wfs[fmt.Sprintf("wf-%d", d)])
		}
	}
	// The group assigns each new topic to the member owning the fewest, so
	// the four device topics split two and two. Count records: a device
	// may have packed its four into fewer frames.
	for i, tr := range trs {
		if st := tr.Stats(); st.RecordsTranslated != 8 {
			t.Errorf("translator %d translated %d records, want 8", i, st.RecordsTranslated)
		}
	}
}

func TestSubscribeEndToEnd(t *testing.T) {
	// Live subscription: device -> broker -> translator -> subscriber.
	// Records must arrive on the subscription channel as the workflow runs,
	// after target delivery, with nothing lost for a keeping-up consumer.
	client, _, srv := startPipeline(t, nil)

	ctx := context.Background()
	all, cancelAll := srv.Subscribe(ctx, translate.Filter{Buffer: 128})
	defer cancelAll()
	endsOnly, cancelEnds := srv.Subscribe(ctx, translate.Filter{
		Events: []provdm.EventKind{provdm.EventTaskEnd},
		Buffer: 128,
	})
	defer cancelEnds()

	const tasks = 10
	wf := client.NewWorkflow("live")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tasks; i++ {
		task := wf.NewTask(fmt.Sprintf("t%d", i), "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := wf.End(); err != nil {
		t.Fatal(err)
	}

	want := 2 + 2*tasks
	deadline := time.After(10 * time.Second)
	var got []provdm.Record
	for len(got) < want {
		select {
		case rec := <-all:
			got = append(got, rec)
		case <-deadline:
			t.Fatalf("subscription delivered %d/%d records", len(got), want)
		}
	}
	seen := map[string]int{}
	for _, r := range got {
		seen[fmt.Sprintf("%s/%s", r.Event, r.TaskID)]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("record %s delivered %d times", k, n)
		}
	}
	for i := 0; i < tasks; i++ {
		select {
		case rec := <-endsOnly:
			if rec.Event != provdm.EventTaskEnd {
				t.Errorf("filtered subscription got %s", rec.Event)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("filtered subscription delivered %d/%d task ends", i, tasks)
		}
	}
	if st := srv.SubscriptionStats(); st.Dropped != 0 {
		t.Errorf("dropped = %d for keeping-up consumers, want 0", st.Dropped)
	}

	// Cancelling one subscription closes its channel and leaves the other
	// (plus the pipeline) functional.
	cancelEnds()
	if _, ok := <-endsOnly; ok {
		t.Error("cancelled subscription channel should be closed")
	}
}

func TestClientAndServerShutdownUnderDeadline(t *testing.T) {
	// A healthy pipeline drains well within the deadline: Shutdown returns
	// nil on both the client and the server, and subscriptions end.
	client, mem, srv := startPipeline(t, func(c *Config) {
		c.GroupSize = 4 // leave a partial group for Shutdown to flush
	})
	sub, cancelSub := srv.Subscribe(context.Background(), translate.Filter{})
	defer cancelSub()

	wf := client.NewWorkflow("drain")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		task := wf.NewTask(fmt.Sprintf("t%d", i), "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
	}
	// No wf.End(): two ended tasks sit in the partial group buffer; the
	// client Shutdown must flush and drain them.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("client shutdown: %v", err)
	}
	waitRecords(t, mem, 1+2*6)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	// Server shutdown closed the subscription channel (possibly after the
	// buffered records drain).
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscription channel not closed by server Shutdown")
		}
	}
}

func TestClientShutdownExpiredDeadlineAbandons(t *testing.T) {
	// Kill the broker under the client, queue frames whose QoS 2 handshakes
	// can never complete, and check that Shutdown gives up at the deadline
	// instead of hanging, accounting the abandoned frames as async errors.
	client, _, srv := startPipeline(t, func(c *Config) {
		c.RetryInterval = 200 * time.Millisecond
		c.MaxRetries = 50 // retry budget far beyond the shutdown deadline
	})
	wf := client.NewWorkflow("doomed")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}
	client.Flush()
	srv.Broker.Close()
	for i := 0; i < 3; i++ {
		task := wf.NewTask(fmt.Sprintf("t%d", i), "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := client.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("shutdown took %v, deadline was 400ms", elapsed)
	}
	// The force-closed transport fails the abandoned handshakes; their
	// collectors record async errors shortly after.
	deadline := time.Now().Add(5 * time.Second)
	for client.StatsSnapshot().AsyncErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned frames were not accounted as async errors")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStatsSnapshotRace(t *testing.T) {
	// Concurrent captures against concurrent StatsSnapshot reads: run with
	// -race (the CI race job does) to verify the snapshot path is
	// race-free, and check counters are monotonically consistent.
	client, mem, _ := startPipeline(t, nil)
	wf := client.NewWorkflow("stats")
	if err := wf.Begin(); err != nil {
		t.Fatal(err)
	}

	const tasks = 30
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < tasks; i++ {
			task := wf.NewTask(fmt.Sprintf("t%d", i), "tr")
			if err := task.Begin(); err != nil {
				t.Error(err)
				return
			}
			if err := task.End(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var lastCaptured uint64
	for {
		st := client.StatsSnapshot()
		if st.RecordsCaptured < lastCaptured {
			t.Fatalf("RecordsCaptured went backwards: %d -> %d", lastCaptured, st.RecordsCaptured)
		}
		lastCaptured = st.RecordsCaptured
		select {
		case <-done:
			if err := wf.End(); err != nil {
				t.Fatal(err)
			}
			waitRecords(t, mem, 2+2*tasks)
			if st := client.StatsSnapshot(); st.RecordsCaptured != 2+2*tasks {
				t.Errorf("captured = %d, want %d", st.RecordsCaptured, 2+2*tasks)
			}
			return
		default:
		}
	}
}

func TestServerSessionsConsumerGroup(t *testing.T) {
	// One translator, several consumer-group broker sessions: capture from
	// parallel devices must arrive exactly once with per-workflow order.
	mem := translate.NewMemoryTarget()
	srv, err := StartServer(context.Background(), ServerConfig{
		Addr:          "127.0.0.1:0",
		Targets:       []translate.Target{mem},
		Sessions:      3,
		RetryInterval: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if got := srv.Translator.Sessions(); got != 3 {
		t.Fatalf("translator sessions = %d, want 3", got)
	}
	const devices = 4
	for d := 0; d < devices; d++ {
		client, err := NewClient(context.Background(), Config{
			Broker:        srv.Addr(),
			ClientID:      fmt.Sprintf("gdev-%d", d),
			RetryInterval: 150 * time.Millisecond,
			MaxRetries:    10,
			// Stop-and-wait: overlapping handshakes (WindowSize > 1) may
			// complete out of order by design, and this test asserts strict
			// per-workflow order — what it pins is the *group's* stickiness,
			// so arrival order must be deterministic.
			WindowSize: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		wf := client.NewWorkflow(fmt.Sprintf("gwf-%d", d))
		if err := wf.Begin(); err != nil {
			t.Fatal(err)
		}
		task := wf.NewTask("t0", "tr")
		if err := task.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := task.End(); err != nil {
			t.Fatal(err)
		}
		if err := wf.End(); err != nil {
			t.Fatal(err)
		}
		client.Close()
	}
	records := waitRecords(t, mem, devices*4)
	perWf := map[string][]provdm.EventKind{}
	for _, r := range records {
		perWf[r.WorkflowID] = append(perWf[r.WorkflowID], r.Event)
	}
	wantSeq := []provdm.EventKind{
		provdm.EventWorkflowBegin, provdm.EventTaskBegin,
		provdm.EventTaskEnd, provdm.EventWorkflowEnd,
	}
	for d := 0; d < devices; d++ {
		got := perWf[fmt.Sprintf("gwf-%d", d)]
		if len(got) != len(wantSeq) {
			t.Errorf("workflow gwf-%d has %d records, want %d", d, len(got), len(wantSeq))
			continue
		}
		for i := range wantSeq {
			if got[i] != wantSeq[i] {
				t.Errorf("workflow gwf-%d event %d = %v, want %v (order violated)", d, i, got[i], wantSeq[i])
				break
			}
		}
	}
}

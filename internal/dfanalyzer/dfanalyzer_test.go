package dfanalyzer

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/provlight/provlight/internal/provdm"
)

func trainingDataflow() *Dataflow {
	return &Dataflow{
		Tag: "fltraining",
		Transformations: []Transformation{
			{
				Tag: "training",
				Input: []SetSchema{{Tag: "training_input", Attributes: []Attribute{
					{Name: "lr", Type: Numeric},
					{Name: "batch", Type: Numeric},
					{Name: "optimizer", Type: Text},
				}}},
				Output: []SetSchema{{Tag: "training_output", Attributes: []Attribute{
					{Name: "epoch", Type: Numeric},
					{Name: "loss", Type: Numeric},
					{Name: "accuracy", Type: Numeric},
				}}},
			},
		},
	}
}

func TestDataflowValidate(t *testing.T) {
	if err := trainingDataflow().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Dataflow{
		{},
		{Tag: "x", Transformations: []Transformation{{}}},
		{Tag: "x", Transformations: []Transformation{{Tag: "a"}, {Tag: "a"}}},
		{Tag: "x", Transformations: []Transformation{{Tag: "a", Input: []SetSchema{{Tag: "s",
			Attributes: []Attribute{{Name: "v", Type: "WEIRD"}}}}}}},
		{Tag: "x", Transformations: []Transformation{{Tag: "a", Input: []SetSchema{{Tag: "s",
			Attributes: []Attribute{{Name: "v", Type: Numeric}, {Name: "v", Type: Text}}}}}}},
	}
	for i, df := range bad {
		if err := df.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func ingestEpochs(t *testing.T, store *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		start := time.Now()
		begin := &TaskMsg{
			Dataflow: "fltraining", Transformation: "training",
			ID: fmt.Sprintf("epoch-%d", i), Status: StatusRunning, StartTime: &start,
			Sets: []SetData{{Tag: "training_input", Elements: []Element{
				{0.01 * float64(i+1), float64(32), "sgd"},
			}}},
		}
		if err := store.IngestTask(begin); err != nil {
			t.Fatal(err)
		}
		end := time.Now()
		fin := &TaskMsg{
			Dataflow: "fltraining", Transformation: "training",
			ID: fmt.Sprintf("epoch-%d", i), Status: StatusFinished, EndTime: &end,
			Sets: []SetData{{Tag: "training_output", Elements: []Element{
				{float64(i), 1.0 / float64(i+1), 0.5 + float64(i)*0.01},
			}}},
		}
		if err := store.IngestTask(fin); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreIngestAndSelect(t *testing.T) {
	store := NewStore()
	if err := store.RegisterDataflow(trainingDataflow()); err != nil {
		t.Fatal(err)
	}
	ingestEpochs(t, store, 20)

	if got := store.TaskCount("fltraining"); got != 20 {
		t.Errorf("task count = %d, want 20", got)
	}
	// Paper §I query (ii): top-3 accuracy values.
	rows, err := store.Select(context.Background(), Query{
		Dataflow: "fltraining", Set: "training_output",
		OrderBy: "accuracy", Desc: true, Limit: 3,
		Project: []string{"epoch", "accuracy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0]["accuracy"].(float64) < rows[1]["accuracy"].(float64) {
		t.Error("rows not sorted descending")
	}
	if rows[0]["epoch"].(float64) != 19 {
		t.Errorf("best epoch = %v, want 19", rows[0]["epoch"])
	}
	// Filtered query: loss below threshold.
	rows, err = store.Select(context.Background(), Query{
		Dataflow: "fltraining", Set: "training_output",
		Where: []Pred{{Attr: "loss", Op: Lt, Value: 0.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r["loss"].(float64) >= 0.1 {
			t.Errorf("predicate failed: %v", r)
		}
	}
	if len(rows) != 10 { // 1/(i+1) < 0.1 for i=10..19
		t.Errorf("filtered rows = %d, want 10", len(rows))
	}
	// Text predicate.
	rows, err = store.Select(context.Background(), Query{
		Dataflow: "fltraining", Set: "training_input",
		Where: []Pred{{Attr: "optimizer", Op: Eq, Value: "sgd"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Errorf("text filter rows = %d, want 20", len(rows))
	}
}

func TestStoreErrors(t *testing.T) {
	store := NewStore()
	if err := store.IngestTask(&TaskMsg{Dataflow: "nope", Transformation: "t", ID: "1", Status: StatusRunning}); err == nil {
		t.Error("unknown dataflow should fail")
	}
	if err := store.RegisterDataflow(trainingDataflow()); err != nil {
		t.Fatal(err)
	}
	bad := &TaskMsg{Dataflow: "fltraining", Transformation: "training", ID: "1", Status: StatusRunning,
		Sets: []SetData{{Tag: "missing_set", Elements: []Element{{1.0}}}}}
	if err := store.IngestTask(bad); err == nil {
		t.Error("unknown set should fail")
	}
	arity := &TaskMsg{Dataflow: "fltraining", Transformation: "training", ID: "1", Status: StatusRunning,
		Sets: []SetData{{Tag: "training_input", Elements: []Element{{1.0}}}}}
	if err := store.IngestTask(arity); err == nil {
		t.Error("wrong arity should fail")
	}
	typeErr := &TaskMsg{Dataflow: "fltraining", Transformation: "training", ID: "1", Status: StatusRunning,
		Sets: []SetData{{Tag: "training_input", Elements: []Element{{"notnum", 1.0, "sgd"}}}}}
	if err := store.IngestTask(typeErr); err == nil {
		t.Error("type mismatch should fail")
	}
	if _, err := store.Select(context.Background(), Query{Dataflow: "fltraining", Set: "training_output", Where: []Pred{{Attr: "ghost", Op: Eq, Value: 1}}}); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestServerEndToEnd(t *testing.T) {
	srv := NewServer(nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient("http://" + srv.Addr())

	if err := client.RegisterDataflow(trainingDataflow()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	msg := &TaskMsg{
		Dataflow: "fltraining", Transformation: "training", ID: "e0",
		Status: StatusRunning, StartTime: &start,
		Sets: []SetData{{Tag: "training_input", Elements: []Element{{0.1, 16.0, "adam"}}}},
	}
	if err := client.SendTask(msg); err != nil {
		t.Fatal(err)
	}
	end := time.Now()
	fin := &TaskMsg{
		Dataflow: "fltraining", Transformation: "training", ID: "e0",
		Status: StatusFinished, EndTime: &end,
		Sets: []SetData{{Tag: "training_output", Elements: []Element{{0.0, 0.4, 0.88}}}},
	}
	if err := client.SendTask(fin); err != nil {
		t.Fatal(err)
	}
	rows, err := client.Select(context.Background(), Query{Dataflow: "fltraining", Set: "training_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["accuracy"].(float64) != 0.88 {
		t.Errorf("rows = %v", rows)
	}
	// Merged task catalog entry has both times and final status.
	task, ok := srv.Store().TaskEntry("fltraining", "e0")
	if !ok {
		t.Fatal("task e0 not found")
	}
	if task.Status != StatusFinished || task.StartTime == nil || task.EndTime == nil {
		t.Errorf("merged task = %+v", task)
	}
	if srv.Requests() < 4 {
		t.Errorf("requests = %d, want >= 4", srv.Requests())
	}
}

func TestCapturerTranslatesRecords(t *testing.T) {
	srv := NewServer(nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient("http://" + srv.Addr())

	records := []provdm.Record{
		{Event: provdm.EventWorkflowBegin, WorkflowID: "wf", Time: time.Now()},
		{Event: provdm.EventTaskBegin, WorkflowID: "wf", TaskID: "t1", Transformation: "training",
			Status: provdm.StatusRunning, Time: time.Now(),
			Data: []provdm.DataRef{{ID: "in", Attributes: []provdm.Attribute{
				{Name: "lr", Value: 0.05}, {Name: "batch", Value: int64(8)}, {Name: "optimizer", Value: "sgd"},
			}}}},
		{Event: provdm.EventTaskEnd, WorkflowID: "wf", TaskID: "t1", Transformation: "training",
			Status: provdm.StatusFinished, Time: time.Now(),
			Data: []provdm.DataRef{{ID: "out", Attributes: []provdm.Attribute{
				{Name: "epoch", Value: int64(1)}, {Name: "loss", Value: 0.2}, {Name: "accuracy", Value: 0.9},
			}}}},
	}
	df := DataflowFromRecords("wf", records)
	if err := client.RegisterDataflow(df); err != nil {
		t.Fatal(err)
	}
	cap := NewCapturer(client, "wf")
	for i := range records {
		if err := cap.Capture(&records[i]); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	rows, err := client.Select(context.Background(), Query{Dataflow: "wf", Set: "training_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["accuracy"].(float64) != 0.9 {
		t.Errorf("rows = %v", rows)
	}
}

func TestDataflowFromRecords(t *testing.T) {
	records := []provdm.Record{
		{Event: provdm.EventTaskBegin, WorkflowID: "w", TaskID: "a", Transformation: "prep",
			Data: []provdm.DataRef{{ID: "d1", Attributes: []provdm.Attribute{
				{Name: "path", Value: "x.csv"}, {Name: "rows", Value: int64(10)}}}},
			Time: time.Now()},
		{Event: provdm.EventTaskEnd, WorkflowID: "w", TaskID: "a", Transformation: "prep",
			Status: provdm.StatusFinished,
			Data: []provdm.DataRef{{ID: "d2", Attributes: []provdm.Attribute{
				{Name: "clean_rows", Value: int64(9)}}}},
			Time: time.Now()},
	}
	df := DataflowFromRecords("w", records)
	if err := df.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(df.Transformations) != 1 || df.Transformations[0].Tag != "prep" {
		t.Fatalf("df = %+v", df)
	}
	in := df.Transformations[0].Input[0]
	if in.Tag != "prep_input" || len(in.Attributes) != 2 {
		t.Errorf("input set = %+v", in)
	}
	if in.Attributes[0].Name != "path" || in.Attributes[0].Type != Text {
		t.Errorf("path attr = %+v", in.Attributes[0])
	}
	if in.Attributes[1].Type != Numeric {
		t.Errorf("rows attr = %+v", in.Attributes[1])
	}
}

// Property: ingesting N single-element tasks yields N rows and Select with
// no predicates returns them all.
func TestIngestCountProperty(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n % 40)
		store := NewStore()
		if err := store.RegisterDataflow(trainingDataflow()); err != nil {
			return false
		}
		for i := 0; i < count; i++ {
			msg := &TaskMsg{Dataflow: "fltraining", Transformation: "training",
				ID: fmt.Sprintf("t%d", i), Status: StatusFinished,
				Sets: []SetData{{Tag: "training_output", Elements: []Element{
					{float64(i), 0.5, 0.5}}}}}
			if err := store.IngestTask(msg); err != nil {
				return false
			}
		}
		rows, err := store.Select(context.Background(), Query{Dataflow: "fltraining", Set: "training_output"})
		return err == nil && len(rows) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIngestTasksBatch(t *testing.T) {
	store := NewStore()
	if err := store.RegisterDataflow(trainingDataflow()); err != nil {
		t.Fatal(err)
	}
	msgs := make([]*TaskMsg, 0, 32)
	for i := 0; i < 16; i++ {
		msgs = append(msgs, &TaskMsg{
			Dataflow: "fltraining", Transformation: "training",
			ID: fmt.Sprintf("b%d", i), Status: StatusFinished,
			Sets: []SetData{{Tag: "training_output", Elements: []Element{
				{float64(i), 1.0 / float64(i+1), 0.5 + 0.01*float64(i)},
			}}},
		})
	}
	if err := store.IngestTasks(msgs); err != nil {
		t.Fatal(err)
	}
	if got := store.TaskCount("fltraining"); got != 16 {
		t.Errorf("task count = %d, want 16", got)
	}
	rows, err := store.Select(context.Background(), Query{Dataflow: "fltraining", Set: "training_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Errorf("rows = %d, want 16", len(rows))
	}
	if err := store.IngestTasks(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := store.IngestTasks([]*TaskMsg{{Dataflow: "ghost", Transformation: "t", ID: "1", Status: StatusRunning}}); err == nil {
		t.Error("unknown dataflow in batch should fail")
	}
}

func TestIngestTaskMergeDedupsDependencies(t *testing.T) {
	store := NewStore()
	if err := store.RegisterDataflow(trainingDataflow()); err != nil {
		t.Fatal(err)
	}
	begin := &TaskMsg{Dataflow: "fltraining", Transformation: "training", ID: "t0",
		Status: StatusRunning, Dependencies: []string{"a", "b"}}
	end := &TaskMsg{Dataflow: "fltraining", Transformation: "training", ID: "t0",
		Status: StatusFinished, Dependencies: []string{"b", "c"}}
	if err := store.IngestTasks([]*TaskMsg{begin, end}); err != nil {
		t.Fatal(err)
	}
	task, ok := store.TaskEntry("fltraining", "t0")
	if !ok {
		t.Fatal("task t0 not found")
	}
	want := []string{"a", "b", "c"}
	if len(task.Dependencies) != len(want) {
		t.Fatalf("dependencies = %v, want %v", task.Dependencies, want)
	}
	for i, dep := range want {
		if task.Dependencies[i] != dep {
			t.Fatalf("dependencies = %v, want %v", task.Dependencies, want)
		}
	}
}

// TestStoreConcurrentIngestSelect exercises parallel batched writers and
// readers (run under -race): different dataflows never contend, the same
// dataflow serializes correctly.
func TestStoreConcurrentIngestSelect(t *testing.T) {
	store := NewStore()
	dataflows := []string{"fltraining", "fltraining2"}
	for _, tag := range dataflows {
		df := trainingDataflow()
		df.Tag = tag
		if err := store.RegisterDataflow(df); err != nil {
			t.Fatal(err)
		}
	}
	const writers, batches, batchSize = 4, 25, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tag := dataflows[w%len(dataflows)]
			for b := 0; b < batches; b++ {
				msgs := make([]*TaskMsg, 0, batchSize)
				for i := 0; i < batchSize; i++ {
					msgs = append(msgs, &TaskMsg{
						Dataflow: tag, Transformation: "training",
						ID: fmt.Sprintf("w%d-b%d-i%d", w, b, i), Status: StatusFinished,
						Sets: []SetData{{Tag: "training_output", Elements: []Element{
							{float64(i), 0.5, 0.5 + 0.01*float64(i)},
						}}},
					})
				}
				if err := store.IngestTasks(msgs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tag := dataflows[r%len(dataflows)]
			for i := 0; i < 50; i++ {
				rows, err := store.Select(context.Background(), Query{
					Dataflow: tag, Set: "training_output",
					Where:   []Pred{{Attr: "accuracy", Op: Ge, Value: 0.5}},
					OrderBy: "accuracy", Desc: true, Limit: 5,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows) > 5 {
					t.Errorf("limit exceeded: %d rows", len(rows))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	perDataflow := writers / len(dataflows) * batches * batchSize
	for _, tag := range dataflows {
		if got := store.TaskCount(tag); got != perDataflow {
			t.Errorf("%s task count = %d, want %d", tag, got, perDataflow)
		}
		rows, err := store.Select(context.Background(), Query{Dataflow: tag, Set: "training_output"})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != perDataflow {
			t.Errorf("%s rows = %d, want %d", tag, len(rows), perDataflow)
		}
	}
}

func TestTasksBatchEndpoint(t *testing.T) {
	srv := NewServer(nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient("http://" + srv.Addr())
	if err := client.RegisterDataflow(trainingDataflow()); err != nil {
		t.Fatal(err)
	}
	msgs := make([]*TaskMsg, 0, 10)
	for i := 0; i < 10; i++ {
		msgs = append(msgs, &TaskMsg{
			Dataflow: "fltraining", Transformation: "training",
			ID: fmt.Sprintf("e%d", i), Status: StatusFinished,
			Sets: []SetData{{Tag: "training_output", Elements: []Element{
				{float64(i), 0.3, 0.9},
			}}},
		})
	}
	before := srv.Requests()
	if err := client.post("/tasks", msgs); err != nil {
		t.Fatal(err)
	}
	if got := srv.Requests() - before; got != 1 {
		t.Errorf("batch send used %d requests, want 1", got)
	}
	if got := srv.Store().TaskCount("fltraining"); got != 10 {
		t.Errorf("task count = %d, want 10", got)
	}
	// A bad message inside a batch surfaces as an HTTP error.
	bad := []*TaskMsg{
		{Dataflow: "fltraining", Transformation: "training", ID: "ok", Status: StatusFinished},
		{Dataflow: "fltraining", Transformation: "training", ID: "bad", Status: "NOPE"},
	}
	if err := client.post("/tasks", bad); err == nil {
		t.Error("invalid message in batch should fail")
	}
}

func TestSchemaTrackerIncremental(t *testing.T) {
	records := []provdm.Record{
		{Event: provdm.EventTaskBegin, WorkflowID: "w", TaskID: "a", Transformation: "prep",
			Data: []provdm.DataRef{{ID: "d1", Attributes: []provdm.Attribute{
				{Name: "path", Value: "x.csv"}, {Name: "rows", Value: int64(10)}}}},
			Time: time.Now()},
		{Event: provdm.EventTaskEnd, WorkflowID: "w", TaskID: "a", Transformation: "prep",
			Status: provdm.StatusFinished,
			Data: []provdm.DataRef{{ID: "d2", Attributes: []provdm.Attribute{
				{Name: "clean_rows", Value: int64(9)}}}},
			Time: time.Now()},
	}
	st := NewSchemaTracker("w")
	if !st.Observe(records) {
		t.Error("first observation should grow the schema")
	}
	if st.Observe(records) {
		t.Error("re-observing the same records should not grow the schema")
	}
	// The incremental spec matches the one-shot derivation.
	got, want := st.Dataflow(), DataflowFromRecords("w", records)
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Errorf("incremental spec %+v != one-shot %+v", got, want)
	}
	// A new attribute on a known set grows the schema again.
	more := []provdm.Record{{Event: provdm.EventTaskEnd, WorkflowID: "w", TaskID: "b",
		Transformation: "prep", Status: provdm.StatusFinished,
		Data: []provdm.DataRef{{ID: "d3", Attributes: []provdm.Attribute{
			{Name: "outliers", Value: int64(1)}}}},
		Time: time.Now()}}
	if !st.Observe(more) {
		t.Error("new attribute should grow the schema")
	}
	df := st.Dataflow()
	if err := df.Validate(); err != nil {
		t.Fatal(err)
	}
	out := df.Transformations[0].Output[0]
	if len(out.Attributes) != 2 || out.Attributes[1].Name != "outliers" {
		t.Errorf("grown output set = %+v", out)
	}
}

// TestRegisterGrownSpecWidensTables: re-registering a wider spec (what the
// translator does when new attributes appear) backfills existing rows.
func TestRegisterGrownSpecWidensTables(t *testing.T) {
	store := NewStore()
	df := trainingDataflow()
	if err := store.RegisterDataflow(df); err != nil {
		t.Fatal(err)
	}
	ingestEpochs(t, store, 3)
	wider := trainingDataflow()
	wider.Transformations[0].Output[0].Attributes = append(
		wider.Transformations[0].Output[0].Attributes, Attribute{Name: "f1", Type: Numeric})
	if err := store.RegisterDataflow(wider); err != nil {
		t.Fatal(err)
	}
	msg := &TaskMsg{Dataflow: "fltraining", Transformation: "training", ID: "wide",
		Status: StatusFinished,
		Sets:   []SetData{{Tag: "training_output", Elements: []Element{{3.0, 0.2, 0.91, 0.88}}}}}
	if err := store.IngestTask(msg); err != nil {
		t.Fatal(err)
	}
	rows, err := store.Select(context.Background(), Query{Dataflow: "fltraining", Set: "training_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0]["f1"].(float64) != 0 {
		t.Errorf("backfilled f1 = %v, want 0", rows[0]["f1"])
	}
}

// Property: the top-k heap path returns exactly the first k rows of the
// fully sorted result, including stable tie order.
func TestSelectTopKMatchesFullSort(t *testing.T) {
	f := func(seed uint8, desc bool) bool {
		n := 50 + int(seed)%50
		store := NewStore()
		if err := store.RegisterDataflow(trainingDataflow()); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			// Coarse quantization forces plenty of key ties.
			acc := float64((int(seed)+i*7)%10) / 10
			msg := &TaskMsg{Dataflow: "fltraining", Transformation: "training",
				ID: fmt.Sprintf("t%d", i), Status: StatusFinished,
				Sets: []SetData{{Tag: "training_output", Elements: []Element{
					{float64(i), 0.5, acc}}}}}
			if err := store.IngestTask(msg); err != nil {
				return false
			}
		}
		const k = 7
		topk, err := store.Select(context.Background(), Query{Dataflow: "fltraining", Set: "training_output",
			OrderBy: "accuracy", Desc: desc, Limit: k})
		if err != nil {
			return false
		}
		all, err := store.Select(context.Background(), Query{Dataflow: "fltraining", Set: "training_output",
			OrderBy: "accuracy", Desc: desc})
		if err != nil || len(topk) != k {
			return false
		}
		for i := range topk {
			if topk[i]["epoch"] != all[i]["epoch"] || topk[i]["accuracy"] != all[i]["accuracy"] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// A nil element in a batch (e.g. "[null]" posted to /tasks) must be a
// clean error, not a panic.
func TestIngestTasksNilMessage(t *testing.T) {
	store := NewStore()
	if err := store.RegisterDataflow(trainingDataflow()); err != nil {
		t.Fatal(err)
	}
	if err := store.IngestTasks([]*TaskMsg{nil}); err == nil {
		t.Error("nil message should fail")
	}
	ok := &TaskMsg{Dataflow: "fltraining", Transformation: "training", ID: "n0", Status: StatusFinished}
	if err := store.IngestTasks([]*TaskMsg{ok, nil}); err == nil {
		t.Error("nil message after a valid one should fail")
	}
	srv := NewServer(store)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Post("http://"+srv.Addr()+"/tasks", "application/json", strings.NewReader("[null]"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %s, want 400", resp.Status)
	}
}

package queries

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/source"
	"github.com/provlight/provlight/internal/translate"
)

// trainingRecords builds the FL training history as the capture records a
// device would emit: 3 learning rates x 5 epochs, one task per epoch with
// hyperparameters in and loss/accuracy out.
func trainingRecords() []provdm.Record {
	base := time.Date(2023, 7, 20, 9, 0, 0, 0, time.UTC)
	var records []provdm.Record
	records = append(records, provdm.Record{
		Event: provdm.EventWorkflowBegin, WorkflowID: "w", Time: base,
	})
	for i, lr := range []float64{0.1, 0.01, 0.001} {
		for epoch := 0; epoch < 5; epoch++ {
			id := fmt.Sprintf("lr%d-e%d", i, epoch)
			start := base.Add(time.Duration(epoch) * time.Minute)
			end := start.Add(30 * time.Second)
			acc := 0.5 + 0.05*float64(epoch)
			if lr == 0.01 {
				acc += 0.2
			}
			records = append(records, provdm.Record{
				Event: provdm.EventTaskBegin, WorkflowID: "w", TaskID: id,
				Transformation: "training", Status: provdm.StatusRunning,
				Data: []provdm.DataRef{{ID: "in-" + id, Attributes: []provdm.Attribute{
					{Name: "lr", Value: lr},
				}}},
				Time: start,
			})
			records = append(records, provdm.Record{
				Event: provdm.EventTaskEnd, WorkflowID: "w", TaskID: id,
				Transformation: "training", Status: provdm.StatusFinished,
				Data: []provdm.DataRef{{ID: "out-" + id, Attributes: []provdm.Attribute{
					{Name: "epoch", Value: float64(epoch)},
					{Name: "loss", Value: 1 - acc},
					{Name: "accuracy", Value: acc},
				}}},
				Time: end,
			})
		}
	}
	records = append(records, provdm.Record{
		Event: provdm.EventWorkflowEnd, WorkflowID: "w", Time: base.Add(time.Hour),
	})
	return records
}

// buildSources feeds one identical record stream to every backend and
// returns them as Sources: the in-memory target, the local DfAnalyzer
// column store, and the remote DfAnalyzer client reaching that store over
// HTTP.
func buildSources(t *testing.T) map[string]source.Source {
	t.Helper()
	const dataflow = "fl"
	records := trainingRecords()

	mem := translate.NewMemoryTargetForDataflow(dataflow)

	dfaSrv := dfanalyzer.NewServer(nil)
	if err := dfaSrv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dfaSrv.Close() })
	dfaTarget := translate.NewDfAnalyzerTarget(
		dfanalyzer.NewClient("http://"+dfaSrv.Addr()), dataflow)

	// Deliver one-record frames, one batch per frame, as a translator with
	// BatchSize 1 would.
	for i := range records {
		batch := []translate.Frame{{Records: records[i : i+1]}}
		if err := mem.DeliverFrames(batch); err != nil {
			t.Fatal(err)
		}
		if err := dfaTarget.DeliverFrames(batch); err != nil {
			t.Fatal(err)
		}
	}

	return map[string]source.Source{
		"memory": mem,
		"store":  dfaSrv.Store(),
		"remote": dfanalyzer.NewClient("http://" + dfaSrv.Addr()),
	}
}

// TestQueriesIdenticalAcrossSources is the acceptance check of the Source
// redesign: TopKAccuracy and LatestEpochMetrics produce byte-identical
// results against the in-memory target, the local DfAnalyzer store, and
// the remote DfAnalyzer HTTP client.
func TestQueriesIdenticalAcrossSources(t *testing.T) {
	ctx := context.Background()
	sources := buildSources(t)

	cases := []struct {
		name string
		run  func(src source.Source) (any, error)
	}{
		{"TopKAccuracy", func(src source.Source) (any, error) {
			return TopKAccuracy(ctx, src, "fl", "training_output", 3)
		}},
		{"LatestEpochMetrics", func(src source.Source) (any, error) {
			return LatestEpochMetrics(ctx, src, "fl", "training_output")
		}},
		{"AccuracyByHyperparam", func(src source.Source) (any, error) {
			return AccuracyByHyperparam(ctx, src, "fl", "training_input", "training_output", "lr")
		}},
		{"PredicateSelect", func(src source.Source) (any, error) {
			return src.Select(ctx, source.Query{
				Dataflow: "fl", Set: "training_output",
				Where:   []source.Pred{{Attr: "accuracy", Op: source.Ge, Value: 0.7}},
				OrderBy: "loss", Limit: 4,
			})
		}},
		{"Workflows", func(src source.Source) (any, error) {
			return src.Workflows(ctx)
		}},
		{"Task", func(src source.Source) (any, error) {
			return src.Task(ctx, "fl", "w/lr1-e4")
		}},
		{"Tasks", func(src source.Source) (any, error) {
			return src.Tasks(ctx, "fl")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantName string
			var want []byte
			for name, src := range sources {
				got, err := tc.run(src)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				data, err := json.Marshal(got)
				if err != nil {
					t.Fatalf("%s: marshal: %v", name, err)
				}
				if want == nil {
					wantName, want = name, data
					continue
				}
				if !bytes.Equal(data, want) {
					t.Errorf("results diverge:\n  %s: %s\n  %s: %s", wantName, want, name, data)
				}
			}
		})
	}
}

// TestSourceTopKMatchesSeedBehaviour pins the actual values so a uniform
// regression across all three backends cannot slip through the
// equality-only test above.
func TestSourceTopKMatchesSeedBehaviour(t *testing.T) {
	ctx := context.Background()
	for name, src := range buildSources(t) {
		rows, err := TopKAccuracy(ctx, src, "fl", "training_output", 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 3 {
			t.Fatalf("%s: rows = %d, want 3", name, len(rows))
		}
		if a := rows[0]["accuracy"].(float64); a < 0.89 || a > 0.91 {
			t.Errorf("%s: best accuracy = %v, want 0.9", name, rows[0]["accuracy"])
		}
		if id := rows[0]["task_id"].(string); id != "w/lr1-e4" {
			t.Errorf("%s: best task = %q, want w/lr1-e4", name, id)
		}
		ms, err := LatestEpochMetrics(ctx, src, "fl", "training_output")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ms) != 15 {
			t.Fatalf("%s: metrics = %d, want 15", name, len(ms))
		}
		last := ms[len(ms)-1]
		if last.Epoch != 4 {
			t.Errorf("%s: latest epoch = %v, want 4", name, last.Epoch)
		}
		if last.Elapsed != 30*time.Second {
			t.Errorf("%s: elapsed = %v, want 30s (task catalog join)", name, last.Elapsed)
		}
	}
}

// TestSourceErrNotFound checks the not-found contract across backends.
func TestSourceErrNotFound(t *testing.T) {
	ctx := context.Background()
	for name, src := range buildSources(t) {
		if _, err := src.Task(ctx, "fl", "ghost"); !errors.Is(err, source.ErrNotFound) {
			t.Errorf("%s: Task(ghost) error = %v, want ErrNotFound", name, err)
		}
	}
}

// TestSourceContextCancelled checks that every backend honours an
// already-cancelled context.
func TestSourceContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, src := range buildSources(t) {
		if _, err := src.Select(ctx, source.Query{Dataflow: "fl", Set: "training_output"}); err == nil {
			t.Errorf("%s: Select with cancelled ctx should fail", name)
		}
	}
}

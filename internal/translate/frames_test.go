package translate

import (
	"context"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/provdm"
)

func frameOf(t *testing.T, origin string, seq uint64, taskID string) Frame {
	t.Helper()
	now := time.Unix(1700000000, 0).UTC()
	return Frame{
		Origin: origin,
		Seq:    seq,
		Records: []provdm.Record{{
			Event: provdm.EventTaskEnd, WorkflowID: "wf", TaskID: taskID,
			Transformation: "train", Status: provdm.StatusFinished, Time: now,
			Data: []provdm.DataRef{{ID: "out", WorkflowID: "wf",
				Attributes: []provdm.Attribute{{Name: "accuracy", Value: 0.9}}}},
		}},
	}
}

// TestDfAnalyzerTargetFramesDedupOverHTTP drives DeliverFrames through a
// real HTTP server: redelivered frames must not duplicate rows, and
// unidentified batches must still flow via the legacy path.
func TestDfAnalyzerTargetFramesDedupOverHTTP(t *testing.T) {
	srv := dfanalyzer.NewServer(nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	target := NewDfAnalyzerTarget(dfanalyzer.NewClient("http://"+srv.Addr()), "df")

	batch := []Frame{
		frameOf(t, "provlight/d1/records", 1, "t1"),
		frameOf(t, "provlight/d1/records", 2, "t2"),
	}
	if err := target.DeliverFrames(batch); err != nil {
		t.Fatal(err)
	}
	// Redelivery: same identities, must be fully deduplicated server-side.
	if err := target.DeliverFrames(batch); err != nil {
		t.Fatal(err)
	}
	// A frame without a durable id always applies (legacy path).
	if err := target.DeliverFrames([]Frame{frameOf(t, "", 0, "t3")}); err != nil {
		t.Fatal(err)
	}
	rows, err := srv.Store().Select(context.Background(),
		dfanalyzer.Query{Dataflow: "df", Set: "train_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (t1, t2 once each + t3)", len(rows))
	}
}

// TestStoreTargetWorkflowOnlyFrameStillAcked: a frame carrying only
// workflow lifecycle records produces no task messages, but its identity
// must still be marked applied (otherwise it would redeliver forever).
func TestStoreTargetWorkflowOnlyFrameAppliedOnce(t *testing.T) {
	store := dfanalyzer.NewStore()
	target := NewStoreTarget(store, "df")
	now := time.Unix(1700000000, 0).UTC()
	wfFrame := Frame{
		Origin: "provlight/d1/records", Seq: 7,
		Records: []provdm.Record{{Event: provdm.EventWorkflowBegin, WorkflowID: "wf", Time: now}},
	}
	if err := target.DeliverFrames([]Frame{wfFrame}); err != nil {
		t.Fatal(err)
	}
	applied, err := store.IngestFrames([]dfanalyzer.FrameMsg{{Origin: wfFrame.Origin, Seq: wfFrame.Seq}})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("workflow-only frame not marked applied (applied=%d)", applied)
	}
}

// TestStoreTargetInBatchDuplicateAppliedOnce: the same (origin, seq)
// twice in one micro-batch — a spool redelivery landing next to a
// takeover redelivery — must apply once, not once per copy.
func TestStoreTargetInBatchDuplicateAppliedOnce(t *testing.T) {
	store := dfanalyzer.NewStore()
	target := NewStoreTarget(store, "df")
	f := frameOf(t, "provlight/d1/records", 1, "t1")
	if err := target.DeliverFrames([]Frame{f, f}); err != nil {
		t.Fatal(err)
	}
	rows, err := store.Select(context.Background(), dfanalyzer.Query{Dataflow: "df", Set: "train_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1 (in-batch duplicate applied twice)", len(rows))
	}
}

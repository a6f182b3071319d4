package dfanalyzer

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/source"
)

// valueSpec has TEXT, NUMERIC and FILE columns, so every attribute value
// type meets both column kinds.
func valueSpec() *Dataflow {
	return &Dataflow{Tag: "df", Transformations: []Transformation{{
		Tag: "t",
		Input: []SetSchema{{Tag: "t_in", Attributes: []Attribute{
			{Name: "txt", Type: Text}, {Name: "num", Type: Numeric}, {Name: "file", Type: File},
		}}},
		Output: []SetSchema{{Tag: "t_out", Attributes: []Attribute{
			{Name: "txt", Type: Text}, {Name: "num", Type: Numeric},
		}}},
	}}}
}

// Attribute values of every type a store accepts: wire's tagged types, Go
// ints, and the nested values a JSON body decodes to (TEXT only).
var (
	textValues = []any{
		[]byte{1, 2, 3}, int64(12345678901), true, false, nil, 0.1, "s", 7,
		[]any{"x", 1.0}, map[string]any{"k": "v"},
	}
	numericValues = []any{int64(12345678901), 0.1, 7, int64(-1 << 62), 1e300, float64(1) / 3}
)

// valueTasks returns task i's begin and end messages, carrying the i-th
// TEXT and NUMERIC values, sub-second times in a non-UTC zone, and a
// dependency on the previous task.
func valueTasks(i int) []*TaskMsg {
	zone := time.FixedZone("test", 3600)
	start := time.Unix(int64(1700000000+i), int64(i)*1000+7).In(zone)
	end := start.Add(1500 * time.Millisecond)
	id := fmt.Sprintf("t%d", i)
	var deps []string
	if i > 0 {
		deps = []string{fmt.Sprintf("t%d", i-1)}
	}
	tv, nv := textValues[i%len(textValues)], numericValues[i%len(numericValues)]
	return []*TaskMsg{
		{Dataflow: "df", Transformation: "t", ID: id, Status: StatusRunning, StartTime: &start, Dependencies: deps,
			Sets: []SetData{{Tag: "t_in", Elements: []Element{{tv, nv, "file.bin"}}}}},
		{Dataflow: "df", Transformation: "t", ID: id, Status: StatusFinished, EndTime: &end, Dependencies: deps,
			Sets: []SetData{{Tag: "t_out", Elements: []Element{{tv, nv}, {"second row", 2}}}}},
	}
}

// ingestValues feeds a store every value: phase 0 as task batches
// (IngestTasks), phase 1 as IngestFrames with in-batch duplicates,
// redeliveries, frames without a durable id, and poison frames whose
// element fails part way (a TEXT value lands before the NUMERIC one
// fails).
func ingestValues(t testing.TB, s *Store, phase int) {
	t.Helper()
	n := len(textValues) + len(numericValues)
	if phase == 0 {
		for i := 0; i < n; i++ {
			if err := s.IngestTasks(valueTasks(i)); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	frame := func(seq uint64, i int) FrameMsg {
		return FrameMsg{Origin: "dev-1", Seq: seq, Tasks: valueTasks(i)}
	}
	for i := n; i < 2*n; i++ {
		seq := uint64(i - n + 1)
		batch := []FrameMsg{frame(seq, i), frame(seq, i)}
		if seq > 1 {
			batch = append(batch, frame(seq-1, i-1))
		}
		if _, err := s.IngestFrames(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.IngestFrames([]FrameMsg{{Origin: "dev-2", Tasks: valueTasks(2 * n)}}); err != nil {
		t.Fatal(err)
	}
	for k, bad := range []any{nil, true, "not a number"} {
		poison := valueTasks(2*n + 1 + k)
		poison[0].Sets[0].Elements = []Element{{"half a row", bad, "f"}}
		if _, err := s.IngestFrames([]FrameMsg{{Origin: "dev-3", Seq: uint64(k + 1), Tasks: poison}}); err == nil {
			t.Fatalf("poison value %v in a NUMERIC column was applied", bad)
		}
	}
	if _, err := s.IngestFrames([]FrameMsg{frame(1, 2*n+10)}); err != nil { // a late redelivery
		t.Fatal(err)
	}
}

// storeState is what a user can read back: every row of every set, and
// every task entry.
type storeState struct {
	Rows  map[string][]Row
	Tasks []source.TaskInfo
}

func readState(t *testing.T, s *Store) storeState {
	t.Helper()
	ctx := context.Background()
	st := storeState{Rows: map[string][]Row{}}
	for _, set := range []string{"t_in", "t_out"} {
		rows, err := s.Select(ctx, Query{Dataflow: "df", Set: set})
		if err != nil {
			t.Fatal(err)
		}
		st.Rows[set] = rows
	}
	tasks, err := s.Tasks(ctx, "df")
	if err != nil {
		t.Fatal(err)
	}
	st.Tasks = tasks
	return st
}

func requireSameState(t *testing.T, what string, live, got storeState) {
	t.Helper()
	if !reflect.DeepEqual(live, got) {
		t.Fatalf("%s differs from the live store:\nlive: %v\n%s: %v", what, live, what, got)
	}
}

// TestReplayEqualsLive: a store recovered from its WAL alone, from a
// snapshot plus a WAL tail, or from a snapshot alone, and a follower fed
// the primary's WAL, all read back exactly what the live store applied,
// for every attribute value type in TEXT and NUMERIC columns.
func TestReplayEqualsLive(t *testing.T) {
	walDir, snapDir := t.TempDir(), t.TempDir()
	live := mustOpen(t, walDir, -1)
	if err := live.RegisterDataflow(valueSpec()); err != nil {
		t.Fatal(err)
	}
	ingestValues(t, live, 0)
	ingestValues(t, live, 1)
	want := readState(t, live)
	if len(want.Rows["t_in"]) == 0 || len(want.Tasks) == 0 {
		t.Fatal("live store is empty")
	}

	// A follower fed the primary's WAL.
	var recs []ReplRecord
	if err := live.ReplicationWAL().Replay(1, func(seq uint64, payload []byte) error {
		recs = append(recs, ReplRecord{Seq: seq, Payload: append([]byte(nil), payload...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	follower := mustOpen(t, t.TempDir(), -1)
	defer follower.Close()
	if err := follower.ApplyReplicatedBatch(recs); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "follower", want, readState(t, follower))

	// Close + reopen: WAL only.
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	fromWAL := mustOpen(t, walDir, -1)
	requireSameState(t, "recovered from the WAL", want, readState(t, fromWAL))

	// Snapshot only.
	if err := fromWAL.Snapshot(); err != nil {
		t.Fatal(err)
	}
	fromWAL.Close()
	fromSnap := mustOpen(t, walDir, -1)
	defer fromSnap.Close()
	requireSameState(t, "recovered from a snapshot", want, readState(t, fromSnap))

	// Snapshot plus a WAL tail.
	cut := mustOpen(t, snapDir, -1)
	if err := cut.RegisterDataflow(valueSpec()); err != nil {
		t.Fatal(err)
	}
	ingestValues(t, cut, 0)
	if err := cut.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestValues(t, cut, 1)
	requireSameState(t, "second live store", want, readState(t, cut))
	cut.Close()
	fromTail := mustOpen(t, snapDir, -1)
	defer fromTail.Close()
	requireSameState(t, "recovered from a snapshot and a WAL tail", want, readState(t, fromTail))
}

// TestLegacyIngestOpReplays: a data directory whose WAL holds ingest ops,
// which earlier builds logged for task batches and this one only reads,
// opens to the rows the same batches give live, again after a reopen, and
// on a follower fed that WAL.
func TestLegacyIngestOpReplays(t *testing.T) {
	live := NewStore()
	if err := live.RegisterDataflow(valueSpec()); err != nil {
		t.Fatal(err)
	}
	ingestValues(t, live, 0)
	want := readState(t, live)

	dir := t.TempDir()
	s := mustOpen(t, dir, -1)
	if err := s.RegisterDataflow(valueSpec()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(textValues)+len(numericValues); i++ {
		op, err := appendTasks([]byte{opVersion<<4 | byte(opIngest)}, valueTasks(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ReplicationWAL().Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	opened := mustOpen(t, dir, -1)
	requireSameState(t, "opened", want, readState(t, opened))
	var recs []ReplRecord
	if err := opened.ReplicationWAL().Replay(1, func(seq uint64, payload []byte) error {
		recs = append(recs, ReplRecord{Seq: seq, Payload: append([]byte(nil), payload...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	follower := mustOpen(t, t.TempDir(), -1)
	defer follower.Close()
	if err := follower.ApplyReplicatedBatch(recs); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "follower", want, readState(t, follower))
	if err := opened.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir, -1)
	defer reopened.Close()
	requireSameState(t, "reopened", want, readState(t, reopened))
}

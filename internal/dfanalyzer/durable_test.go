package dfanalyzer

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/wal"
)

func testSpec(tag string) *Dataflow {
	return &Dataflow{
		Tag: tag,
		Transformations: []Transformation{{
			Tag: "train",
			Input: []SetSchema{{Tag: "train_input", Attributes: []Attribute{
				{Name: "lr", Type: Numeric},
			}}},
			Output: []SetSchema{{Tag: "train_output", Attributes: []Attribute{
				{Name: "accuracy", Type: Numeric}, {Name: "model", Type: Text},
			}}},
		}},
	}
}

func taskPair(dataflow string, i int) []*TaskMsg {
	start := time.Unix(int64(1700000000+i), 0).UTC()
	end := start.Add(time.Second)
	return []*TaskMsg{
		{
			Dataflow: dataflow, Transformation: "train", ID: fmt.Sprintf("t%d", i),
			Status: StatusRunning, StartTime: &start,
			Sets: []SetData{{Tag: "train_input", Elements: []Element{{float64(i) / 100}}}},
		},
		{
			Dataflow: dataflow, Transformation: "train", ID: fmt.Sprintf("t%d", i),
			Status: StatusFinished, EndTime: &end,
			Sets: []SetData{{Tag: "train_output", Elements: []Element{{float64(i), fmt.Sprintf("m%d", i)}}}},
		},
	}
}

func mustOpen(t testing.TB, dir string, every int) *Store {
	t.Helper()
	s, err := OpenStore(StoreOptions{Dir: dir, Sync: wal.SyncOff, SnapshotEvery: every})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func checkRows(t *testing.T, s *Store, dataflow string, tasks int) {
	t.Helper()
	if got := s.TaskCount(dataflow); got != tasks {
		t.Fatalf("TaskCount = %d, want %d", got, tasks)
	}
	for _, set := range []string{"train_input", "train_output"} {
		rows, err := s.Select(context.Background(), Query{Dataflow: dataflow, Set: set})
		if err != nil {
			t.Fatalf("select %s: %v", set, err)
		}
		if len(rows) != tasks {
			t.Fatalf("%s has %d rows, want %d (lost or duplicated)", set, len(rows), tasks)
		}
	}
}

// TestDurableStoreRecoversFromWALOnly replays a WAL with no snapshot.
func TestDurableStoreRecoversFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, -1) // no periodic snapshots
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.IngestTasks(taskPair("df", i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate the crash (the WAL is the only persistent state).
	s2 := mustOpen(t, dir, -1)
	defer s2.Close()
	checkRows(t, s2, "df", 20)
	// The recovered store keeps working.
	if err := s2.IngestTasks(taskPair("df", 20)); err != nil {
		t.Fatal(err)
	}
	checkRows(t, s2, "df", 21)
}

// TestDurableStoreSnapshotPlusTailReplay crashes after a snapshot plus
// more appends: recovery must load the snapshot and replay only the tail.
func TestDurableStoreSnapshotPlusTailReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, -1)
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.IngestTasks(taskPair("df", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := s.IngestTasks(taskPair("df", i)); err != nil {
			t.Fatal(err)
		}
	}
	s2 := mustOpen(t, dir, -1)
	defer s2.Close()
	checkRows(t, s2, "df", 15)
	// Ordering must survive: rows come back in ingestion order.
	rows, err := s2.Select(context.Background(), Query{Dataflow: "df", Set: "train_output", OrderBy: "accuracy"})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row["model"] != fmt.Sprintf("m%d", i) {
			t.Fatalf("row %d model = %v, want m%d", i, row["model"], i)
		}
	}
}

// TestPeriodicSnapshotReclaimsWAL checks the SnapshotEvery trigger and
// that the WAL shrinks behind it.
func TestPeriodicSnapshotReclaimsWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(StoreOptions{Dir: dir, Sync: wal.SyncOff, SnapshotEvery: 10, SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.IngestTasks(taskPair("df", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.bin")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	// 201 ops at ~200 B each would be ~10 segments unreclaimed; the
	// snapshot should keep only the live tail.
	if len(segs) > 4 {
		t.Fatalf("WAL not reclaimed behind snapshots: %d segments", len(segs))
	}
	s.Close()
	s2 := mustOpen(t, dir, 10)
	defer s2.Close()
	checkRows(t, s2, "df", 100)
}

// TestFrameDedupAcrossRestart is the exactly-once core: redelivered
// frames (same origin+seq) are skipped, both live and after recovery.
func TestFrameDedupAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, -1)
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	frame := func(seq uint64, i int) FrameMsg {
		return FrameMsg{Origin: "provlight/dev-1/records", Seq: seq, Tasks: taskPair("df", i)}
	}
	applied, err := s.IngestFrames([]FrameMsg{frame(1, 0), frame(2, 1)})
	if err != nil || applied != 2 {
		t.Fatalf("first ingest: applied=%d err=%v", applied, err)
	}
	// Redelivery in the same process.
	applied, err = s.IngestFrames([]FrameMsg{frame(1, 0), frame(3, 2)})
	if err != nil || applied != 1 {
		t.Fatalf("redelivery: applied=%d err=%v (dedup failed)", applied, err)
	}
	checkRows(t, s, "df", 3)

	// Crash + recover: the dedup table must be rebuilt from the WAL.
	s2 := mustOpen(t, dir, -1)
	checkRows(t, s2, "df", 3)
	applied, err = s2.IngestFrames([]FrameMsg{frame(2, 1), frame(3, 2), frame(4, 3)})
	if err != nil || applied != 1 {
		t.Fatalf("post-recovery redelivery: applied=%d err=%v", applied, err)
	}
	checkRows(t, s2, "df", 4)

	// Snapshot persists the dedup table too.
	if err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := mustOpen(t, dir, -1)
	defer s3.Close()
	applied, err = s3.IngestFrames([]FrameMsg{frame(4, 3)})
	if err != nil || applied != 0 {
		t.Fatalf("post-snapshot redelivery: applied=%d err=%v", applied, err)
	}
	checkRows(t, s3, "df", 4)
}

// TestInBatchDuplicateFrameAppliedOnce: a batch holding the same
// (origin, seq) twice applies it once, and the state a close + reopen
// recovers from the WAL equals the live state.
func TestInBatchDuplicateFrameAppliedOnce(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, -1)
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	frame := func(seq uint64, i int) FrameMsg {
		return FrameMsg{Origin: "provlight/dev-1/records", Seq: seq, Tasks: taskPair("df", i)}
	}
	applied, err := s.IngestFrames([]FrameMsg{frame(1, 0), frame(2, 1), frame(1, 0)})
	if err != nil || applied != 2 {
		t.Fatalf("ingest: applied=%d err=%v, want 2", applied, err)
	}
	checkRows(t, s, "df", 2)
	live := dumpSets(t, s, "df")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, -1)
	defer s2.Close()
	checkRows(t, s2, "df", 2)
	if got := dumpSets(t, s2, "df"); got != live {
		t.Fatalf("recovered state differs from live state:\nlive:      %s\nrecovered: %s", live, got)
	}
}

// TestFramesEndpointInBatchDuplicate: POST /frames with the same
// (origin, seq) twice in one body applies it once.
func TestFramesEndpointInBatchDuplicate(t *testing.T) {
	srv := NewServer(nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient("http://" + srv.Addr())
	if err := client.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	f := FrameMsg{Origin: "provlight/dev-1/records", Seq: 1, Tasks: taskPair("df", 0)}
	if err := client.SendFrames([]FrameMsg{f, f}); err != nil {
		t.Fatal(err)
	}
	checkRows(t, srv.Store(), "df", 1)
}

// dumpSets renders every row of the test spec's sets as one string, for
// comparing two stores' states.
func dumpSets(t *testing.T, s *Store, dataflow string) string {
	t.Helper()
	var out string
	for _, set := range []string{"train_input", "train_output"} {
		rows, err := s.Select(context.Background(), Query{Dataflow: dataflow, Set: set})
		if err != nil {
			t.Fatalf("select %s: %v", set, err)
		}
		out += fmt.Sprintf("%s=%v;", set, rows)
	}
	return out
}

// TestInMemoryStoreDedupsFrames: even without durability, redeliveries
// within one process lifetime are deduplicated.
func TestInMemoryStoreDedupsFrames(t *testing.T) {
	s := NewStore()
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	f := FrameMsg{Origin: "o", Seq: 7, Tasks: taskPair("df", 0)}
	if applied, err := s.IngestFrames([]FrameMsg{f}); err != nil || applied != 1 {
		t.Fatalf("applied=%d err=%v", applied, err)
	}
	if applied, err := s.IngestFrames([]FrameMsg{f}); err != nil || applied != 0 {
		t.Fatalf("redelivery applied=%d err=%v", applied, err)
	}
	checkRows(t, s, "df", 1)
	if err := s.Close(); err != nil { // no-op for in-memory
		t.Fatal(err)
	}
}

// TestSchemaGrowthSurvivesRecovery re-registers a grown spec, then
// recovers: the widened tables must come back widened.
func TestSchemaGrowthSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, -1)
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	if err := s.IngestTasks(taskPair("df", 0)); err != nil {
		t.Fatal(err)
	}
	grown := testSpec("df")
	grown.Transformations[0].Output[0].Attributes = append(
		grown.Transformations[0].Output[0].Attributes, Attribute{Name: "loss", Type: Numeric})
	if err := s.RegisterDataflow(grown); err != nil {
		t.Fatal(err)
	}
	end := time.Unix(1700009999, 0).UTC()
	wide := &TaskMsg{
		Dataflow: "df", Transformation: "train", ID: "wide", Status: StatusFinished, EndTime: &end,
		Sets: []SetData{{Tag: "train_output", Elements: []Element{{0.9, "m", 0.1}}}},
	}
	if err := s.IngestTasks([]*TaskMsg{wide}); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, -1)
	defer s2.Close()
	rows, err := s2.Select(context.Background(), Query{Dataflow: "df", Set: "train_output"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[1]["loss"] != 0.1 {
		t.Fatalf("grown column lost in recovery: %v", rows[1])
	}
	if rows[0]["loss"] != 0.0 {
		t.Fatalf("backfilled zero lost in recovery: %v", rows[0])
	}
}

// TestCorruptWALOpSkippedViaQuarantine: flip bytes in a sealed WAL
// segment; the store must still open (wal quarantines it) and keep the
// surviving operations.
func TestWALTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, -1)
	if err := s.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.IngestTasks(taskPair("df", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Torn tail: append garbage to the active segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 1, 0, 0, 0xaa})
	f.Close()

	s2 := mustOpen(t, dir, -1)
	defer s2.Close()
	checkRows(t, s2, "df", 5)
}

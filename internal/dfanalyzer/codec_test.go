package dfanalyzer

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/provlight/provlight/internal/wal"
)

// TestOpenRefusesUnknownFormats: a data directory holding a legacy JSON
// snapshot, or a snapshot or WAL op with an unknown magic or version or
// cut short, fails OpenStore with an error naming the file, instead of
// being skipped.
func TestOpenRefusesUnknownFormats(t *testing.T) {
	// seed builds a small store in dir, snapshotted or not, and closes it.
	seed := func(t *testing.T, dir string, snapshot bool) {
		s := mustOpen(t, dir, -1)
		if err := s.RegisterDataflow(valueSpec()); err != nil {
			t.Fatal(err)
		}
		ingestValues(t, s, 0)
		if snapshot {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	editSnapshot := func(edit func([]byte) []byte) func(*testing.T, string) string {
		return func(t *testing.T, dir string) string {
			seed(t, dir, true)
			path := filepath.Join(dir, "snapshot.bin")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, edit(data), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
	}
	appendRecord := func(payload func() []byte) func(*testing.T, string) string {
		return func(t *testing.T, dir string) string {
			seed(t, dir, false)
			log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			seq, err := log.Append(payload())
			if err != nil {
				t.Fatal(err)
			}
			return log.SegmentPath(seq)
		}
	}
	validOp := func() []byte {
		b, err := appendOp(nil, &walOp{Kind: opFrames, Frames: []FrameMsg{{Tasks: valueTasks(1)}}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name  string
		setup func(t *testing.T, dir string) string // returns the file to name
	}{
		{"legacy snapshot.json", func(t *testing.T, dir string) string {
			seed(t, dir, true)
			path := filepath.Join(dir, "snapshot.json")
			if err := os.WriteFile(path, []byte(`{"wal_seq":0,"shards":{}}`), 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}},
		{"snapshot with an unknown magic", editSnapshot(func(b []byte) []byte { return append([]byte("NOTSNAP"), b[7:]...) })},
		{"snapshot with an unknown version", editSnapshot(func(b []byte) []byte { b[len(snapMagic)] = snapVersion + 1; return b })},
		{"truncated snapshot", editSnapshot(func(b []byte) []byte { return b[:len(b)/2] })},
		{"WAL op with an unknown version", appendRecord(func() []byte { return []byte(`{"op":"ingest"}`) })},
		{"truncated WAL op", appendRecord(func() []byte { b := validOp(); return b[:len(b)-3] })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := tc.setup(t, dir)
			s, err := OpenStore(StoreOptions{Dir: dir, Sync: wal.SyncOff})
			if err == nil {
				s.Close()
				t.Fatal("OpenStore accepted it")
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name %s", err, path)
			}
		})
	}
}

// allocBound bounds what decoding n bytes may allocate: linear in n. Every
// decoded count is checked against the bytes left, so a list allocated up
// front costs at most its item size (a few hundred bytes for the largest)
// per byte of input, and nested lists at most add up along one chain.
func allocBound(n int) uint64 { return 256*uint64(n) + 64<<10 }

// allocated reports the bytes f allocated on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeOp: decoding arbitrary bytes as a WAL op never panics and
// allocates only what the input justifies, and an accepted op re-encodes
// to bytes that decode and re-encode identically (byte equality of the
// re-encodings is value equality, NaN included).
func FuzzDecodeOp(f *testing.F) {
	s := mustOpen(f, f.TempDir(), -1)
	if err := s.RegisterDataflow(valueSpec()); err != nil {
		f.Fatal(err)
	}
	if err := s.AdoptTerm(3); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.IngestTasks(valueTasks(i)); err != nil {
			f.Fatal(err)
		}
		if _, err := s.IngestFrames([]FrameMsg{{Origin: "dev-1", Seq: uint64(i + 1), Tasks: valueTasks(10 + i)}}); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.ReplicationWAL().Replay(1, func(_ uint64, payload []byte) error {
		f.Add(append([]byte(nil), payload...))
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	s.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		var op *walOp
		var err error
		if n := allocated(func() { op, err = decodeOp(data) }); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		b1, err := appendOp(nil, op)
		if err != nil {
			t.Fatalf("accepted op does not re-encode: %v", err)
		}
		op2, err := decodeOp(b1)
		if err != nil {
			t.Fatalf("re-encoded op does not decode: %v", err)
		}
		b2, err := appendOp(nil, op2)
		if err != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("op changed across a round trip: %v\n%x\n%x", err, b1, b2)
		}
	})
}

// FuzzDecodeSnapshot is FuzzDecodeOp for snapshots: an accepted snapshot
// is installed in a store, written from it, and must decode and write
// again to the same bytes.
func FuzzDecodeSnapshot(f *testing.F) {
	dir := f.TempDir()
	s := mustOpen(f, dir, -1)
	if err := s.RegisterDataflow(valueSpec()); err != nil {
		f.Fatal(err)
	}
	if err := s.AdoptTerm(2); err != nil {
		f.Fatal(err)
	}
	ingestValues(f, s, 0)
	for _, seq := range []uint64{1, 2, 5, 9} { // a floor of 2 and a sparse seen set
		if _, err := s.IngestFrames([]FrameMsg{{Origin: "dev-1", Seq: seq, Tasks: valueTasks(int(seq) + 20)}}); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		f.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	encode := func(t *testing.T, snap *snapshot) []byte {
		st := NewStore()
		st.install(snap)
		var buf bytes.Buffer
		if err := st.writeSnapshot(&buf, snap.walSeq); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap *snapshot
		var err error
		if n := allocated(func() { snap, err = decodeSnapshot(data) }); n > allocBound(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		b1 := encode(t, snap)
		snap2, err := decodeSnapshot(b1)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if b2 := encode(t, snap2); !bytes.Equal(b1, b2) {
			t.Fatalf("snapshot changed across a round trip:\n%x\n%x", b1, b2)
		}
	})
}

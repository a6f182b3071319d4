package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/provdm"
)

// rawEncoder encodes the uncompressed first step of a two-step encode.
var rawEncoder = Encoder{DisableCompression: true}

// noiseRecord carries an attribute of random bytes, which zlib cannot
// shrink: the frame stays uncompressed even above the threshold.
func noiseRecord(n int) *provdm.Record {
	rec := taskRecord(1)
	noise := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(noise)
	rec.Data[0].Attributes = append(rec.Data[0].Attributes, provdm.Attribute{Name: "noise", Value: noise})
	return rec
}

// TestCompressFrameMatchesOneStepEncode checks that encoding a frame
// uncompressed and then compressing it gives exactly the bytes of one
// AppendFrameSeqCapture call with the same encoder, for every frame shape
// and encoder setting.
func TestCompressFrameMatchesOneStepEncode(t *testing.T) {
	bodies := []struct {
		name       string
		recs       []*provdm.Record
		compressed bool // under the default encoder
	}{
		{"single below threshold", []*provdm.Record{taskRecord(1)}, false},
		{"single above threshold", []*provdm.Record{taskRecord(100)}, true},
		{"single incompressible", []*provdm.Record{noiseRecord(400)}, false},
		{"group below threshold", []*provdm.Record{
			{Event: provdm.EventWorkflowEnd, WorkflowID: "w"},
			{Event: provdm.EventWorkflowEnd, WorkflowID: "v"},
		}, false},
		{"group above threshold", []*provdm.Record{taskRecord(10), taskRecord(20), taskRecord(30)}, true},
		{"group incompressible", []*provdm.Record{noiseRecord(400), {Event: provdm.EventWorkflowEnd, WorkflowID: "w"}}, false},
	}
	encoders := []struct {
		name string
		enc  Encoder
	}{
		{"default", Encoder{}},
		{"disabled", Encoder{DisableCompression: true}},
		{"threshold 4000", Encoder{CompressThreshold: 4000}},
		{"threshold 1", Encoder{CompressThreshold: 1}},
	}
	stamps := []struct{ seq, ns uint64 }{{0, 0}, {42, 0}, {0, 1700000000000000000}, {1 << 40, 1700000000123456789}}
	for _, b := range bodies {
		for _, e := range encoders {
			for _, st := range stamps {
				name := fmt.Sprintf("%s/%s/seq=%d,ns=%d", b.name, e.name, st.seq, st.ns)
				t.Run(name, func(t *testing.T) {
					one, err := e.enc.AppendFrameSeqCapture(nil, st.seq, int64(st.ns), b.recs...)
					if err != nil {
						t.Fatal(err)
					}
					raw, err := rawEncoder.AppendFrameSeqCapture(nil, st.seq, int64(st.ns), b.recs...)
					if err != nil {
						t.Fatal(err)
					}
					two, err := e.enc.CompressFrame([]byte("prefix"), raw)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(two[:6], []byte("prefix")) || !bytes.Equal(two[6:], one) {
						t.Fatalf("two-step encode differs:\n one-step %x\n two-step %x", one, two[6:])
					}
					if e.name == "default" && IsCompressed(one) != b.compressed {
						t.Fatalf("compressed = %v, want %v", IsCompressed(one), b.compressed)
					}
					if e.name == "disabled" && IsCompressed(one) {
						t.Fatal("DisableCompression produced a compressed frame")
					}
				})
			}
		}
	}
}

func TestCompressFrameRejects(t *testing.T) {
	compressed, err := (&Encoder{}).EncodeFrame(taskRecord(100))
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		"empty":              nil,
		"too short":          {Version << 4},
		"bad version":        {0x20, 0x00},
		"already compressed": compressed,
		"truncated seq":      {Version<<4 | flagSeq, 0x80},
		"truncated stamp":    {Version<<4 | flagTrace, 0x80},
	} {
		if _, err := (&Encoder{}).CompressFrame(nil, frame); err == nil {
			t.Errorf("%s: CompressFrame accepted %x", name, frame)
		}
	}
}

// FuzzCompressFrame: compressing any uncompressed frame the decoder
// accepts yields a frame that decodes to the same records, with the same
// FrameSeq and FrameCaptureNS, under both a default and an always-compress
// encoder.
func FuzzCompressFrame(f *testing.F) {
	seed := func(frame []byte, err error) {
		if err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		f.Add(frame)
	}
	seed(rawEncoder.EncodeFrame(taskRecord(3)))
	seed(rawEncoder.EncodeFrame(taskRecord(100)))
	seed(rawEncoder.EncodeFrame(noiseRecord(200)))
	seed(rawEncoder.EncodeFrame(taskRecord(1), taskRecord(2), taskRecord(3)))
	seed(rawEncoder.AppendFrameSeq(nil, 42, taskRecord(2)))
	seed(rawEncoder.AppendFrameSeqCapture(nil, 7, 1700000000000000000, taskRecord(50)))
	seed(rawEncoder.AppendFrameSeqCapture(nil, 0, 1700000000000000000, taskRecord(1), taskRecord(2)))
	f.Add([]byte{Version<<4 | flagSeq | flagTrace, 0x01, 0x02, 0x03})

	encoders := []Encoder{{}, {CompressThreshold: 1}}
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, err := DecodeFrame(raw)
		if err != nil || IsCompressed(raw) {
			return
		}
		for _, enc := range encoders {
			out, err := enc.CompressFrame(nil, raw)
			if err != nil {
				t.Fatalf("CompressFrame refused a decodable raw frame: %v", err)
			}
			got, err := DecodeFrame(out)
			if err != nil {
				t.Fatalf("compressed frame does not decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("records differ:\n raw        %+v\n compressed %+v", want, got)
			}
			seqA, okA := FrameSeq(raw)
			seqB, okB := FrameSeq(out)
			if seqA != seqB || okA != okB {
				t.Fatalf("FrameSeq (%d, %v) -> (%d, %v)", seqA, okA, seqB, okB)
			}
			nsA, okA := FrameCaptureNS(raw)
			nsB, okB := FrameCaptureNS(out)
			if nsA != nsB || okA != okB {
				t.Fatalf("FrameCaptureNS (%d, %v) -> (%d, %v)", nsA, okA, nsB, okB)
			}
		}
	})
}

// packRaws encodes each record list as one raw (uncompressed) frame,
// stamped with stamps[i] when non-zero.
func packRaws(t testing.TB, stamps []int64, frames ...[]*provdm.Record) [][]byte {
	t.Helper()
	raws := make([][]byte, len(frames))
	for i, recs := range frames {
		var ns int64
		if i < len(stamps) {
			ns = stamps[i]
		}
		raw, err := rawEncoder.AppendFrameSeqCapture(nil, 0, ns, recs...)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	return raws
}

// TestCompressFramesPackOfOneIsCompressFrame checks that a lone queued
// frame goes out exactly as CompressFrame would send it.
func TestCompressFramesPackOfOneIsCompressFrame(t *testing.T) {
	shapes := map[string][]*provdm.Record{
		"single below threshold": {taskRecord(1)},
		"single above threshold": {taskRecord(100)},
		"single incompressible":  {noiseRecord(400)},
		"group above threshold":  {taskRecord(10), taskRecord(20)},
	}
	for name, recs := range shapes {
		for _, ns := range []int64{0, 1700000000000000000} {
			for _, enc := range []Encoder{{}, {DisableCompression: true}} {
				raw := packRaws(t, []int64{ns}, recs)[0]
				want, err := enc.CompressFrame([]byte("p"), raw)
				if err != nil {
					t.Fatal(err)
				}
				got, err := enc.CompressFrames([]byte("p"), raw)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s ns=%d %+v: pack of one %x, CompressFrame %x", name, ns, enc, got, want)
				}
			}
		}
	}
}

// TestCompressFramesFlattensInOrder packs singles and GroupSize groups,
// below and above the compression threshold: the pack decodes to every
// record in order, carries the first frame's stamp, and is byte for byte
// the frame one AppendFrameSeqCapture call over all the records gives.
func TestCompressFramesFlattensInOrder(t *testing.T) {
	end := func(wf string) *provdm.Record {
		return &provdm.Record{Event: provdm.EventWorkflowEnd, WorkflowID: wf, Time: time.Unix(0, 42).UTC()}
	}
	cases := []struct {
		name       string
		frames     [][]*provdm.Record
		compressed bool
	}{
		{"singles below threshold", [][]*provdm.Record{{end("a")}, {end("b")}}, false},
		{"singles above threshold", [][]*provdm.Record{{taskRecord(5)}, {taskRecord(6)}, {taskRecord(7)}}, true},
		{"groups below threshold", [][]*provdm.Record{{end("a"), end("b")}, {end("c")}}, false},
		{"singles and groups above threshold", [][]*provdm.Record{
			{taskRecord(1)}, {taskRecord(2), taskRecord(3), end("w")}, {taskRecord(4)}, {end("x"), end("y")},
		}, true},
	}
	for _, tc := range cases {
		for _, stamped := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stamped=%v", tc.name, stamped), func(t *testing.T) {
				var stamps []int64
				var first int64
				if stamped {
					first = 1700000000000000000
					stamps = []int64{first, first + 5, first + 9, first + 12}
				}
				var all []*provdm.Record
				for _, recs := range tc.frames {
					all = append(all, recs...)
				}
				raws := packRaws(t, stamps, tc.frames...)
				enc := Encoder{}
				pack, err := enc.CompressFrames(nil, raws...)
				if err != nil {
					t.Fatal(err)
				}
				want, err := enc.AppendFrameSeqCapture(nil, 0, first, all...)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pack, want) {
					t.Fatalf("pack differs from a one-call encode:\n pack %x\n want %x", pack, want)
				}
				if IsCompressed(pack) != tc.compressed || !IsGroup(pack) {
					t.Fatalf("compressed=%v group=%v, want compressed=%v group", IsCompressed(pack), IsGroup(pack), tc.compressed)
				}
				if ns, ok := FrameCaptureNS(pack); ns != first || ok != stamped {
					t.Fatalf("stamp (%d, %v), want (%d, %v)", ns, ok, first, stamped)
				}
				got, err := DecodeFrame(pack)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(all) {
					t.Fatalf("decoded %d records, want %d", len(got), len(all))
				}
				for i := range all {
					if !reflect.DeepEqual(got[i], *all[i]) {
						t.Fatalf("record %d:\n got  %+v\n want %+v", i, got[i], *all[i])
					}
				}
			})
		}
	}
}

func TestCompressFramesRejects(t *testing.T) {
	plain := packRaws(t, nil, []*provdm.Record{taskRecord(1)})[0]
	seqd, err := rawEncoder.AppendFrameSeq(nil, 7, taskRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := (&Encoder{}).EncodeFrame(taskRecord(100))
	if err != nil {
		t.Fatal(err)
	}
	badGroup := []byte{Version<<4 | flagGroup, 0x02, 0x01, 0x00} // count 2, one record
	for name, raws := range map[string][][]byte{
		"empty pack":          nil,
		"lone seq'd":          {seqd},
		"seq'd in a pack":     {plain, seqd},
		"compressed":          {compressed},
		"compressed in pack":  {plain, compressed},
		"truncated header":    {plain, {Version << 4}},
		"group count overrun": {plain, badGroup},
	} {
		if _, err := (&Encoder{}).CompressFrames(nil, raws...); err == nil {
			t.Errorf("%s: CompressFrames accepted %x", name, raws)
		}
	}
}

// FuzzCompressFrames: packing random raw singles and groups yields one
// frame that decodes to their records concatenated, stamped like the
// first, under a default and an always-compress encoder. Each shape byte
// makes one raw frame: its low two bits plus one records, its high bits
// the attribute count.
func FuzzCompressFrames(f *testing.F) {
	f.Add(int64(1), []byte{0x00})
	f.Add(int64(2), []byte{0x00, 0x01, 0xff})
	f.Add(int64(3), []byte{0x83, 0x40, 0x02, 0x10, 0x00})
	encoders := []Encoder{{}, {CompressThreshold: 1}}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		if len(shape) == 0 || len(shape) > 64 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		var frames [][]*provdm.Record
		var stamps []int64
		var want []provdm.Record
		for _, b := range shape {
			var recs []*provdm.Record
			for i := 0; i <= int(b&3); i++ {
				rec := taskRecord(int(b >> 2))
				rec.TaskID = fmt.Sprintf("t%d", rng.Intn(1000))
				if rng.Intn(4) == 0 {
					rec = &provdm.Record{Event: provdm.EventWorkflowEnd, WorkflowID: rec.TaskID, Time: rec.Time}
				}
				recs = append(recs, rec)
				want = append(want, *rec)
			}
			frames = append(frames, recs)
			stamps = append(stamps, rng.Int63n(2)*(1700000000000000000+rng.Int63n(1e9)))
		}
		raws := packRaws(t, stamps, frames...)
		for _, enc := range encoders {
			pack, err := enc.CompressFrames(nil, raws...)
			if err != nil {
				t.Fatalf("CompressFrames: %v", err)
			}
			got, err := DecodeFrame(pack)
			if err != nil {
				t.Fatalf("pack does not decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("records differ:\n got  %+v\n want %+v", got, want)
			}
			ns, ok := FrameCaptureNS(pack)
			if ns != stamps[0] || ok != (stamps[0] != 0) {
				t.Fatalf("stamp (%d, %v), want %d", ns, ok, stamps[0])
			}
		}
	})
}

package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

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

// Package wire implements the ProvLight on-the-wire payload format: a
// compact binary encoding of provenance capture records with optional zlib
// compression and multi-record grouping (paper §IV-C2: "provenance data
// representation", "payload compression", "data capture grouping").
//
// A frame is the payload of one MQTT-SN PUBLISH:
//
//	byte 0   : version (high nibble) | flags (low nibble)
//	body     : one record, or a group (varint count + length-prefixed
//	           records); zlib-compressed when flagCompressed is set
//
// All integers are varints; int64 values use zigzag encoding; strings and
// byte slices are length-prefixed.
package wire

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/provdm"
)

// Version is the frame format version carried in the high nibble.
const Version = 1

// Frame flags (low nibble of byte 0).
const (
	flagCompressed = 0x01
	flagGroup      = 0x02
	// flagSeq marks a frame carrying a durable frame id: a uvarint
	// sequence number between the header byte and the body. Spooling
	// clients stamp every frame with its spool sequence so the server can
	// deduplicate redeliveries across client restarts (exactly-once).
	flagSeq = 0x04
	// flagTrace marks a frame carrying a capture timestamp: a varint
	// UnixNano between the seq field (if any) and the body. Every stage of
	// the pipeline (publish, broker route, cluster forward, translate,
	// durable apply) subtracts it from its own clock to record cumulative
	// end-to-end latency histograms without any out-of-band trace store.
	flagTrace = 0x08
)

// DefaultCompressThreshold is the body size above which EncodeFrame
// compresses; tiny payloads gain nothing from zlib's 11-byte envelope.
const DefaultCompressThreshold = 96

// MaxFrameBody caps the decoded body size (defense against corrupt or
// hostile length fields): 16 MiB.
const MaxFrameBody = 16 << 20

// value type tags.
const (
	tagNil = iota
	tagInt
	tagFloat
	tagString
	tagTrue
	tagFalse
	tagBytes
)

// Encoder encodes capture records into frames. The zero value encodes with
// compression enabled at the default threshold. Encoders are stateless and
// safe for concurrent use; scratch buffers and zlib writers come from a
// shared pool.
type Encoder struct {
	// DisableCompression turns zlib off (used by the compression ablation).
	DisableCompression bool
	// CompressThreshold overrides DefaultCompressThreshold when > 0.
	CompressThreshold int
}

// maxPooledScratch bounds the capacity of buffers returned to the encoder
// pool so one giant frame does not pin memory forever.
const maxPooledScratch = 1 << 20

// sliceWriter is an allocation-free io.Writer target for the pooled
// zlib.Writer.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// encScratch is the per-encode working set: the record/body build buffers
// and a reusable zlib writer (zlib.NewWriter alone costs ~800 KB of
// allocations per call; Reset makes it free after the first use).
type encScratch struct {
	body []byte
	rec  []byte
	comp sliceWriter
	zw   *zlib.Writer
}

var encPool = sync.Pool{New: func() any { return &encScratch{} }}

func putEncScratch(s *encScratch) {
	if cap(s.body) > maxPooledScratch || cap(s.rec) > maxPooledScratch || cap(s.comp.b) > maxPooledScratch {
		return
	}
	encPool.Put(s)
}

// appendString appends a varint length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendValue appends a tagged attribute value: one type tag byte, then
// the value (zigzag varint int64, big-endian float64 bits, length-prefixed
// string or bytes; nothing for nil and the two booleans). It accepts nil,
// int64, float64, string, bool and []byte; Reader.Value decodes it.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int64:
		b = append(b, tagInt)
		return binary.AppendVarint(b, x), nil
	case float64:
		b = append(b, tagFloat)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(x)), nil
	case string:
		b = append(b, tagString)
		return appendString(b, x), nil
	case bool:
		if x {
			return append(b, tagTrue), nil
		}
		return append(b, tagFalse), nil
	case []byte:
		b = append(b, tagBytes)
		b = binary.AppendUvarint(b, uint64(len(x)))
		return append(b, x...), nil
	default:
		return nil, fmt.Errorf("wire: unsupported attribute type %T", v)
	}
}

// AppendRecord appends the binary encoding of r to b.
func AppendRecord(b []byte, r *provdm.Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	b = append(b, byte(r.Event))
	b = appendString(b, r.WorkflowID)
	b = binary.AppendVarint(b, r.Time.UnixNano())
	if r.Event == provdm.EventTaskBegin || r.Event == provdm.EventTaskEnd {
		b = appendString(b, r.TaskID)
		b = appendString(b, r.Transformation)
		b = binary.AppendUvarint(b, uint64(len(r.Dependencies)))
		for _, d := range r.Dependencies {
			b = appendString(b, d)
		}
		b = append(b, byte(r.Status))
		b = binary.AppendUvarint(b, uint64(len(r.Data)))
		for i := range r.Data {
			var err error
			b, err = appendDataRef(b, &r.Data[i])
			if err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func appendDataRef(b []byte, d *provdm.DataRef) ([]byte, error) {
	b = appendString(b, d.ID)
	b = appendString(b, d.WorkflowID)
	b = binary.AppendUvarint(b, uint64(len(d.Derivations)))
	for _, dv := range d.Derivations {
		b = appendString(b, dv)
	}
	b = binary.AppendUvarint(b, uint64(len(d.Attributes)))
	for _, a := range d.Attributes {
		b = appendString(b, a.Name)
		var err error
		b, err = AppendValue(b, a.Value)
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// EncodeFrame encodes one or more records into a transmit-ready frame.
// Multiple records produce a group frame (the client's grouping feature).
// The returned slice is freshly allocated and owned by the caller.
func (e *Encoder) EncodeFrame(records ...*provdm.Record) ([]byte, error) {
	return e.AppendFrame(nil, records...)
}

// AppendFrame appends the frame encoding of records to dst and returns the
// extended slice. All intermediate work (record encoding, compression)
// happens in pooled scratch buffers, so the only allocation on the steady
// state path is growing dst itself; callers that reuse dst encode with
// zero allocations.
func (e *Encoder) AppendFrame(dst []byte, records ...*provdm.Record) ([]byte, error) {
	return e.AppendFrameSeq(dst, 0, records...)
}

// AppendFrameSeq is AppendFrame with a durable frame id: when seq > 0 the
// frame carries it in a header field (flagSeq) so the receiving side can
// deduplicate redelivered frames by (origin topic, seq). seq == 0 encodes
// a plain frame.
func (e *Encoder) AppendFrameSeq(dst []byte, seq uint64, records ...*provdm.Record) ([]byte, error) {
	return e.AppendFrameSeqCapture(dst, seq, 0, records...)
}

// AppendFrameSeqCapture is AppendFrameSeq with an optional capture
// timestamp (flagTrace): when captureNS > 0 the frame carries the capture
// UnixNano so every downstream stage can record cumulative latency since
// capture. captureNS == 0 encodes an untraced frame.
func (e *Encoder) AppendFrameSeqCapture(dst []byte, seq uint64, captureNS int64, records ...*provdm.Record) ([]byte, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	s := encPool.Get().(*encScratch)
	var flags byte
	body := s.body[:0]
	if len(records) == 1 {
		var err error
		body, err = AppendRecord(body, records[0])
		if err != nil {
			s.body = body
			putEncScratch(s)
			return nil, err
		}
	} else {
		flags |= flagGroup
		body = binary.AppendUvarint(body, uint64(len(records)))
		rec := s.rec[:0]
		for _, r := range records {
			var err error
			rec, err = AppendRecord(rec[:0], r)
			if err != nil {
				s.body, s.rec = body, rec
				putEncScratch(s)
				return nil, err
			}
			body = binary.AppendUvarint(body, uint64(len(rec)))
			body = append(body, rec...)
		}
		s.rec = rec
	}
	s.body = body
	body, compressed, err := e.compressBody(s, body)
	if err != nil {
		putEncScratch(s)
		return nil, err
	}
	if compressed {
		flags |= flagCompressed
	}
	need := 1 + 2*binary.MaxVarintLen64 + len(body)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	if seq > 0 {
		flags |= flagSeq
	}
	if captureNS > 0 {
		flags |= flagTrace
	}
	dst = append(dst, Version<<4|flags)
	if seq > 0 {
		dst = binary.AppendUvarint(dst, seq)
	}
	if captureNS > 0 {
		dst = binary.AppendVarint(dst, captureNS)
	}
	dst = append(dst, body...)
	putEncScratch(s)
	return dst, nil
}

// compressBody returns the body a frame carries under e's settings: the
// zlib stream when compression is on, body exceeds the threshold and zlib
// makes it smaller, else body itself. The result may alias s.comp.
func (e *Encoder) compressBody(s *encScratch, body []byte) ([]byte, bool, error) {
	threshold := e.CompressThreshold
	if threshold <= 0 {
		threshold = DefaultCompressThreshold
	}
	if e.DisableCompression || len(body) <= threshold {
		return body, false, nil
	}
	s.comp.b = s.comp.b[:0]
	if s.zw == nil {
		s.zw = zlib.NewWriter(&s.comp)
	} else {
		s.zw.Reset(&s.comp)
	}
	if _, err := s.zw.Write(body); err != nil {
		return nil, false, err
	}
	if err := s.zw.Close(); err != nil {
		return nil, false, err
	}
	if len(s.comp.b) >= len(body) {
		return body, false, nil
	}
	return s.comp.b, true, nil
}

// CompressFrame appends to dst the wire form of raw, a frame encoded with
// compression disabled: the same header, seq and capture stamp, and the
// body compressed under e's settings. Encoding a frame uncompressed and
// then calling CompressFrame gives exactly the bytes one
// AppendFrameSeqCapture call with e would have, so the zlib work can move
// off the capturing goroutine without changing what goes on the wire.
func (e *Encoder) CompressFrame(dst, raw []byte) ([]byte, error) {
	n, err := headerLen(raw)
	if err != nil {
		return nil, err
	}
	if raw[0]&flagCompressed != 0 {
		return nil, fmt.Errorf("wire: frame is already compressed")
	}
	s := encPool.Get().(*encScratch)
	defer putEncScratch(s)
	body, compressed, err := e.compressBody(s, raw[n:])
	if err != nil {
		return nil, err
	}
	head := raw[0]
	if compressed {
		head |= flagCompressed
	}
	dst = append(dst, head)
	dst = append(dst, raw[1:n]...)
	return append(dst, body...), nil
}

// CompressFrames packs raw frames, each encoded with compression
// disabled and without a seq, into one frame appended to dst, and
// compresses its body once. A pack of one is exactly CompressFrame's
// output. A larger pack is one group frame holding every record in order
// (a raw group frame contributes its records, not a nested group),
// stamped with the first frame's capture timestamp: the same bytes one
// AppendFrameSeqCapture call over all the records would give.
func (e *Encoder) CompressFrames(dst []byte, raws ...[]byte) ([]byte, error) {
	if len(raws) == 0 {
		return nil, fmt.Errorf("wire: empty pack")
	}
	count := 0
	for _, raw := range raws {
		n, err := headerLen(raw)
		if err != nil {
			return nil, err
		}
		switch {
		case raw[0]&flagCompressed != 0:
			return nil, fmt.Errorf("wire: cannot pack a compressed frame")
		case raw[0]&flagSeq != 0:
			return nil, fmt.Errorf("wire: cannot pack a frame with a seq")
		case raw[0]&flagGroup == 0:
			count++
			continue
		}
		k, err := groupLen(raw[n:])
		if err != nil {
			return nil, err
		}
		count += k
	}
	if len(raws) == 1 {
		return e.CompressFrame(dst, raws[0])
	}
	s := encPool.Get().(*encScratch)
	defer putEncScratch(s)
	body := binary.AppendUvarint(s.body[:0], uint64(count))
	for _, raw := range raws {
		n, _ := headerLen(raw)
		if raw[0]&flagGroup == 0 {
			body = binary.AppendUvarint(body, uint64(len(raw)-n))
			body = append(body, raw[n:]...)
			continue
		}
		// Validated by groupLen: the records follow the count verbatim.
		_, k := binary.Uvarint(raw[n:])
		body = append(body, raw[n+k:]...)
	}
	s.body = body
	body, compressed, err := e.compressBody(s, body)
	if err != nil {
		return nil, err
	}
	// With no seq, what follows the first frame's flags byte in its
	// header is its capture stamp, if it has one.
	head := Version<<4 | flagGroup | raws[0][0]&flagTrace
	if compressed {
		head |= flagCompressed
	}
	n, _ := headerLen(raws[0])
	dst = append(dst, head)
	dst = append(dst, raws[0][1:n]...)
	return append(dst, body...), nil
}

// groupLen validates a group body's framing (a count, then that many
// length-prefixed records, then nothing) and returns the count.
func groupLen(body []byte) (int, error) {
	rd := Reader{b: body}
	count, err := rd.ListLen()
	if err != nil {
		return 0, err
	}
	for i := 0; i < count; i++ {
		n, err := rd.Uvarint()
		if err != nil {
			return 0, err
		}
		if n > uint64(rd.Remain()) {
			return 0, io.ErrUnexpectedEOF
		}
		rd.pos += int(n)
	}
	if rd.Remain() != 0 {
		return 0, fmt.Errorf("wire: %d trailing bytes after group", rd.Remain())
	}
	return count, nil
}

// headerLen returns the length of frame's header: the version|flags byte
// plus the seq and capture stamp fields its flags announce.
func headerLen(frame []byte) (int, error) {
	if len(frame) < 2 {
		return 0, fmt.Errorf("wire: frame too short (%d bytes)", len(frame))
	}
	head := frame[0]
	if head>>4 != Version {
		return 0, fmt.Errorf("wire: unsupported version %d", head>>4)
	}
	n := 1
	if head&flagSeq != 0 {
		_, k := binary.Uvarint(frame[n:])
		if k <= 0 {
			return 0, fmt.Errorf("wire: bad frame sequence field")
		}
		n += k
	}
	if head&flagTrace != 0 {
		_, k := binary.Varint(frame[n:])
		if k <= 0 {
			return 0, fmt.Errorf("wire: bad frame capture timestamp field")
		}
		n += k
	}
	return n, nil
}

// FrameSeq returns the durable frame id carried by a frame, if any,
// without decoding the body.
func FrameSeq(frame []byte) (uint64, bool) {
	if len(frame) < 2 || frame[0]&flagSeq == 0 {
		return 0, false
	}
	seq, n := binary.Uvarint(frame[1:])
	if n <= 0 {
		return 0, false
	}
	return seq, true
}

// FrameCaptureNS returns the capture timestamp (UnixNano) carried by a
// traced frame, if any, without decoding the body.
func FrameCaptureNS(frame []byte) (int64, bool) {
	if len(frame) < 2 || frame[0]>>4 != Version || frame[0]&flagTrace == 0 {
		return 0, false
	}
	body := frame[1:]
	if frame[0]&flagSeq != 0 {
		_, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
	}
	ns, n := binary.Varint(body)
	if n <= 0 || ns <= 0 {
		return 0, false
	}
	return ns, true
}

// Reader consumes varint-encoded bytes: frame bodies here, and any other
// format built on the same primitives. Every method fails with an error,
// never a panic, on truncated or malformed input.
type Reader struct {
	b   []byte
	pos int
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remain returns the number of unread bytes.
func (r *Reader) Remain() int { return len(r.b) - r.pos }

// Next returns the next n bytes as a view into the underlying slice.
func (r *Reader) Next(n int) ([]byte, error) {
	if n < 0 || n > r.Remain() {
		return nil, io.ErrUnexpectedEOF
	}
	v := r.b[r.pos : r.pos+n]
	r.pos += n
	return v, nil
}

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.pos >= len(r.b) {
		return 0, io.ErrUnexpectedEOF
	}
	c := r.b[r.pos]
	r.pos++
	return c, nil
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad uvarint")
	}
	r.pos += n
	return v, nil
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: bad varint")
	}
	r.pos += n
	return v, nil
}

// Str reads a length-prefixed string (a copy).
func (r *Reader) Str() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.Remain()) {
		return "", io.ErrUnexpectedEOF
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// Bytes reads a length-prefixed byte slice (a copy).
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remain()) {
		return nil, io.ErrUnexpectedEOF
	}
	out := append([]byte(nil), r.b[r.pos:r.pos+int(n)]...)
	r.pos += int(n)
	return out, nil
}

// Value reads one value written by AppendValue.
func (r *Reader) Value() (any, error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagInt:
		return r.Varint()
	case tagFloat:
		if r.Remain() < 8 {
			return nil, io.ErrUnexpectedEOF
		}
		bits := binary.BigEndian.Uint64(r.b[r.pos:])
		r.pos += 8
		return math.Float64frombits(bits), nil
	case tagString:
		return r.Str()
	case tagTrue:
		return true, nil
	case tagFalse:
		return false, nil
	case tagBytes:
		return r.Bytes()
	default:
		return nil, fmt.Errorf("wire: unknown value tag %d", tag)
	}
}

// ListLen reads a list length and bounds it by the bytes remaining (each
// element needs >= 1 byte), so a corrupt length cannot make the caller
// allocate more than the input justifies.
func (r *Reader) ListLen() (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remain()) {
		return 0, fmt.Errorf("wire: list length %d exceeds remaining %d bytes", n, r.Remain())
	}
	return int(n), nil
}

func (r *Reader) record() (provdm.Record, error) {
	var rec provdm.Record
	ev, err := r.Byte()
	if err != nil {
		return rec, err
	}
	rec.Event = provdm.EventKind(ev)
	if rec.WorkflowID, err = r.Str(); err != nil {
		return rec, err
	}
	ns, err := r.Varint()
	if err != nil {
		return rec, err
	}
	rec.Time = time.Unix(0, ns).UTC()
	if rec.Event == provdm.EventTaskBegin || rec.Event == provdm.EventTaskEnd {
		if rec.TaskID, err = r.Str(); err != nil {
			return rec, err
		}
		if rec.Transformation, err = r.Str(); err != nil {
			return rec, err
		}
		ndeps, err := r.ListLen()
		if err != nil {
			return rec, err
		}
		for i := 0; i < ndeps; i++ {
			d, err := r.Str()
			if err != nil {
				return rec, err
			}
			rec.Dependencies = append(rec.Dependencies, d)
		}
		st, err := r.Byte()
		if err != nil {
			return rec, err
		}
		rec.Status = provdm.TaskStatus(st)
		ndata, err := r.ListLen()
		if err != nil {
			return rec, err
		}
		for i := 0; i < ndata; i++ {
			d, err := r.dataRef()
			if err != nil {
				return rec, err
			}
			rec.Data = append(rec.Data, d)
		}
	}
	if err := rec.Validate(); err != nil {
		return rec, err
	}
	return rec, nil
}

func (r *Reader) dataRef() (provdm.DataRef, error) {
	var d provdm.DataRef
	var err error
	if d.ID, err = r.Str(); err != nil {
		return d, err
	}
	if d.WorkflowID, err = r.Str(); err != nil {
		return d, err
	}
	nderiv, err := r.ListLen()
	if err != nil {
		return d, err
	}
	for i := 0; i < nderiv; i++ {
		s, err := r.Str()
		if err != nil {
			return d, err
		}
		d.Derivations = append(d.Derivations, s)
	}
	nattrs, err := r.ListLen()
	if err != nil {
		return d, err
	}
	for i := 0; i < nattrs; i++ {
		name, err := r.Str()
		if err != nil {
			return d, err
		}
		v, err := r.Value()
		if err != nil {
			return d, err
		}
		d.Attributes = append(d.Attributes, provdm.Attribute{Name: name, Value: v})
	}
	return d, nil
}

// decScratch is the pooled decode working set: a reusable zlib reader
// (reset per frame instead of reallocating its ~40 KB window) and the
// decompression output buffer. Decoded records copy every string and byte
// slice out of the buffer, so it is safe to recycle once DecodeFrame
// returns.
type decScratch struct {
	br  bytes.Reader
	zr  io.ReadCloser
	buf []byte
}

var decPool = sync.Pool{New: func() any { return &decScratch{} }}

func putDecScratch(s *decScratch) {
	if cap(s.buf) > maxPooledScratch {
		return
	}
	s.br.Reset(nil)
	decPool.Put(s)
}

// decompress inflates body into the scratch buffer and returns the view.
func (s *decScratch) decompress(body []byte) ([]byte, error) {
	s.br.Reset(body)
	if s.zr == nil {
		zr, err := zlib.NewReader(&s.br)
		if err != nil {
			return nil, fmt.Errorf("wire: bad compressed body: %w", err)
		}
		s.zr = zr
	} else if err := s.zr.(zlib.Resetter).Reset(&s.br, nil); err != nil {
		return nil, fmt.Errorf("wire: bad compressed body: %w", err)
	}
	out := s.buf[:0]
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := s.zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if len(out) > MaxFrameBody {
			s.buf = out
			return nil, fmt.Errorf("wire: decompressed body exceeds %d bytes", MaxFrameBody)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			s.buf = out
			return nil, fmt.Errorf("wire: decompress: %w", err)
		}
	}
	s.buf = out
	return out, nil
}

// DecodeFrame decodes a frame produced by EncodeFrame, returning the
// records in order.
func DecodeFrame(frame []byte) ([]provdm.Record, error) {
	n, err := headerLen(frame)
	if err != nil {
		return nil, err
	}
	head, body := frame[0], frame[n:]
	var scratch *decScratch
	if head&flagCompressed != 0 {
		scratch = decPool.Get().(*decScratch)
		decoded, err := scratch.decompress(body)
		if err != nil {
			putDecScratch(scratch)
			return nil, err
		}
		body = decoded
	}
	records, err := decodeBody(head, body)
	if scratch != nil {
		putDecScratch(scratch)
	}
	return records, err
}

// decodeBody parses the (decompressed) frame body.
func decodeBody(head byte, body []byte) ([]provdm.Record, error) {
	rd := &Reader{b: body}
	if head&flagGroup == 0 {
		rec, err := rd.record()
		if err != nil {
			return nil, err
		}
		if rd.Remain() != 0 {
			return nil, fmt.Errorf("wire: %d trailing bytes", rd.Remain())
		}
		return []provdm.Record{rec}, nil
	}
	count, err := rd.ListLen()
	if err != nil {
		return nil, err
	}
	records := make([]provdm.Record, 0, count)
	for i := 0; i < count; i++ {
		n, err := rd.Uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(rd.Remain()) {
			return nil, io.ErrUnexpectedEOF
		}
		sub := &Reader{b: rd.b[rd.pos : rd.pos+int(n)]}
		rd.pos += int(n)
		rec, err := sub.record()
		if err != nil {
			return nil, err
		}
		if sub.Remain() != 0 {
			return nil, fmt.Errorf("wire: record %d has %d trailing bytes", i, sub.Remain())
		}
		records = append(records, rec)
	}
	if rd.Remain() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after group", rd.Remain())
	}
	return records, nil
}

// IsCompressed reports whether the frame's body is zlib-compressed.
func IsCompressed(frame []byte) bool {
	return len(frame) > 0 && frame[0]&flagCompressed != 0
}

// IsGroup reports whether the frame carries multiple records.
func IsGroup(frame []byte) bool {
	return len(frame) > 0 && frame[0]&flagGroup != 0
}

package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wire"
)

// nanotime is the one clock every span and latency uses; it matches the
// capture stamp the client writes into each frame.
func nanotime() int64 { return time.Now().UnixNano() }

// sockRole names which tier a wrapped socket belongs to.
type sockRole int

const (
	roleDevice sockRole = iota
	roleBroker
	roleTranslator
	roleLink // inter-node cluster links
	numRoles
)

// sockStats counts the datagrams and bytes of every socket of one role.
type sockStats struct {
	role     sockRole
	tr       *tracer
	outDgram atomic.Uint64
	outBytes atomic.Uint64
	inDgram  atomic.Uint64
	inBytes  atomic.Uint64
}

func (s *sockStats) snapshot() sockSnap {
	return sockSnap{s.outDgram.Load(), s.outBytes.Load(), s.inDgram.Load(), s.inBytes.Load()}
}

type sockSnap struct{ outDgram, outBytes, inDgram, inBytes uint64 }

func (a sockSnap) sub(b sockSnap) sockSnap {
	return sockSnap{a.outDgram - b.outDgram, a.outBytes - b.outBytes, a.inDgram - b.inDgram, a.inBytes - b.inBytes}
}

// countingTransport wraps a transport so every socket it produces counts
// its traffic; listen and dial sockets may count under different roles
// (a cluster's node listeners are brokers, its dialed links are links).
type countingTransport struct {
	inner        transport.Transport
	listen, dial *sockStats
}

func (t *countingTransport) Listen(addr string) (net.PacketConn, error) {
	pc, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{PacketConn: pc, st: t.listen}, nil
}

func (t *countingTransport) Dial(addr string) (net.PacketConn, net.Addr, error) {
	pc, gw, err := t.inner.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	return &countingConn{PacketConn: pc, st: t.dial}, gw, nil
}

// countingConn counts one socket's traffic. One WriteTo is one datagram
// and one write syscall on the UDP substrate.
type countingConn struct {
	net.PacketConn
	st *sockStats
}

func (c *countingConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	c.st.outDgram.Add(1)
	c.st.outBytes.Add(uint64(len(p)))
	if c.st.tr.on() && (c.st.role == roleDevice || c.st.role == roleLink) {
		c.st.tr.packet(c.st.role, p)
	}
	return c.PacketConn.WriteTo(p, addr)
}

func (c *countingConn) ReadFrom(p []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(p)
	if n > 0 {
		c.st.inDgram.Add(1)
		c.st.inBytes.Add(uint64(n))
		if c.st.role == roleTranslator && c.st.tr.on() {
			c.st.tr.packet(c.st.role, p[:n])
		}
	}
	return n, addr, err
}

// SetReadBuffer forwards to the wrapped socket (the broker sizes its
// receive buffer through it).
func (c *countingConn) SetReadBuffer(bytes int) error {
	if rb, ok := c.PacketConn.(interface{ SetReadBuffer(int) error }); ok {
		return rb.SetReadBuffer(bytes)
	}
	return nil
}

// frameTimes is one frame's path through the pipeline, keyed by its
// capture stamp. Zero fields were not observed.
type frameTimes struct {
	capture    int64 // capture stamp (client clock)
	devWrite   int64 // first PUBLISH write on the device socket
	linkWrite  int64 // first PUBLISH write on an inter-node link
	xlRead     int64 // first PUBLISH read on the translator socket
	applyStart int64 // DeliverFrames called
	applyEnd   int64 // DeliverFrames returned
	batch      int   // frames in that DeliverFrames call
}

// tracer records frame spans in memory while enabled. It is used only by
// the traced run; the untraced run pays one atomic load per datagram.
type tracer struct {
	enabled atomic.Bool
	mu      sync.Mutex
	frames  map[int64]*frameTimes
}

func newTracer() *tracer { return &tracer{frames: map[int64]*frameTimes{}} }

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) frame(ns int64) *frameTimes {
	f := t.frames[ns]
	if f == nil {
		f = &frameTimes{capture: ns}
		t.frames[ns] = f
	}
	return f
}

// packet notes a PUBLISH carrying a traced frame crossing a socket.
func (t *tracer) packet(role sockRole, dgram []byte) {
	now := nanotime()
	pkt, err := mqttsn.Unmarshal(dgram)
	if err != nil {
		return
	}
	pub, ok := pkt.(*mqttsn.Publish)
	if !ok {
		return
	}
	ns, ok := wire.FrameCaptureNS(pub.Data)
	if !ok {
		return
	}
	t.mu.Lock()
	f := t.frame(ns)
	var slot *int64
	switch role {
	case roleDevice:
		slot = &f.devWrite
	case roleLink:
		slot = &f.linkWrite
	case roleTranslator:
		slot = &f.xlRead
	}
	if *slot == 0 {
		*slot = now
	}
	t.mu.Unlock()
}

func (t *tracer) apply(frames []translate.Frame, start, end int64) {
	t.mu.Lock()
	for i := range frames {
		if frames[i].CaptureNS == 0 {
			continue
		}
		f := t.frame(frames[i].CaptureNS)
		if f.applyStart == 0 {
			f.applyStart, f.applyEnd, f.batch = start, end, len(frames)
		}
	}
	t.mu.Unlock()
}

// snapshot returns the recorded frames and clears the tracer.
func (t *tracer) take() []frameTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]frameTimes, 0, len(t.frames))
	for _, f := range t.frames {
		out = append(out, *f)
	}
	t.frames = map[int64]*frameTimes{}
	return out
}

// appliedTarget wraps the durable store target. It is the push signal of
// the benchmark: it counts the records each device got applied, records
// each frame's capture-to-applied latency, and wakes the generator.
type appliedTarget struct {
	// inner and store are rebound by each set-up, before its translator
	// starts.
	inner  translate.FrameTarget
	store  *dfanalyzer.Store
	origin map[string]int // device topic -> device index (read-only)
	tr     *tracer

	applied [numDevices]atomic.Int64 // records applied per device
	// seen[d][seq] marks spooled frames already delivered, so that a
	// redelivery is not counted as progress twice.
	seen       [numDevices][]bool
	redelivers atomic.Int64
	errs       atomic.Int64
	firstErr   atomic.Pointer[string] // the first store error's text
	frames     atomic.Int64           // frames handed to the store
	applyNS    atomic.Int64           // time spent inside the store's DeliverFrames
	lastApply  atomic.Int64           // when a device record was last applied
	// snapshots counts store snapshots seen while tracing: advances of
	// the store's snapshot position past lastSnap, which is set when
	// tracing starts.
	snapshots atomic.Int64
	lastSnap  uint64

	// Latency window: frames captured in [winStart, winEnd) have their
	// capture-to-applied latency stored in lat.
	winStart, winEnd atomic.Int64
	lat              []int64
	nLat             atomic.Int64

	signal chan struct{} // capacity 1: coalesced "something was applied"
}

func newAppliedTarget(topics [numDevices]string, maxSeq, maxLat int, tr *tracer) *appliedTarget {
	t := &appliedTarget{
		origin: map[string]int{},
		tr:     tr,
		lat:    make([]int64, maxLat),
		signal: make(chan struct{}, 1),
	}
	for d, topic := range topics {
		t.origin[topic] = d
		t.seen[d] = make([]bool, maxSeq+1)
	}
	return t
}

func (t *appliedTarget) Name() string { return "applied(" + t.inner.Name() + ")" }

func (t *appliedTarget) Deliver(records []provdm.Record) error {
	return t.DeliverFrames([]translate.Frame{{Records: records}})
}

// DeliverFrames forwards the batch to the store and accounts for it. The
// translator calls it from a single worker goroutine.
func (t *appliedTarget) DeliverFrames(frames []translate.Frame) error {
	start := nanotime()
	err := t.inner.DeliverFrames(frames)
	end := nanotime()
	t.applyNS.Add(end - start)
	t.frames.Add(int64(len(frames)))
	if err != nil {
		t.errs.Add(1)
		msg := err.Error()
		t.firstErr.CompareAndSwap(nil, &msg)
		return err
	}
	if t.tr.on() {
		t.tr.apply(frames, start, end)
		if seq := t.store.SnapshotSeq(); seq != t.lastSnap {
			t.snapshots.Add(1)
			t.lastSnap = seq
		}
	}
	ws, we := t.winStart.Load(), t.winEnd.Load()
	for i := range frames {
		f := &frames[i]
		d, ok := t.origin[f.Origin]
		if !ok {
			continue
		}
		if f.Seq > 0 {
			if f.Seq >= uint64(len(t.seen[d])) || t.seen[d][f.Seq] {
				t.redelivers.Add(1)
				continue
			}
			t.seen[d][f.Seq] = true
		}
		if f.CaptureNS >= ws && f.CaptureNS < we {
			if n := t.nLat.Load(); n < int64(len(t.lat)) {
				t.lat[n] = end - f.CaptureNS
				t.nLat.Store(n + 1)
			}
		}
		t.applied[d].Add(int64(len(f.Records)))
		t.lastApply.Store(end)
	}
	select {
	case t.signal <- struct{}{}:
	default:
	}
	return nil
}

// latencies returns the recorded capture-to-applied latencies.
func (t *appliedTarget) latencies() []int64 { return t.lat[:t.nLat.Load()] }

// resetWindow starts a new latency window. Call it only while no frame
// is in flight.
func (t *appliedTarget) resetWindow(start, end int64) {
	t.nLat.Store(0)
	t.winEnd.Store(end)
	t.winStart.Store(start)
}

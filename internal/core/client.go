// Package core implements the ProvLight client capture library: the
// paper's primary contribution (§IV). It provides the Workflow/Task/Data
// instrumentation API of Listing 1, backed by the simplified PROV-DM
// exchange model (Table V), binary payload compression, optional grouping
// of captured data from ended tasks, and asynchronous publish/subscribe
// transmission over MQTT-SN/UDP at QoS 2 (Table VI).
//
// Capture never waits on zlib or on an fsync. In memory mode it encodes
// the frame uncompressed and queues it in the client's outbox
// (mqttsn.Outbox); the session's goroutine compresses it just before
// publishing, with the same bytes on the wire as a one-step encode. In
// spool mode the frame is compressed before its WAL append, so it is on
// disk in its wire form when Capture returns, and the drainer's fsync
// (the publish barrier) runs outside the WAL's append lock.
//
// In memory mode the outbox also packs every frame already queued when it
// takes one (up to 16 KiB of raw frame) into one group frame, compressed
// once and sent in one PUBLISH at the configured QoS. It never waits for
// more frames to arrive: a lone frame leaves at once, byte for byte as it
// would alone, while a burst shares one zlib pass and one QoS 2 handshake.
// This is the paper's record grouping (§IV-C2) applied to whatever the
// link has not yet taken, with no added latency.
//
// Both modes publish through one supervised broker session
// (mqttsn.Session), which redials under a jittered backoff whenever the
// session dies: a broker DISCONNECT or restart, a silent gateway, or a
// PUBLISH the broker refused or that ran out of retries. In memory mode
// the outbox keeps every PUBLISH until its handshake completes and
// re-sends the kept ones, in order, on the next session, so frames are
// delivered at least once across a session change; frames captured while
// the session is down wait in its queue (see Config.QueueCapacity). In
// spool mode they wait on disk.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/resilience"
	"github.com/provlight/provlight/internal/spool"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wal"
	"github.com/provlight/provlight/internal/wire"
)

// ErrQueueFull is returned by Capture when the asynchronous transmit
// queue is full and no spool is configured: the frame is dropped and
// counted in StatsSnapshot.QueueFull. See Config.QueueCapacity for the
// backpressure contract.
var ErrQueueFull = errors.New("provlight: transmit queue full")

// DefaultTopic returns the topic a client with the given id publishes its
// records on: one topic per device, mirroring Fig. 5 (topic-1..topic-64).
func DefaultTopic(clientID string) string {
	return "provlight/" + clientID + "/records"
}

// Config configures a capture client.
type Config struct {
	// Broker is the MQTT-SN gateway address (host:port over UDP).
	Broker string
	// ClientID identifies this device (also the default topic component).
	ClientID string
	// Topic overrides the publish topic; empty uses DefaultTopic(ClientID).
	Topic string
	// QoS is the publish quality of service. The paper's default is QoS 2
	// ("exactly once", Table VI); the zero value is mapped to QoS 2 (as in
	// translate.Config). Fire-and-forget capture is available via
	// mqttsn.QoSMinusOne; QoS 0 cannot be requested through this field.
	// In memory mode every hop runs the configured QoS. In spool mode QoS 2
	// is delivered end to end, by the frame's durable seq, the translator's
	// ack after durable apply and the store's (origin, seq) dedup, and the
	// hops run QoS 1.
	QoS mqttsn.QoS
	// GroupSize, when > 0, buffers the records of that many *ended tasks*
	// and transmits them in one frame. Task-begin records are always sent
	// immediately so users can still track started tasks at runtime
	// (§IV-C2: "group data just from ended tasks"). Independently of it, in
	// memory mode frames already queued for the sender share a PUBLISH
	// (see the package doc); that adds no wait, so a task-begin record
	// still leaves at once.
	GroupSize int
	// QueueCapacity bounds the frames waiting to be sent, also while the
	// broker session is down; the PUBLISHes already sent and kept until
	// their handshake completes are bounded by WindowSize instead.
	// Default 1024.
	//
	// Backpressure contract: when the queue is full (the broker is slower
	// than capture, or unreachable) and no spool is configured, Capture
	// drops the frame, counts it in StatsSnapshot.QueueFull, and returns
	// ErrQueueFull — it never blocks the instrumented workload. Callers
	// that prefer lossless capture under backpressure should either size
	// QueueCapacity for their burst profile or configure SpoolDir, which
	// replaces the bounded memory queue with a disk-backed one.
	QueueCapacity int
	// SpoolDir, when set, enables store-and-forward capture: frames are
	// appended to a segmented write-ahead log in this directory before
	// (instead of) the in-memory transmit queue, a supervised broker
	// session (mqttsn.Session) drains them, and frames are released
	// (and their disk space reclaimed) only on end-to-end acknowledgements
	// from the translator. Capture therefore survives client crashes and
	// arbitrarily long partitions; redelivered frames carry durable ids so
	// the server ingests them exactly once. NewClient does not require the
	// broker to be reachable in this mode.
	SpoolDir string
	// SpoolSync is the spool's fsync policy. The default, wal.SyncInterval,
	// survives process crashes with zero loss (the page cache persists)
	// and bounds power-loss exposure to SpoolSyncInterval; wal.SyncEach
	// makes every captured frame power-loss durable before Capture
	// returns.
	SpoolSync wal.SyncPolicy
	// SpoolSyncInterval is the background fsync period. Default 100 ms.
	SpoolSyncInterval time.Duration
	// SpoolSegmentSize is the WAL segment rotation size. Default 8 MiB.
	SpoolSegmentSize int64
	// SpoolQuota caps the spool's on-disk bytes (0 = unlimited). When
	// usage crosses the spool's high watermark (90 % of the quota) it
	// degrades according to SpoolPolicy until usage falls below the low
	// watermark (70 %). See spool.DegradePolicy.
	SpoolQuota int64
	// SpoolPolicy selects degraded-mode behavior: spool.Block (default)
	// stalls capture with ErrSpoolDegraded, spool.DropNew sheds arriving
	// QoS 0 frames first, spool.DropOldestUnacked sheds the oldest
	// spooled frames (freshest-data-wins).
	SpoolPolicy spool.DegradePolicy
	// AckWindow caps how many frames the drainer publishes ahead of the
	// acknowledged floor. Default 64.
	AckWindow int
	// RedeliverAfter: when no acknowledgement progress happens for this
	// long while published frames are pending, the drainer rewinds and
	// republishes them (covering lost acks and translator restarts).
	// Default 10 s.
	RedeliverAfter time.Duration
	// ReconnectMinDelay / ReconnectMaxDelay bound the broker session's
	// exponential reconnect backoff, in both modes. Defaults 250 ms and
	// 10 s. Each sleep is jittered uniformly over [d/2, d] so a fleet of
	// edge clients that lost the same broker or translator does not
	// reconnect in lockstep; after a congestion rejection the sleep is at
	// least mqttsn.CongestionRetryAfter.
	ReconnectMinDelay time.Duration
	ReconnectMaxDelay time.Duration
	// WindowSize bounds how many publish handshakes the client keeps in
	// flight at once. Each frame holds its slot for one round trip at
	// QoS 1 (spool mode) and two at QoS 2 (memory mode); the window
	// overlaps those handshakes so throughput is no longer capped at one
	// frame per handshake on high-latency edge links. 1 restores the
	// stop-and-wait behaviour (one frame fully acknowledged before the
	// next is sent); frames are always *submitted* in capture order, but
	// with WindowSize > 1 they may complete (and be routed by the broker)
	// out of order. In memory mode a slot holds one PUBLISH, which carries
	// every frame queued when it was built: frames that queue up behind a
	// full window leave together in the next PUBLISH. It also bounds the
	// memory-mode PUBLISHes kept for a re-send on the next session.
	// Default 16.
	WindowSize int
	// KeepAlive, RetryInterval, MaxRetries tune the MQTT-SN session.
	KeepAlive     time.Duration
	RetryInterval time.Duration
	MaxRetries    int
	// Transport dials the broker, once per broker session; nil means
	// transport.UDP{}. Wrap it (netem.WrapTransport, chaos.Fault.Transport)
	// to shape or fault the link.
	Transport transport.Transport
	// OnError receives asynchronous transmission errors. Default: drop.
	//
	// Serialization contract: invocations are serialized — the callback is
	// never called concurrently with itself, even with WindowSize > 1
	// handshakes failing near-simultaneously — so implementations need no
	// internal locking. The callback runs on a transmission goroutine and
	// must not block: a slow OnError stalls error collection (though never
	// the capture path itself). Calling methods of the originating Client
	// from inside the callback risks deadlock.
	OnError func(error)
	// Metrics, when set, registers this client's counters (labeled
	// client=<ClientID>) and the capture→publish stage latency histogram
	// with the registry. Export happens at scrape time from the same
	// atomics behind StatsSnapshot, so the capture hot path pays nothing.
	Metrics *obs.Registry
	// DisableTrace turns off the per-frame capture timestamp (flagTrace).
	// Traced frames cost ~9 bytes and one clock read each and let every
	// downstream stage (broker, cluster link, translator, store) export
	// cumulative e2e latency histograms; leave tracing on unless an
	// ablation needs byte-identical frames.
	DisableTrace bool
}

// Stats counts client activity. Values are a point-in-time snapshot taken
// by StatsSnapshot; read fields from the returned copy, never from shared
// storage.
type Stats struct {
	RecordsCaptured uint64
	// FramesPublished counts frames queued to be sent in memory mode
	// (never one dropped before leaving the client) and frames the drainer
	// publishes in spool mode. Publishes counts the PUBLISHes built for the
	// transport, a re-send on a later session not included: in memory mode
	// every frame already queued is packed into one, so RecordsCaptured /
	// Publishes is the records each PUBLISH carries. BytesPublished and
	// FramesCompressed count PUBLISH payloads where they are compressed:
	// when the PUBLISH is packed in memory mode, so they can trail
	// FramesPublished until Flush; at the spool append in spool mode, where
	// every frame is its own PUBLISH.
	FramesPublished  uint64
	Publishes        uint64
	BytesPublished   uint64
	FramesCompressed uint64
	RecordsGrouped   uint64
	// AsyncErrors counts the asynchronous errors that cost frames, one per
	// frame lost (a lost packed PUBLISH counts every frame it carried),
	// plus spool and acknowledgement errors. Each is also passed to
	// OnError. A failed dial reaches OnError but is not counted here:
	// ReconnectAttempts and ReconnectConsecFailures count those.
	AsyncErrors uint64
	// QueueFull counts frames dropped because the transmit queue was full
	// (no spool configured); each drop also returned ErrQueueFull.
	QueueFull uint64
	// Spool counters (zero without SpoolDir). FramesSpooled counts frames
	// appended to the WAL; SpoolAcked is the contiguously acknowledged
	// floor; SpoolPending is how many spooled frames still await
	// end-to-end acknowledgement; SpoolRedeliveries counts rewind passes
	// after ack stalls. SpoolReconnects counts broker sessions established
	// in either mode (the first connect included), despite its prefix.
	FramesSpooled     uint64
	SpoolAcked        uint64
	SpoolPending      uint64
	SpoolRedeliveries uint64
	SpoolReconnects   uint64
	// StaleAcks counts end-to-end acknowledgements dropped because they
	// carried a replication term lower than the highest this client has
	// seen — acks from a zombie translator still feeding a deposed
	// primary after a failover. AckTerm is that highest seen term.
	StaleAcks uint64
	AckTerm   uint64
	// Reconnect backoff state of the broker session. ReconnectAttempts
	// counts every dial made (successful or not);
	// ReconnectConsecFailures is the current failure streak (0 while
	// connected); NextRetryUnixNano is when the next dial is scheduled
	// (0 when connected or not waiting). Together they answer "is this
	// client connected, and if not, when will it try again?".
	ReconnectAttempts       uint64
	ReconnectConsecFailures uint64
	NextRetryUnixNano       int64
	// FramesShed counts capture frames intentionally dropped by the
	// spool's degradation policy (vs stored or stalled).
	FramesShed uint64
	// Spool degradation + durability health (zero-valued without
	// SpoolDir; see spool.Stats for field semantics).
	SpoolUsedBytes            int64
	SpoolQuotaBytes           int64
	SpoolDegraded             bool
	SpoolDegradedEvents       uint64
	SpoolShedQoS0             uint64
	SpoolShedHigher           uint64
	SpoolBlockedAppends       uint64
	SpoolMarkPersistErrors    uint64
	SpoolLastMarkPersistError string
	SpoolWALSyncErrors        uint64
	SpoolLastWALSyncError     string
}

// Client is the ProvLight capture library handle. Create with NewClient,
// instrument code via NewWorkflow, and Close when done.
type Client struct {
	cfg   Config
	topic string
	enc   wire.Encoder

	mu    sync.Mutex // guards group
	group []*provdm.Record

	// txMu serializes encode+enqueue so frames enter the outbox in
	// capture order. Callers that decide what to transmit under c.mu
	// acquire txMu *before* releasing c.mu (a lock handoff); this keeps a
	// cut group batch ordered against any capture that follows it. txMu is
	// never held while acquiring c.mu, so the ordering is deadlock-free.
	txMu sync.Mutex

	// errMu serializes OnError callbacks: with WindowSize > 1 several
	// handshakes can fail near-simultaneously on different collector
	// goroutines, but the callback keeps the pre-windowing one-at-a-time
	// contract.
	errMu sync.Mutex

	ctr    counters
	closed atomic.Bool
	// stopped is closed once the Shutdown or Abort that claimed the
	// teardown has finished it.
	stopped chan struct{}

	// stageCapture is the capture→publish latency histogram (nil without
	// Config.Metrics — all obs instruments are nil-safe).
	stageCapture *obs.Histogram

	// session is the supervised broker session of both modes; its Serve
	// is out.Serve in memory mode and drainWith in spool mode.
	session *mqttsn.Session

	// Memory mode: captured raw frames wait in out, and stay there until
	// the PUBLISH that carries them completes its handshake. inFly counts
	// frames captured but not yet delivered or lost. spare holds payload
	// buffers of released PUBLISHes for the next pack, and raws is pack's
	// scratch.
	out   *mqttsn.Outbox[*[]byte]
	inFly sync.WaitGroup
	spare chan []byte
	raws  [][]byte

	// Spool mode (Config.SpoolDir): captures append to the spool and out
	// is unused.
	spool *spool.Spool
}

// framePool recycles encoded frame buffers. In memory mode a raw frame is
// leased in transmit and returned when the PUBLISH carrying it is
// released (the transport does not retain the payload after the flow's
// outcome is delivered), so the steady-state capture path allocates
// nothing per frame.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// rawEncoder encodes the uncompressed frames memory mode queues; pack
// compresses them with Client.enc (wire.Encoder.CompressFrames).
var rawEncoder = wire.Encoder{DisableCompression: true}

// counters are the lock-free internals behind Stats.
type counters struct {
	recordsCaptured  atomic.Uint64
	framesPublished  atomic.Uint64
	publishes        atomic.Uint64
	bytesPublished   atomic.Uint64
	framesCompressed atomic.Uint64
	recordsGrouped   atomic.Uint64
	asyncErrors      atomic.Uint64
	queueFull        atomic.Uint64
	framesSpooled    atomic.Uint64
	redeliveries     atomic.Uint64
	staleAcks        atomic.Uint64
	ackTerm          atomic.Uint64
	framesShed       atomic.Uint64
}

// NewClient connects to the broker and returns a ready capture client.
// ctx bounds the connect and topic-registration handshakes (a nil or
// background context means the transport's own retry budget applies); it
// does not govern the client's lifetime — use Shutdown/Close for that.
// Once connected, a supervised session (mqttsn.Session) redials whenever
// the broker session dies.
//
// With Config.SpoolDir set, NewClient opens the spool and returns without
// requiring the broker to be reachable: the drainer connects (and keeps
// reconnecting) in the background while captures land on disk.
func NewClient(ctx context.Context, cfg Config) (*Client, error) {
	if cfg.ClientID == "" {
		return nil, fmt.Errorf("provlight: ClientID required")
	}
	if cfg.Topic == "" {
		cfg.Topic = DefaultTopic(cfg.ClientID)
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 16
	}
	if cfg.QoS == 0 {
		// The seed shipped with the zero value silently meaning QoS 0 while
		// documenting QoS 2 as the default; the capture pipeline (Table VI)
		// is exactly-once, so make the zero value mean that.
		cfg.QoS = mqttsn.QoS2
	}
	if cfg.ReconnectMinDelay <= 0 {
		cfg.ReconnectMinDelay = 250 * time.Millisecond
	}
	if cfg.ReconnectMaxDelay <= 0 {
		cfg.ReconnectMaxDelay = 10 * time.Second
	}
	c := &Client{cfg: cfg, topic: cfg.Topic, stopped: make(chan struct{})}
	var serve func(*mqttsn.Client, <-chan struct{})
	if cfg.SpoolDir != "" {
		if err := c.openSpool(); err != nil {
			return nil, err
		}
		serve = c.drainWith
	} else {
		c.out = mqttsn.NewOutbox(cfg.QueueCapacity, c.pack, c.released)
		c.spare = make(chan []byte, cfg.WindowSize)
		serve = c.out.Serve
	}
	c.session = mqttsn.NewSession(mqttsn.SessionConfig{
		Client: mqttsn.ClientConfig{
			ClientID:       cfg.ClientID,
			Gateway:        cfg.Broker,
			Transport:      cfg.Transport,
			KeepAlive:      cfg.KeepAlive,
			RetryInterval:  cfg.RetryInterval,
			MaxRetries:     cfg.MaxRetries,
			InflightWindow: cfg.WindowSize,
			CleanSession:   true,
		},
		Setup:   c.setupSession,
		Serve:   serve,
		Backoff: resilience.Backoff{Min: cfg.ReconnectMinDelay, Max: cfg.ReconnectMaxDelay},
		OnDialError: func(_ int, err error) error {
			c.onError(fmt.Errorf("provlight: connect broker %s: %w", cfg.Broker, err))
			return err
		},
	})
	// Memory mode starts connected, with its topic registered: the
	// long-lived connection and pre-registered topic are part of why
	// per-event cost stays low (§VII-A: "keeps the connection to the
	// remote server open"). Spool mode captures to disk meanwhile.
	if c.spool != nil {
		c.session.Start()
	} else if err := c.session.Open(ctx); err != nil {
		return nil, fmt.Errorf("provlight: connect broker %s: %w", cfg.Broker, err)
	}
	c.initMetrics()
	return c, nil
}

// setupSession re-establishes what a fresh broker session needs: the
// records topic registration and, in spool mode, the per-device ack
// subscription, on which the translator reports end-to-end durable
// delivery.
func (c *Client) setupSession(mc *mqttsn.Client) error {
	if _, err := mc.RegisterTopic(c.topic); err != nil {
		return fmt.Errorf("register topic %q: %w", c.topic, err)
	}
	if c.spool == nil {
		return nil
	}
	return mc.Subscribe(wire.AckTopic(c.topic), mqttsn.QoS1, c.onAck)
}

// captureNow returns the trace timestamp to stamp into the next frame, or
// 0 when tracing is disabled.
func (c *Client) captureNow() int64 {
	if c.cfg.DisableTrace {
		return 0
	}
	return time.Now().UnixNano()
}

// initMetrics wires the client into Config.Metrics: the capture→publish
// stage histogram plus a scrape-time collector exporting the counters
// behind StatsSnapshot labeled client=<ClientID>. No-op without a
// registry.
func (c *Client) initMetrics() {
	r := c.cfg.Metrics
	if r == nil {
		return
	}
	c.stageCapture = obs.StageLatency(r).With(obs.StageCapturePublish)
	id := c.cfg.ClientID
	r.Collect(func(e *obs.Emitter) {
		if c.closed.Load() {
			return
		}
		st := c.StatsSnapshot()
		lbl := []string{"client", id}
		e.Counter("provlight_client_records_captured_total", "Records captured by the client library.", float64(st.RecordsCaptured), lbl...)
		e.Counter("provlight_client_frames_published_total", "Frames handed to the transport (or spooled).", float64(st.FramesPublished+st.FramesSpooled), lbl...)
		e.Counter("provlight_client_publishes_total", "PUBLISHes handed to the transport (several frames each in memory mode).", float64(st.Publishes), lbl...)
		e.Counter("provlight_client_bytes_published_total", "Encoded PUBLISH payload bytes published or spooled.", float64(st.BytesPublished), lbl...)
		e.Counter("provlight_client_async_errors_total", "Asynchronous publish errors.", float64(st.AsyncErrors), lbl...)
		e.Counter("provlight_client_queue_full_total", "Frames dropped on a full transmit queue.", float64(st.QueueFull), lbl...)
		e.Counter("provlight_client_frames_shed_total", "Frames shed by the spool degradation policy.", float64(st.FramesShed), lbl...)
		e.Counter("provlight_client_reconnects_total", "Broker sessions established, the first connect included.", float64(st.SpoolReconnects), lbl...)
		e.Counter("provlight_client_redeliveries_total", "Spool rewind/redelivery passes after ack stalls.", float64(st.SpoolRedeliveries), lbl...)
		e.Counter("provlight_client_stale_acks_total", "Acks dropped for carrying a stale replication term.", float64(st.StaleAcks), lbl...)
		e.Gauge("provlight_client_ack_term", "Highest replication term an accepted ack carried (the device's fence).", float64(st.AckTerm), lbl...)
		mst := c.MQTTStats()
		e.Counter("provlight_client_retransmissions_total", "MQTT-SN packet retransmissions (current session).", float64(mst.Retransmissions), lbl...)
		if mc := c.session.Client(); mc != nil {
			inFly, capWin := mc.WindowOccupancy()
			e.Gauge("provlight_client_window_inflight", "Publish handshakes currently in flight.", float64(inFly), lbl...)
			e.Gauge("provlight_client_window_capacity", "Configured in-flight publish window.", float64(capWin), lbl...)
		}
		if c.spool != nil {
			e.Gauge("provlight_client_spool_pending", "Spooled frames awaiting end-to-end acknowledgement.", float64(st.SpoolPending), lbl...)
			e.Gauge("provlight_client_spool_used_bytes", "Spool bytes on disk.", float64(st.SpoolUsedBytes), lbl...)
			degraded := 0.0
			if st.SpoolDegraded {
				degraded = 1
			}
			e.Gauge("provlight_client_spool_degraded", "1 while the spool quota degradation policy is active.", degraded, lbl...)
			e.Counter("provlight_client_spool_wal_sync_errors_total", "Spool WAL fsync failures (disk-health alarm).", float64(st.SpoolWALSyncErrors), lbl...)
			e.Counter("provlight_client_spool_mark_persist_errors_total", "Failures persisting the spool ack floor.", float64(st.SpoolMarkPersistErrors), lbl...)
			e.Counter("provlight_client_spool_blocked_appends_total", "Captures stalled by the spool Block policy.", float64(st.SpoolBlockedAppends), lbl...)
		}
	})
}

// StatsSnapshot returns a race-safe snapshot of the capture counters: each
// counter is loaded atomically, so the snapshot can be taken while capture
// runs on other goroutines. Counters are loaded individually, so a
// snapshot taken mid-burst may observe a frame whose byte count lands in
// the next snapshot; every counter is monotonically consistent.
func (c *Client) StatsSnapshot() Stats {
	st := Stats{
		RecordsCaptured:   c.ctr.recordsCaptured.Load(),
		FramesPublished:   c.ctr.framesPublished.Load(),
		Publishes:         c.ctr.publishes.Load(),
		BytesPublished:    c.ctr.bytesPublished.Load(),
		FramesCompressed:  c.ctr.framesCompressed.Load(),
		RecordsGrouped:    c.ctr.recordsGrouped.Load(),
		AsyncErrors:       c.ctr.asyncErrors.Load(),
		QueueFull:         c.ctr.queueFull.Load(),
		FramesSpooled:     c.ctr.framesSpooled.Load(),
		SpoolRedeliveries: c.ctr.redeliveries.Load(),
		StaleAcks:         c.ctr.staleAcks.Load(),
		AckTerm:           c.ctr.ackTerm.Load(),
		FramesShed:        c.ctr.framesShed.Load(),
	}
	ss := c.session.Stats()
	st.SpoolReconnects = ss.Connects
	st.ReconnectAttempts = ss.Attempts
	st.ReconnectConsecFailures = ss.ConsecFailures
	st.NextRetryUnixNano = ss.NextRetryUnixNano
	if c.spool != nil {
		st.SpoolAcked = c.spool.Floor()
		st.SpoolPending = c.spool.Pending()
		sp := c.spool.Stats()
		st.SpoolUsedBytes = sp.UsedBytes
		st.SpoolQuotaBytes = sp.QuotaBytes
		st.SpoolDegraded = sp.Degraded
		st.SpoolDegradedEvents = sp.DegradedEvents
		st.SpoolShedQoS0 = sp.ShedQoS0
		st.SpoolShedHigher = sp.ShedHigher
		st.SpoolBlockedAppends = sp.BlockedAppends
		st.SpoolMarkPersistErrors = sp.MarkPersistErrors
		st.SpoolLastMarkPersistError = sp.LastMarkPersistError
		st.SpoolWALSyncErrors = sp.WALSyncErrors
		st.SpoolLastWALSyncError = sp.LastWALSyncError
	}
	return st
}

// MQTTStats exposes the underlying transport counters: those of the
// *current* broker session (zero while disconnected and after Close); they
// reset on reconnect.
func (c *Client) MQTTStats() mqttsn.ClientStats {
	if mc := c.session.Client(); mc != nil {
		return mc.Stats()
	}
	return mqttsn.ClientStats{}
}

// maxPackBytes caps the raw frame bytes memory mode packs into one
// PUBLISH. A frame larger than the cap still goes out, alone; one whose
// compressed form is over mqttsn.MaxPayload is lost.
const maxPackBytes = 16 << 10

// pack builds the next memory-mode PUBLISH: the first queued frame and
// every one behind it up to maxPackBytes, with no wait for more,
// compressed into one frame. It is the outbox's pack, run on the
// session's goroutine.
func (c *Client) pack(queue []*[]byte) (int, mqttsn.Message, error) {
	n, size := 0, 0
	raws := c.raws[:0]
	for _, f := range queue {
		if n > 0 && size+len(*f) > maxPackBytes {
			break
		}
		n++
		size += len(*f)
		raws = append(raws, *f)
		if c.stageCapture != nil {
			if ns, ok := wire.FrameCaptureNS(*f); ok {
				obs.ObserveSince(c.stageCapture, ns)
			}
		}
	}
	c.raws = raws
	var buf []byte
	select {
	case buf = <-c.spare:
	default:
	}
	frame, err := c.enc.CompressFrames(buf, raws...)
	clear(raws)
	if err != nil {
		return n, mqttsn.Message{}, fmt.Errorf("provlight: compress frame: %w", err)
	}
	c.ctr.publishes.Add(1)
	c.ctr.bytesPublished.Add(uint64(len(frame)))
	if wire.IsCompressed(frame) {
		c.ctr.framesCompressed.Add(1)
	}
	return n, mqttsn.Message{Topic: c.topic, Payload: frame, QoS: c.cfg.QoS}, nil
}

// released recycles the frames of a PUBLISH the outbox let go: delivered
// when err is nil, lost otherwise (a compress error, or over
// mqttsn.MaxPayload). Runs under the outbox's lock.
func (c *Client) released(frames []*[]byte, m mqttsn.Message, err error) {
	if err != nil {
		c.reportLost(len(frames), err)
	}
	for _, f := range frames {
		framePool.Put(f)
	}
	if m.Payload != nil {
		select {
		case c.spare <- m.Payload[:0]:
		default:
		}
	}
	c.inFly.Add(-len(frames))
}

// Capture implements the capture.Client interface: encodes and transmits
// one provenance record, honouring the grouping configuration.
func (c *Client) Capture(rec *provdm.Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if c.closed.Load() {
		return fmt.Errorf("provlight: client closed")
	}
	c.ctr.recordsCaptured.Add(1)
	groupable := c.cfg.GroupSize > 0 &&
		(rec.Event == provdm.EventTaskEnd || rec.Event == provdm.EventWorkflowEnd)
	if groupable {
		c.mu.Lock()
		cp := *rec
		c.group = append(c.group, &cp)
		c.ctr.recordsGrouped.Add(1)
		full := len(c.group) >= c.cfg.GroupSize
		flush := rec.Event == provdm.EventWorkflowEnd // end of workflow drains the group
		if !full && !flush {
			c.mu.Unlock()
			return nil
		}
		batch := c.group
		c.group = nil
		// Lock handoff: take txMu before releasing c.mu so no capture that
		// observes the emptied group can enqueue its frame ahead of this
		// batch.
		c.txMu.Lock()
		c.mu.Unlock()
		defer c.txMu.Unlock()
		return c.transmit(nil, batch...)
	}
	c.txMu.Lock()
	defer c.txMu.Unlock()
	return c.transmit(nil, rec)
}

// flushGroup transmits any buffered group without waiting for in-flight
// frames. ctx bounds the enqueue: when the transmit queue is full (e.g.
// the broker is unreachable) and ctx expires, the group frame is dropped
// and counted as an async error instead of blocking indefinitely. A nil
// or background ctx blocks like Capture does.
func (c *Client) flushGroup(ctx context.Context) error {
	c.mu.Lock()
	batch := c.group
	c.group = nil
	if len(batch) == 0 {
		c.mu.Unlock()
		return nil
	}
	c.txMu.Lock() // handoff, as in Capture
	c.mu.Unlock()
	err := c.transmit(ctx, batch...)
	c.txMu.Unlock()
	return err
}

// Flush transmits any buffered group and waits until every captured frame
// is delivered: in memory mode until each has completed its publish
// handshake (a failed one is re-sent on the next session; only a frame
// too large for one datagram is lost), in spool mode until each spooled
// frame is acknowledged end to end. Either waits out a broker outage or a
// partition, while the session redials; use Shutdown with a deadline to
// stop without waiting.
func (c *Client) Flush() error {
	err := c.flushGroup(context.Background())
	if werr := c.waitDelivered(context.Background()); err == nil {
		err = werr
	}
	return err
}

// waitDelivered blocks until every frame captured so far is delivered (see
// Flush), or ctx expires.
func (c *Client) waitDelivered(ctx context.Context) error {
	if c.spool != nil {
		return c.waitDrained(ctx)
	}
	return waitCtx(ctx, c.inFly.Wait)
}

// Close flushes, disconnects, and releases the client, draining in-flight
// windows without a deadline (equivalent to Shutdown with a background
// context).
func (c *Client) Close() error { return c.Shutdown(context.Background()) }

// Shutdown flushes buffered records and waits, bounded by ctx, until every
// captured frame is delivered (see Flush), then ends the broker session
// with the protocol goodbye and releases the capture log. If the context
// expires first (e.g. the broker is unreachable and retries are still
// running), the context error is returned and the undelivered frames are
// released: in memory mode each is counted as an AsyncError, in spool mode
// it stays on disk for the next run, so durable shutdown never loses
// data. Calling Shutdown (or Close) again while a previous call is still
// draining waits for that teardown under the new ctx rather than returning
// early.
func (c *Client) Shutdown(ctx context.Context) error {
	// Flush the buffered group before claiming the teardown, so the
	// closed-client check in the transmit path doesn't reject our own
	// group frame.
	err := c.flushGroup(ctx)
	if !c.closed.CompareAndSwap(false, true) {
		// Another Shutdown/Close/Abort owns the teardown; wait for it
		// under our ctx.
		if werr := waitCtx(ctx, func() { <-c.stopped }); err == nil {
			err = werr
		}
		return err
	}
	// Wait out any transmit that was already past the closed check; no
	// frame enters the log after this.
	c.txMu.Lock()
	c.txMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	werr := c.waitDelivered(ctx)
	c.session.Disconnect() // clean goodbye: the broker releases the session now
	if rerr := c.release(false); err == nil {
		err = rerr
	}
	close(c.stopped)
	if err == nil {
		err = werr
	}
	return err
}

// Abort tears the client down as a crash would: no group flush, no drain,
// no goodbye. In memory mode every frame not yet delivered is counted
// lost; in spool mode no ack-mark is persisted and the spool directory is
// left exactly as a SIGKILL would leave it, so the next NewClient with the
// same SpoolDir resumes from the persisted state. Used by crash-recovery
// tests and as an emergency stop; the graceful path is Shutdown/Close.
func (c *Client) Abort() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	c.txMu.Lock()
	c.txMu.Unlock() //nolint:staticcheck // barrier: wait out in-progress transmits
	c.session.Close()
	_ = c.release(true) // a crash releases the spool without a close error to report
	close(c.stopped)
}

// release frees the capture log once the session has stopped: memory mode
// counts every frame the outbox still holds as lost, sent or not; spool
// mode closes the spool, or crashes it.
func (c *Client) release(crash bool) error {
	switch {
	case c.spool == nil:
		frames := c.out.Take()
		for _, f := range frames {
			framePool.Put(f)
		}
		if n := len(frames); n > 0 {
			c.reportLost(n, fmt.Errorf("provlight: %d frames undelivered at close: %w", n, mqttsn.ErrClosed))
			c.inFly.Add(-n)
		}
		return nil
	case crash:
		c.spool.Crash()
		return nil
	default:
		return c.spool.Close()
	}
}

// transmit encodes records into one frame and enqueues it. Callers must
// hold c.txMu, which makes the encode+enqueue atomic with respect to other
// transmits and so preserves capture order in the outbox. With a nil or
// background ctx a full queue drops the frame at once (ErrQueueFull +
// StatsSnapshot.QueueFull): capture never blocks the instrumented
// workload. Shutdown's group flush passes its ctx instead, and waits for
// room until it expires (the frame then counts as an async error). The
// queued frame is uncompressed; pack compresses it. In spool mode the
// frame goes to disk instead.
func (c *Client) transmit(ctx context.Context, records ...*provdm.Record) error {
	if c.spool != nil {
		return c.spoolAppend(records...)
	}
	// Encode uncompressed: zlib runs in pack, so Capture pays only for the
	// raw encode.
	bufp := framePool.Get().(*[]byte)
	frame, err := rawEncoder.AppendFrameSeqCapture((*bufp)[:0], 0, c.captureNow(), records...)
	if err != nil {
		framePool.Put(bufp)
		return err
	}
	*bufp = frame
	if c.closed.Load() {
		framePool.Put(bufp)
		return fmt.Errorf("provlight: client closed")
	}
	var stop <-chan struct{}
	if ctx != nil {
		stop = ctx.Done()
	}
	c.inFly.Add(1)
	if c.out.Put(bufp, stop) {
		c.ctr.framesPublished.Add(1)
		return nil
	}
	c.inFly.Done()
	framePool.Put(bufp)
	if stop == nil {
		c.ctr.queueFull.Add(1)
		return ErrQueueFull
	}
	c.ctr.asyncErrors.Add(1)
	return ctx.Err()
}

// Attrs builds an ordered attribute list from a map (sorted by name for
// deterministic encoding).
func Attrs(m map[string]any) []provdm.Attribute {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]provdm.Attribute, 0, len(m))
	for _, k := range names {
		out = append(out, provdm.Attribute{Name: k, Value: m[k]})
	}
	return out
}

// waitCtx runs wait (typically a WaitGroup.Wait), returning early with
// the context error if ctx expires first.
func waitCtx(ctx context.Context, wait func()) error {
	if ctx == nil || ctx.Done() == nil {
		wait()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

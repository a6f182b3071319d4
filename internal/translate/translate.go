// Package translate implements the ProvLight provenance data translator
// (paper §IV-B1): a broker subscriber that decodes the binary wire frames
// published by devices and forwards the records to one or more provenance
// systems. Every target takes the same thing through one method: a
// micro-batch of identified frames (origin topic, durable sequence number,
// records) via Target.DeliverFrames. Users extend the translator by
// implementing Target for their system's data model, enabling "seamless
// integration with existing systems".
package translate

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/resilience"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wire"
)

// Target receives translated provenance records: the translator hands
// over each micro-batch of decoded frames in one call, so a target can
// amortize its own per-delivery cost (one HTTP round trip, one lock
// acquisition, ...), and with their identities, so a durable target can
// apply them exactly once (skipping already-applied (origin, seq) pairs)
// and make a spooling client's redeliveries idempotent end to end.
// Implementations exist for DfAnalyzer, a local DfAnalyzer store,
// ProvLake, and an in-memory store with PROV-JSON export.
type Target interface {
	// Name identifies the target in logs and stats.
	Name() string
	// DeliverFrames forwards a micro-batch of identified frames. An error
	// fails the whole batch: it is counted once and left unacknowledged.
	DeliverFrames(frames []Frame) error
}

// FrameTarget is the former name of Target, kept as an alias because the
// benchmark module (capbench/wrap.go) still names it.
type FrameTarget = Target

// Frame is one decoded capture frame with its provenance identity: the
// topic it arrived on and the durable sequence number a spooling client
// stamped into it (0 for non-spooling clients). The identity is what lets
// durable targets deduplicate redelivered frames and lets the translator
// acknowledge them end-to-end.
type Frame struct {
	Origin  string
	Seq     uint64
	Records []provdm.Record
	// CaptureNS is the capture timestamp a tracing client stamped into the
	// frame (wire flagTrace), 0 when untraced. The translator observes the
	// translate and durable-apply stages of the e2e latency histogram
	// against it.
	CaptureNS int64
}

// Stats counts translator activity.
type Stats struct {
	FramesReceived    uint64
	RecordsTranslated uint64
	// BatchesDelivered counts delivery rounds; FramesReceived /
	// BatchesDelivered is the achieved mean micro-batch size.
	BatchesDelivered uint64
	DecodeErrors     uint64
	// DeliveryErrors counts failed DeliverFrames calls: one per failed
	// batch per target, however many frames the batch held.
	DeliveryErrors uint64
	// AcksPublished counts end-to-end acknowledgements sent back to
	// spooling devices (one ack message may cover several frames);
	// AckErrors counts ack publishes that failed.
	AcksPublished uint64
	AckErrors     uint64
	// SessionRedials counts broker sessions the supervisor replaced after
	// they died (broker restart, overload retry exhaustion, expiry).
	SessionRedials uint64
}

// Config configures a Translator.
type Config struct {
	// Broker is the MQTT-SN gateway address.
	Broker string
	// ClusterAddrs lists every node of a clustered broker tier
	// (cluster.Cluster.Addrs). When set it supersedes Broker: Sessions is
	// raised to at least len(ClusterAddrs) and session i makes node
	// i%len(ClusterAddrs) its home, so the consumer group keeps a member
	// on every node — the cluster routes a group frame to a member LOCAL
	// to the topic's owning node, so a node without a member would
	// silently drop its share of the stream. The shared subscription is
	// forced (even with one address), and a session redials its home node
	// first, then the others (mqttsn.SessionConfig.Gateways).
	ClusterAddrs []string
	// Transport dials broker sessions over an alternate packet substrate
	// (in-process loopback, TCP stream); nil means UDP. DialConn takes
	// precedence when both are set.
	Transport transport.Transport
	// ClientID of the translator's broker session. Default "translator".
	// With Sessions > 1 each session appends its index ("-s2", "-s3", …).
	ClientID string
	// TopicFilter selects which device topics to consume. Default
	// "provlight/+/records" (all devices).
	TopicFilter string
	// Sessions is how many broker sessions the translator opens in one
	// shared-subscription consumer group ("$share/<group>/<filter>").
	// The broker partitions the device topic space across the sessions by
	// a topic-affinity hash, so each device's stream stays on one session
	// (per-workflow order preserved) while the group's aggregate outbound
	// window — the fan-in bottleneck on high-latency links — scales with
	// the session count. All sessions feed the same worker/batch/target
	// machinery. Default 1: a plain (unshared) subscription.
	Sessions int
	// Group names the consumer group. Default: ClientID. Two translator
	// processes using the same Group and TopicFilter split the stream
	// between them; distinct groups each receive the full stream. Setting
	// Group forces the shared subscription even with Sessions == 1.
	Group string
	// DialConn, when set, supplies the packet socket for each broker
	// session (called once per session). Used by benchmarks and tests to
	// interpose netem-shaped links; nil means plain UDP.
	DialConn func() (net.PacketConn, error)
	// Targets receive every decoded record batch.
	Targets []Target
	// Workers parallelizes delivery (paper §IV-B1: translators "may be
	// parallelized to scale the data capture"). Default 1.
	Workers int
	// BatchSize caps how many decoded frames a worker drains from the
	// queue into one delivery round. Default 64; 1 disables batching.
	BatchSize int
	// BatchLinger is how long a worker holding at least one frame waits
	// for more before delivering an underfull batch. Default 0: deliver
	// whatever is immediately available without waiting.
	BatchLinger time.Duration
	// KeepAlive / RetryInterval / MaxRetries tune the broker session.
	KeepAlive     time.Duration
	RetryInterval time.Duration
	MaxRetries    int
	// OnError receives asynchronous delivery errors.
	OnError func(error)
	// Term is the replication term of the primary store this translator
	// feeds, stamped into every end-to-end acknowledgement (wire ack
	// payload version 2). Spooling clients ignore acks whose term is lower
	// than the highest they have seen, which fences a zombie translator —
	// one still feeding a deposed primary after a failover — out of the
	// ack path. 0 (the default) publishes unfenced version-1 acks.
	// Update after a failover with Translator.SetTerm.
	Term uint64
	// AckGate, when set, is consulted after a batch reached every target
	// and before its end-to-end acks are published. A semi-synchronous
	// replication deployment points this at replica.Server.CommitGate so
	// acks are withheld until the batch is durable on enough followers —
	// otherwise a primary crash after ack but before replication would
	// lose frames the devices already reclaimed. If the gate errors the
	// batch stays unacked: the spooling client redelivers it and the
	// durable targets deduplicate.
	AckGate func() error
	// DisableAcks turns off end-to-end acknowledgements. By default the
	// translator, after a batch is delivered to every target without
	// error, publishes the durable frame ids back to each device's ack
	// topic (wire.AckTopic) at QoS 1 — a spooling client reclaims its
	// disk-buffered frames only on these acks. Pair spooling clients with
	// a durable target (StoreTarget, DfAnalyzerTarget): acks from a
	// purely in-memory pipeline promise durability the pipeline does not
	// have.
	DisableAcks bool
	// Hub, when set, receives every delivered batch for fan-out to live
	// subscribers (Server.Subscribe). Several translators may share one
	// hub.
	Hub *Hub
	// Metrics, when set, exports the translator's counters (and the hub's,
	// when Hub is set) at scrape time, plus the translate and
	// durable-apply stages of the e2e frame latency histogram and a
	// delivered micro-batch size histogram.
	Metrics *obs.Registry
}

// Translator subscribes to device topics and pumps records into targets.
// With Config.Sessions > 1 it holds several broker sessions in one
// consumer group, all feeding the same work queue.
type Translator struct {
	cfg Config
	// filter is the resolved subscription filter (shared-subscription
	// prefixed when consuming as a group); supervisors re-subscribe with
	// it on every redial.
	filter string
	// consumers are the supervised consumer sessions: one that dies is
	// redialed, so the translator never goes permanently deaf while every
	// device spool backs up against its quota.
	consumers []*mqttsn.Session
	// acks is a dedicated supervised session for publishing end-to-end
	// acks. Sharing a consumer session for acks deadlocks under load: the
	// worker blocks in PublishAsync waiting for a REGACK/PUBACK that only
	// that session's read loop can process, while the read loop blocks in
	// onMessage on the full work queue waiting for the worker. A session
	// that never consumes frames breaks the cycle — ack publishing can
	// stall only on the broker itself, never on the translator's own
	// backlog. nil when DisableAcks.
	acks *mqttsn.Session

	frames       atomic.Uint64
	records      atomic.Uint64
	batches      atomic.Uint64
	decodeErrs   atomic.Uint64
	deliveryErrs atomic.Uint64
	acksSent     atomic.Uint64
	ackErrs      atomic.Uint64

	// term is the replication term stamped into acks (Config.Term,
	// updated by SetTerm after a failover).
	term atomic.Uint64

	work    chan Frame
	wg      sync.WaitGroup
	inFl    sync.WaitGroup
	closed  atomic.Bool
	aborted atomic.Bool

	// Stage histograms and the batch-size histogram (nil without
	// Config.Metrics; obs instruments are nil-safe).
	stageTranslate *obs.Histogram
	stageApply     *obs.Histogram
	batchSizes     *obs.Histogram
}

// New connects the translator to the broker and starts consuming. ctx
// bounds the connect/subscribe handshakes (a nil or background context
// means no deadline); it does not govern the translator's lifetime — use
// Shutdown/Close for that.
func New(ctx context.Context, cfg Config) (*Translator, error) {
	if cfg.ClientID == "" {
		cfg.ClientID = "translator"
	}
	if cfg.TopicFilter == "" {
		cfg.TopicFilter = "provlight/+/records"
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if len(cfg.ClusterAddrs) > 0 {
		if cfg.Sessions < len(cfg.ClusterAddrs) {
			cfg.Sessions = len(cfg.ClusterAddrs)
		}
		if cfg.Broker == "" {
			cfg.Broker = cfg.ClusterAddrs[0]
		}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("translate: at least one target required")
	}
	// A multi-session translator (or an explicit Group) consumes through
	// a shared-subscription consumer group so the broker partitions the
	// stream across the sessions instead of duplicating it to each.
	filter := cfg.TopicFilter
	if cfg.Sessions > 1 || cfg.Group != "" || len(cfg.ClusterAddrs) > 0 {
		group := cfg.Group
		if group == "" {
			group = cfg.ClientID
		}
		filter = mqttsn.SharePrefix + group + "/" + cfg.TopicFilter
	}
	t := &Translator{
		cfg:    cfg,
		filter: filter,
		work:   make(chan Frame, 256),
	}
	t.term.Store(cfg.Term)
	subscribe := func(mc *mqttsn.Client) error {
		if err := mc.Subscribe(t.filter, mqttsn.QoS2, t.onMessage); err != nil {
			return fmt.Errorf("subscribe %q: %w", t.filter, err)
		}
		return nil
	}
	for i := 0; i < cfg.Sessions; i++ {
		id := cfg.ClientID
		if i > 0 {
			id = fmt.Sprintf("%s-s%d", cfg.ClientID, i+1)
		}
		t.consumers = append(t.consumers, t.newSession(id, i, subscribe))
	}
	if !cfg.DisableAcks {
		t.acks = t.newSession(cfg.ClientID+"-acks", 0, nil)
	}
	if r := cfg.Metrics; r != nil {
		t.stageTranslate = obs.StageLatency(r).With(obs.StageTranslate)
		t.stageApply = obs.StageLatency(r).With(obs.StageDurableApply)
		t.batchSizes = r.Histogram("provlight_translate_batch_frames", "Frames per delivered micro-batch.", obs.BatchBuckets)
		var hub *Hub
		if cfg.Hub != nil && cfg.Hub.claimMetrics() {
			hub = cfg.Hub
		}
		r.Collect(func(e *obs.Emitter) {
			st := t.Stats()
			e.Counter("provlight_translate_frames_received_total", "Frames consumed from the broker.", float64(st.FramesReceived))
			e.Counter("provlight_translate_records_total", "Records translated into targets.", float64(st.RecordsTranslated))
			e.Counter("provlight_translate_batches_total", "Delivery rounds.", float64(st.BatchesDelivered))
			e.Counter("provlight_translate_decode_errors_total", "Frames that failed wire decoding.", float64(st.DecodeErrors))
			e.Counter("provlight_translate_delivery_errors_total", "Target delivery failures.", float64(st.DeliveryErrors))
			e.Counter("provlight_translate_acks_published_total", "End-to-end acknowledgements published to devices.", float64(st.AcksPublished))
			e.Counter("provlight_translate_ack_errors_total", "Failed or skipped ack publishes.", float64(st.AckErrors))
			e.Counter("provlight_translate_session_redials_total", "Broker sessions replaced after dying.", float64(st.SessionRedials))
			e.Gauge("provlight_translate_term", "Replication term stamped into acks.", float64(t.Term()))
			if hub != nil {
				hs := hub.Stats()
				e.Gauge("provlight_translate_hub_subscribers", "Active live subscriptions.", float64(hs.Subscribers))
				e.Counter("provlight_translate_hub_delivered_total", "Records handed to subscriber channels.", float64(hs.Delivered))
				e.Counter("provlight_translate_hub_dropped_total", "Records dropped on full subscriber buffers.", float64(hs.Dropped))
			}
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	// The ack session opens first: a consumer must never hand a frame to
	// a worker before acks can be published.
	if t.acks != nil {
		if err := t.acks.Open(ctx); err != nil {
			t.Close()
			return nil, fmt.Errorf("translate: ack session: %w", err)
		}
	}
	for i, s := range t.consumers {
		if err := s.Open(ctx); err != nil {
			t.Close()
			return nil, fmt.Errorf("translate: session %d: %w", i+1, err)
		}
	}
	return t, nil
}

// newSession configures one supervised broker session; in cluster mode
// node home%len(ClusterAddrs) is its home.
func (t *Translator) newSession(clientID string, home int, setup func(*mqttsn.Client) error) *mqttsn.Session {
	return mqttsn.NewSession(mqttsn.SessionConfig{
		Client: mqttsn.ClientConfig{
			ClientID:      clientID,
			Gateway:       t.cfg.Broker,
			Transport:     t.cfg.Transport,
			KeepAlive:     t.cfg.KeepAlive,
			RetryInterval: t.cfg.RetryInterval,
			MaxRetries:    t.cfg.MaxRetries,
			CleanSession:  true,
		},
		Gateways: t.cfg.ClusterAddrs,
		Home:     home,
		DialConn: t.cfg.DialConn,
		Setup:    setup,
		// Capped low so the pipeline returns within seconds of the broker.
		Backoff: resilience.Backoff{Min: 250 * time.Millisecond, Max: 8 * time.Second},
		OnDialError: func(_ int, err error) error {
			if t.cfg.OnError != nil {
				t.cfg.OnError(fmt.Errorf("translate: redial %s: %w", clientID, err))
			}
			return err
		},
	})
}

// Sessions reports how many broker sessions the translator holds.
func (t *Translator) Sessions() int { return len(t.consumers) }

// SetTerm updates the replication term stamped into end-to-end acks —
// called after a failover, when the translator is repointed at a promoted
// store. Terms are monotonic: a lower term than the current one is
// ignored (a stale failover script must never un-fence the ack path).
func (t *Translator) SetTerm(term uint64) {
	for {
		cur := t.term.Load()
		if term <= cur {
			return
		}
		if t.term.CompareAndSwap(cur, term) {
			return
		}
	}
}

// Term returns the replication term currently stamped into acks.
func (t *Translator) Term() uint64 { return t.term.Load() }

// Stats returns a snapshot of translator counters.
func (t *Translator) Stats() Stats {
	var redials uint64
	for _, s := range t.sessions() {
		redials += s.Stats().Redials()
	}
	return Stats{
		FramesReceived:    t.frames.Load(),
		RecordsTranslated: t.records.Load(),
		BatchesDelivered:  t.batches.Load(),
		DecodeErrors:      t.decodeErrs.Load(),
		DeliveryErrors:    t.deliveryErrs.Load(),
		AcksPublished:     t.acksSent.Load(),
		AckErrors:         t.ackErrs.Load(),
		SessionRedials:    redials,
	}
}

// sessions lists every supervised session, the ack session included.
func (t *Translator) sessions() []*mqttsn.Session {
	if t.acks == nil {
		return t.consumers
	}
	return append([]*mqttsn.Session{t.acks}, t.consumers...)
}

func (t *Translator) onMessage(topic string, payload []byte) {
	t.frames.Add(1)
	records, err := wire.DecodeFrame(payload)
	if err != nil {
		t.decodeErrs.Add(1)
		if t.cfg.OnError != nil {
			t.cfg.OnError(fmt.Errorf("translate: decode frame from %s: %w", topic, err))
		}
		return
	}
	seq, _ := wire.FrameSeq(payload)
	captureNS, _ := wire.FrameCaptureNS(payload)
	obs.ObserveSince(t.stageTranslate, captureNS)
	t.inFl.Add(1)
	t.work <- Frame{Origin: topic, Seq: seq, Records: records, CaptureNS: captureNS}
}

// worker drains the frame queue into micro-batches and delivers each to
// every target.
func (t *Translator) worker() {
	defer t.wg.Done()
	batch := make([]Frame, 0, t.cfg.BatchSize)
	for frame := range t.work {
		batch = t.fillBatch(append(batch[:0], frame))
		t.deliver(batch)
	}
}

// fillBatch tops the batch up to BatchSize with frames already queued; if
// BatchLinger is set it also waits up to that long for stragglers so
// slow-trickling devices still form batches.
func (t *Translator) fillBatch(batch []Frame) []Frame {
	var linger <-chan time.Time
	for len(batch) < cap(batch) {
		select {
		case frame, ok := <-t.work:
			if !ok {
				return batch
			}
			batch = append(batch, frame)
		default:
			if t.cfg.BatchLinger <= 0 {
				return batch
			}
			if linger == nil {
				timer := time.NewTimer(t.cfg.BatchLinger)
				defer timer.Stop()
				linger = timer.C
			}
			select {
			case frame, ok := <-t.work:
				if !ok {
					return batch
				}
				batch = append(batch, frame)
			case <-linger:
				return batch
			}
		}
	}
	return batch
}

func (t *Translator) deliver(batch []Frame) {
	if t.aborted.Load() {
		// Crash simulation (Abort): drop without delivering, as a killed
		// process would have. Undelivered frames are unacked and so will
		// be redelivered by the spooling client.
		t.inFl.Add(-len(batch))
		return
	}
	var n uint64
	for i := range batch {
		n += uint64(len(batch[i].Records))
	}
	delivered := true
	for _, target := range t.cfg.Targets {
		if err := target.DeliverFrames(batch); err != nil {
			t.reportDeliveryError(target, err)
			delivered = false
		}
	}
	if t.cfg.Hub != nil {
		// Live fan-out after target delivery: a subscription observes the
		// same stream the targets ingested, and Drain implies the hub saw
		// every drained frame.
		t.cfg.Hub.Publish(batch)
	}
	if delivered && !t.cfg.DisableAcks {
		// Acks only when *every* target took the whole batch: a failed
		// target leaves the batch unacked so the spooling client
		// redelivers it, and the durable targets that did apply it will
		// deduplicate the redelivery.
		if t.cfg.AckGate != nil {
			if err := t.cfg.AckGate(); err != nil {
				t.ackErrs.Add(1)
				if t.cfg.OnError != nil {
					t.cfg.OnError(fmt.Errorf("translate: ack gate: %w", err))
				}
				delivered = false
			}
		}
		if delivered {
			t.publishAcks(batch)
		}
	}
	if delivered && t.stageApply != nil {
		// Every target took the batch: each traced frame's durable-apply
		// observation is the full capture→durable e2e latency.
		for i := range batch {
			obs.ObserveSince(t.stageApply, batch[i].CaptureNS)
		}
	}
	t.batchSizes.Observe(float64(len(batch)))
	t.records.Add(n)
	t.batches.Add(1)
	t.inFl.Add(-len(batch))
}

// publishAcks sends the delivered frames' durable ids back to their
// devices: one QoS 1 message per origin topic, on its wire.AckTopic.
func (t *Translator) publishAcks(batch []Frame) {
	var acks map[string][]uint64
	for i := range batch {
		if batch[i].Seq == 0 {
			continue
		}
		if acks == nil {
			acks = map[string][]uint64{}
		}
		acks[batch[i].Origin] = append(acks[batch[i].Origin], batch[i].Seq)
	}
	if len(acks) == 0 {
		return
	}
	var mc *mqttsn.Client
	if t.acks != nil {
		mc = t.acks.Client()
	}
	if mc == nil {
		// Ack session mid-redial: skip the batch's acks rather than borrow
		// a consumer session (that reintroduces the deadlock). The unacked
		// frames are redelivered by the devices, deduplicated by durable
		// targets, and acked on redelivery once the session is back.
		t.ackErrs.Add(uint64(len(acks)))
		return
	}
	term := t.term.Load()
	for origin, seqs := range acks {
		payload := wire.AppendAckPayload(nil, term, seqs)
		errc := mc.PublishAsync(wire.AckTopic(origin), payload, mqttsn.QoS1)
		go func() {
			if err := <-errc; err != nil {
				t.ackErrs.Add(1)
				if t.cfg.OnError != nil {
					t.cfg.OnError(fmt.Errorf("translate: publish acks: %w", err))
				}
				return
			}
			t.acksSent.Add(1)
		}()
	}
}

func (t *Translator) reportDeliveryError(target Target, err error) {
	t.deliveryErrs.Add(1)
	if t.cfg.OnError != nil {
		t.cfg.OnError(fmt.Errorf("translate: deliver to %s: %w", target.Name(), err))
	}
}

// Drain waits until all frames received so far have been delivered.
func (t *Translator) Drain() { t.inFl.Wait() }

// Shutdown stops consumption and drains gracefully: inbound is cut first,
// then every already-received frame is delivered and the workers exit. If
// ctx expires before the drain completes (e.g. a target hangs), Shutdown
// returns the context error; the work queue is already closed by then, so
// the workers deliver their remaining frames and exit whenever the target
// unblocks — nothing leaks past that point.
func (t *Translator) Shutdown(ctx context.Context) error {
	if !t.closed.CompareAndSwap(false, true) {
		// Another Shutdown/Close owns the teardown: wait for its workers
		// to drain under this call's ctx instead of returning early (so a
		// deadline-free Close after a timed-out Shutdown really drains).
		return waitCtx(ctx, t.wg.Wait)
	}
	// Disconnect cleanly so the broker releases the sessions at once (a
	// consumer group's survivors take their partitions over immediately).
	// It stops the supervisor and returns only after the read loop — the
	// onMessage caller — has exited, so no enqueue races the close below.
	for _, s := range t.consumers {
		s.Disconnect()
	}
	close(t.work) // workers drain the queue, then exit
	err := waitCtx(ctx, t.wg.Wait)
	// The ack session goes last: the workers publish acks for every frame
	// they drain after inbound is cut, and those acks are what lets the
	// devices reclaim their spools.
	if t.acks != nil {
		t.acks.Disconnect()
	}
	return err
}

// Close stops consumption and releases resources, draining without a
// deadline.
func (t *Translator) Close() { _ = t.Shutdown(context.Background()) }

// Abort tears the translator down as a crash would: sessions are closed
// without the protocol goodbye, and frames already received but not yet
// delivered are dropped undelivered (and therefore unacknowledged, so a
// spooling client will redeliver them). Used by crash-recovery tests; a
// graceful stop is Shutdown.
func (t *Translator) Abort() {
	t.aborted.Store(true)
	if !t.closed.CompareAndSwap(false, true) {
		t.wg.Wait()
		return
	}
	// Close (not Disconnect): the broker sees the sessions vanish exactly
	// as it would on a SIGKILL, and in-flight acks die too. Close returns
	// only after the read loop — the onMessage caller — has exited, so the
	// channel close cannot race an enqueue.
	for _, s := range t.sessions() {
		s.Close()
	}
	close(t.work)
	t.wg.Wait()
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

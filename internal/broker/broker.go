// Package broker implements an MQTT-SN gateway/broker: the Go
// equivalent of the Eclipse RSMB (Really Small Message Broker) that
// ProvLight's server side builds on (paper §IV-C1). It serves plain UDP
// by default, or any transport.Transport (the in-process loopback) — one
// datagram-shaped packet per MQTT-SN message either way.
//
// Features: client sessions with keepalive expiry, topic registration with
// gateway-scoped 16-bit ids, exact and wildcard ('+', '#') subscriptions,
// shared-subscription consumer groups ("$share/<group>/<filter>"),
// and QoS 0/1/2 inbound and outbound flows with exactly-once semantics at
// QoS 2. A janitor goroutine retransmits unacknowledged outbound messages
// and expires dead sessions. It speaks only the MQTT-SN the pipeline
// uses: a CONNECT asking for a last will is refused, and the retain flag
// is ignored (a retained publish is routed live and never stored).
//
// One broker process is a complete gateway on its own, and it is also
// the building block of internal/cluster's multi-node tier: the Forward
// hook intercepts accepted publishes so the cluster can ship them to a
// topic's owning node, Submit/Inject re-enter frames that arrived over
// inter-node links, the OnSubscribe/OnUnsubscribe hooks let individual
// subscriptions propagate across nodes, and PendingForTopics /
// DetachMatching expose the drain introspection live partition
// migration needs. None of those hooks are set in single-node use, and
// the broker then behaves exactly as it did before clustering existed.
//
// Fast path: session state is striped across N mutex-guarded shards keyed
// by client address, and each shard has its own handler goroutine fed from
// pooled datagram buffers, so one hot session or slow subscriber contends
// only with the clients that hash to its shard instead of serializing the
// whole gateway. The topic registry is a copy-on-write atomic snapshot
// (reads are lock-free; registrations clone the maps), routed message
// structs are pooled, and counters are atomics. Each session sends through
// one FIFO (sendQ) and one in-flight table (flows, an mqttsn.Flows, the
// flow engine the client drives too) kept in enqueue order, with one
// retransmit loop (sweep) for every flow kind. Lock order:
// clientMu before any shard mutex; a shard mutex may be held when taking
// groupMu, never the reverse; the topic-write lock is a leaf;
// no two shard mutexes are ever held at once.
package broker

import (
	"fmt"
	"hash/maphash"
	"log"
	"net"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wire"
)

// BridgeSessionPrefix marks inter-node bridge sessions (the mqttsn
// clients internal/cluster uses as forwarding links). Frames re-entering
// a node via Inject skip sessions whose client id carries this prefix,
// so a publication can never echo between nodes.
const BridgeSessionPrefix = "!bridge/"

// handlerQueue bounds each shard's pending-packet queue.
const handlerQueue = 256

// ForwardFrame is one accepted inbound publish offered to the Forward hook.
// The payload is owned by the receiver (publish payloads are copied at
// decode and never pooled), so the hook may retain it.
type ForwardFrame struct {
	Topic   string
	Payload []byte
	QoS     mqttsn.QoS
	// Bridge marks frames published by an inter-node bridge session
	// (clientID prefixed BridgeSessionPrefix): the frame already crossed a
	// forwarding link from a peer. The cluster uses it to record
	// forward-hop latency exactly once, at the hop's receiving end.
	Bridge bool
}

// Config configures a broker.
type Config struct {
	// Addr is the listen address in the transport's format (e.g.
	// "127.0.0.1:1883" for UDP).
	Addr string
	// Transport opens the listening socket; nil means transport.UDP{}.
	// Wrap it (netem.WrapTransport, chaos.Fault.Transport) to shape or
	// fault the link.
	Transport transport.Transport
	// RetryInterval is the outbound acknowledgement timeout. Default 1s.
	RetryInterval time.Duration
	// MaxRetries bounds outbound retransmissions. Default 5.
	MaxRetries int
	// SendWindow bounds how many QoS 1/2 messages may be in flight to one
	// subscriber at a time, REGISTERs in flight counted in (a REGISTER
	// itself never waits for a slot); the rest queue in arrival order and
	// are sent as earlier ones complete. Without it a fan-in burst (many devices,
	// one translator) floods the subscriber's UDP socket buffer, and
	// datagrams dropped there must all be recovered by timed
	// retransmissions — or are lost for good once MaxRetries is spent.
	// Default 32.
	SendWindow int
	// Shards is the number of session-table stripes, each with its own
	// mutex and handler goroutine. Default 16.
	Shards int
	// MaxSessions caps concurrently live sessions (0 = unlimited). A
	// CONNECT from a *new* client id over the cap is rejected with a
	// congestion CONNACK; a reconnect of an existing session always
	// replaces it and is never count-rejected.
	MaxSessions int
	// ConnectRate caps accepted CONNECTs per second (0 = unlimited) via
	// a token bucket of ConnectBurst capacity. This is the thundering-
	// herd valve: when a partition heals and every device reconnects at
	// once, the excess get a congestion CONNACK and retry with jitter
	// instead of all melting the broker in the same instant.
	ConnectRate float64
	// ConnectBurst is the token-bucket depth for ConnectRate. Default
	// max(2×ConnectRate, 1).
	ConnectBurst int
	// Forward, when set, is consulted once for every accepted inbound
	// publish, in the order local routing would see it (a QoS 2 frame at
	// its first PUBLISH, before the PUBREC). Returning true takes ownership
	// of the frame — it is not routed locally and counts as Forwarded.
	// internal/cluster uses this to ship frames to a topic's owning node.
	// The hook may block briefly (backpressure propagates to the
	// publisher's shard worker) but must not call back into this broker.
	Forward func(ForwardFrame) bool
	// OnSubscribe/OnUnsubscribe, when set, observe individual (non-shared)
	// subscription changes from non-bridge sessions: OnSubscribe fires
	// when a session adds a filter it did not have, OnUnsubscribe when a
	// filter is dropped by an explicit UNSUBSCRIBE or by session teardown
	// (disconnect, expiry, reconnect replacement). The cluster propagates
	// these filters to peer nodes so frames released anywhere reach
	// subscribers everywhere. Hooks must not block and must not call back
	// into this broker.
	OnSubscribe   func(filter string)
	OnUnsubscribe func(filter string)
	// ConnectGate, when set, is consulted for every CONNECT that passed
	// admission control, before a session is created. Returning anything
	// other than Accepted refuses the session with that CONNACK code and
	// leaves existing sessions untouched. The cluster uses this to fence
	// membership: a bridge session from a node that is no longer a member
	// is refused with RejectedInvalidID, so a zombie's forwards can never
	// fork a partition's stream. Must not block or call back into this
	// broker.
	ConnectGate func(clientID string) mqttsn.ReturnCode
	// Metrics, when set, feeds the broker-route stage of the e2e frame
	// latency histogram (frames whose payload carries a capture
	// timestamp). Counter export is the owner's job — the daemon or
	// cluster registers one Collect over Stats(), so a node that leaves a
	// cluster cannot strand a stale collector in a shared registry.
	Metrics *obs.Registry
	// Logf, when set, receives debug logs.
	Logf func(format string, args ...any)
}

// Stats counts broker activity.
type Stats struct {
	Sessions          int
	Groups            int // live consumer groups ($share subscriptions)
	PublishesReceived uint64
	MessagesRouted    uint64
	DuplicatesDropped uint64
	Retransmissions   uint64
	SessionsExpired   uint64
	// DeliveryGiveUps counts QoS 1/2 frames dropped for good: abandoned
	// after MaxRetries (or at session teardown) with no consumer group to
	// hand them back to.
	DeliveryGiveUps uint64
	// GroupRerouted counts frames re-delivered to a surviving
	// consumer-group member after their assigned member died or stopped
	// acknowledging.
	GroupRerouted uint64
	// BacklogDropped counts queued or in-flight frames discarded because
	// their (non-group) subscriber session ended before delivery
	// completed.
	BacklogDropped uint64
	// CongestionRejected counts CONNECTs refused by admission control
	// (session cap or connection-rate limit) with a congestion CONNACK.
	CongestionRejected uint64
	// Forwarded counts accepted publishes the Forward hook took ownership
	// of instead of local routing — in a cluster, frames this node shipped
	// to their topic's owning node (or buffered during a migration pause).
	Forwarded uint64
	// Injected counts frames re-entered through Inject: publications that
	// arrived over an inter-node bridge link and were delivered to this
	// node's local individual subscribers.
	Injected uint64
	// Migrated counts frames extracted by DetachMatching during a
	// partition handoff: queued or in-flight state the old owner detached
	// from its local subscribers so the new owner could take over
	// delivery.
	Migrated uint64
}

// CollectStats registers a scrape-time collector on r exporting s() under
// the provlight_broker_* metric families, labeled node=<node> when node is
// non-empty (cluster members) and unlabeled for a standalone broker. The
// caller owns the collector's lifetime coupling: pass a stats func whose
// broker outlives the registry's scrapes, or one that returns zero values
// after close (Broker.Stats does — counters remain readable).
func CollectStats(r *obs.Registry, node string, s func() Stats) {
	if r == nil {
		return
	}
	r.Collect(func(e *obs.Emitter) {
		var lbl []string
		if node != "" {
			lbl = []string{"node", node}
		}
		EmitStats(e, s(), lbl...)
	})
}

// EmitStats writes one broker stats snapshot into a scrape, under the
// given extra labels. Factored out of CollectStats so a cluster with a
// dynamic node set can emit every member from a single collector.
func EmitStats(e *obs.Emitter, st Stats, lbl ...string) {
	e.Gauge("provlight_broker_sessions", "Live MQTT-SN sessions.", float64(st.Sessions), lbl...)
	e.Gauge("provlight_broker_groups", "Live consumer groups ($share subscriptions).", float64(st.Groups), lbl...)
	e.Counter("provlight_broker_publishes_received_total", "PUBLISH packets received.", float64(st.PublishesReceived), lbl...)
	e.Counter("provlight_broker_messages_routed_total", "Frames routed to local subscribers.", float64(st.MessagesRouted), lbl...)
	e.Counter("provlight_broker_duplicates_dropped_total", "QoS 2 duplicate publishes dropped.", float64(st.DuplicatesDropped), lbl...)
	e.Counter("provlight_broker_retransmissions_total", "Outbound retransmissions.", float64(st.Retransmissions), lbl...)
	e.Counter("provlight_broker_delivery_giveups_total", "QoS 1/2 frames abandoned after MaxRetries with no group to reclaim them.", float64(st.DeliveryGiveUps), lbl...)
	e.Counter("provlight_broker_group_rerouted_total", "Frames re-delivered to a surviving consumer-group member.", float64(st.GroupRerouted), lbl...)
	e.Counter("provlight_broker_backlog_dropped_total", "Frames discarded because their subscriber session ended.", float64(st.BacklogDropped), lbl...)
	e.Counter("provlight_broker_congestion_rejected_total", "CONNECTs refused by admission control.", float64(st.CongestionRejected), lbl...)
	e.Counter("provlight_broker_forwarded_total", "Accepted publishes the cluster Forward hook took.", float64(st.Forwarded), lbl...)
	e.Counter("provlight_broker_injected_total", "Frames delivered locally after arriving over a bridge link.", float64(st.Injected), lbl...)
	e.Counter("provlight_broker_migrated_total", "Frames detached during partition handoffs.", float64(st.Migrated), lbl...)
}

type message struct {
	topic   string
	topicID uint16
	payload []byte
	qos     mqttsn.QoS
	// injected marks frames re-entered via Inject (arrived over an
	// inter-node bridge): routed to local individual non-bridge
	// subscribers only — no groups, no bridge echo.
	injected bool
	// bridge marks frames whose *publisher* is a bridge session; carried
	// into ForwardFrame so the cluster can spot a completed forward hop.
	bridge bool
	// group is set on copies routed on behalf of a consumer group; a
	// frame the member never acknowledges is handed back to the group
	// instead of dropped.
	group *consumerGroup
}

// outFlow is what a flow in a session's table holds: the frame of a QoS
// 1 or QoS 2 PUBLISH, or, for a REGISTER, the topic id (msg nil).
type outFlow struct {
	msg     *message
	topicID uint16
}

type session struct {
	clientID  string
	addr      net.Addr
	addrKey   string
	keepalive time.Duration
	lastSeen  time.Time

	subs map[string]mqttsn.QoS // filter -> granted qos
	// groupSubs tracks consumer-group memberships by their full
	// "$share/<group>/<filter>" subscribe string, for unsubscribe and
	// teardown.
	groupSubs map[string]*consumerGroup

	// inbound holds the inbound QoS 2 flows, routed at their first
	// PUBLISH, until the publisher's PUBREL, and the msgIDs released
	// last, so a retransmitted PUBLISH is routed once.
	inbound mqttsn.Inbound2[struct{}]

	// sendQ holds every frame routed to the session and not yet sent, in
	// route order: QoS 1/2 frames waiting for a window slot, and frames of
	// any QoS whose topic the subscriber does not know yet. pumpLocked
	// moves its head into flows.
	sendQ []*message
	// flows is the in-flight table, in enqueue order: up to SendWindow
	// PUBLISHes plus the REGISTERs of the topics sendQ waits for.
	flows       mqttsn.Flows[outFlow]
	knownTopics map[uint16]bool

	// txMu orders the session's PUBLISH sends; see unlockAndSend.
	txMu sync.Mutex
}

// registering reports whether a REGISTER of topicID is in flight.
// Callers must hold the session's shard mutex.
func (s *session) registering(topicID uint16) bool {
	for _, f := range s.flows.Slots() {
		if f.Await == mqttsn.REGACK && f.Payload.topicID == topicID {
			return true
		}
	}
	return false
}

// detachLocked removes the frames take selects from the in-flight table
// and then from sendQ, and appends them to out in send order. REGISTER
// flows stay. Callers must hold the session's shard mutex.
func (s *session) detachLocked(take func(*message) bool, out []*message) []*message {
	s.flows.DeleteFunc(func(f mqttsn.Flow[outFlow]) bool {
		if m := f.Payload.msg; m != nil && take(m) {
			out = append(out, m)
			return true
		}
		return false
	})
	queued := s.sendQ[:0]
	for _, m := range s.sendQ {
		if take(m) {
			out = append(out, m)
		} else {
			queued = append(queued, m)
		}
	}
	clear(s.sendQ[len(queued):])
	s.sendQ = queued
	return out
}

// settleRegisterLocked ends a REGISTER of topicID that was given up or
// rejected: while the topic is still unknown, its queued frames are
// appended to out, to be settled with settleUndeliverable after
// unlocking. Callers must hold the session's shard mutex.
func (s *session) settleRegisterLocked(topicID uint16, out []*message) []*message {
	if s.knownTopics[topicID] {
		return out
	}
	return s.detachLocked(func(m *message) bool { return m.topicID == topicID }, out)
}

// shard is one stripe of the session table plus its inbound packet queue.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
	inbox    chan inPacket
}

// inPacket is one raw datagram handed from the read loop to a shard
// worker with its source's session key; buf comes from (and returns to)
// the broker's buffer pool.
type inPacket struct {
	from peer
	buf  *[]byte
	n    int
}

// counters are the lock-free internals behind Stats.
type counters struct {
	publishesReceived  atomic.Uint64
	messagesRouted     atomic.Uint64
	duplicatesDropped  atomic.Uint64
	retransmissions    atomic.Uint64
	sessionsExpired    atomic.Uint64
	deliveryGiveUps    atomic.Uint64
	groupRerouted      atomic.Uint64
	backlogDropped     atomic.Uint64
	congestionRejected atomic.Uint64
	forwarded          atomic.Uint64
	injected           atomic.Uint64
	migrated           atomic.Uint64
}

// connLimiter is the CONNECT-admission token bucket. It is consulted once
// per CONNECT (not on the publish hot path), so a mutex is fine.
type connLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newConnLimiter(rate float64, burst int) *connLimiter {
	if burst <= 0 {
		burst = int(2 * rate)
		if burst < 1 {
			burst = 1
		}
	}
	return &connLimiter{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

func (cl *connLimiter) allow() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	now := time.Now()
	cl.tokens += now.Sub(cl.last).Seconds() * cl.rate
	cl.last = now
	if cl.tokens > cl.burst {
		cl.tokens = cl.burst
	}
	if cl.tokens < 1 {
		return false
	}
	cl.tokens--
	return true
}

// topicTables is one immutable snapshot of the gateway-scoped topic
// registry. Lookups on the publish hot path load the current snapshot
// atomically; registrations (rare) clone-and-swap under topicWmu.
type topicTables struct {
	ids   map[string]uint16
	names map[uint16]string
}

// Broker is an MQTT-SN broker. Create with New, stop with Close.
type Broker struct {
	cfg  Config
	conn net.PacketConn

	shards []*shard
	seed   maphash.Seed

	// clientMu guards the clientID -> session index used to replace
	// sessions on reconnect. Acquired before shard mutexes, never after.
	clientMu   sync.Mutex
	byClientID map[string]*session

	// topics is the atomic registry snapshot; topicWmu serializes the
	// (rare) clone-and-swap registrations.
	topics      atomic.Pointer[topicTables]
	topicWmu    sync.Mutex
	nextTopicID uint16 // guarded by topicWmu

	// groupMu guards the consumer-group registry. May be taken while
	// holding a shard mutex, never the reverse.
	groupMu sync.RWMutex
	groups  map[string]*consumerGroup

	ctr counters

	// stageRoute is the broker-route stage of the e2e latency histogram
	// (nil without Config.Metrics).
	stageRoute *obs.Histogram

	// connLimit rate-limits CONNECT admission (nil = unlimited).
	connLimit *connLimiter

	// bufPool recycles inbound datagram buffers; outPool recycles
	// outbound marshal buffers on the route path; msgPool recycles the
	// per-message routing structs.
	bufPool sync.Pool
	outPool sync.Pool
	msgPool sync.Pool

	done chan struct{}
	wg   sync.WaitGroup
}

// New creates a broker and starts serving on its socket.
func New(cfg Config) (*Broker, error) {
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.SendWindow <= 0 {
		cfg.SendWindow = 32
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.UDP{}
	}
	conn, err := tr.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("broker: listen %q: %w", cfg.Addr, err)
	}
	// The broker is the fan-in point of the whole continuum: a burst from
	// N windowed publishers can exceed the kernel's default receive
	// buffer (a few hundred datagrams) and every dropped datagram costs a
	// RetryInterval stall somewhere. Grow the buffer when the socket
	// supports it; best-effort (errors just keep the kernel default).
	if rb, ok := conn.(interface{ SetReadBuffer(int) error }); ok {
		_ = rb.SetReadBuffer(4 << 20)
	}
	b := &Broker{
		cfg:        cfg,
		conn:       conn,
		seed:       maphash.MakeSeed(),
		byClientID: map[string]*session{},
		groups:     map[string]*consumerGroup{},
		bufPool: sync.Pool{
			New: func() any { buf := make([]byte, 65536); return &buf },
		},
		outPool: sync.Pool{
			New: func() any { buf := make([]byte, 0, 2048); return &buf },
		},
		msgPool: sync.Pool{New: func() any { return new(message) }},
		done:    make(chan struct{}),
	}
	if cfg.ConnectRate > 0 {
		b.connLimit = newConnLimiter(cfg.ConnectRate, cfg.ConnectBurst)
	}
	if cfg.Metrics != nil {
		b.stageRoute = obs.StageLatency(cfg.Metrics).With(obs.StageBrokerRoute)
	}
	b.topics.Store(&topicTables{ids: map[string]uint16{}, names: map[uint16]string{}})
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			sessions: map[string]*session{},
			inbox:    make(chan inPacket, handlerQueue),
		}
		b.shards = append(b.shards, sh)
		b.wg.Add(1)
		go b.shardWorker(sh)
	}
	b.wg.Add(2)
	go b.readLoop()
	go b.janitor()
	return b, nil
}

// shardFor maps a client address key to its session stripe. All packets
// from one client land on one shard (and thus one worker), preserving
// per-session handling order.
func (b *Broker) shardFor(addrKey string) *shard {
	return b.shards[int(maphash.String(b.seed, addrKey)%uint64(len(b.shards)))]
}

// Addr returns the address the broker serves on, in its transport's
// format (a UDP host:port, or a loopback endpoint name).
func (b *Broker) Addr() string { return b.conn.LocalAddr().String() }

// Stats returns a snapshot of broker counters.
func (b *Broker) Stats() Stats {
	st := Stats{
		PublishesReceived:  b.ctr.publishesReceived.Load(),
		MessagesRouted:     b.ctr.messagesRouted.Load(),
		DuplicatesDropped:  b.ctr.duplicatesDropped.Load(),
		Retransmissions:    b.ctr.retransmissions.Load(),
		SessionsExpired:    b.ctr.sessionsExpired.Load(),
		DeliveryGiveUps:    b.ctr.deliveryGiveUps.Load(),
		GroupRerouted:      b.ctr.groupRerouted.Load(),
		BacklogDropped:     b.ctr.backlogDropped.Load(),
		CongestionRejected: b.ctr.congestionRejected.Load(),
		Forwarded:          b.ctr.forwarded.Load(),
		Injected:           b.ctr.injected.Load(),
		Migrated:           b.ctr.migrated.Load(),
	}
	for _, sh := range b.shards {
		sh.mu.Lock()
		st.Sessions += len(sh.sessions)
		sh.mu.Unlock()
	}
	b.groupMu.RLock()
	st.Groups = len(b.groups)
	b.groupMu.RUnlock()
	return st
}

// getMsg / putMsg recycle routed message structs. A message has exactly
// one owner at a time (route copy -> sendQ -> flow -> released); payload
// backing arrays are never pooled, so late readers of an already-released
// message's payload are impossible by construction — only the struct is
// reused, and a PUBLISH built from a message outlives it safely.
func (b *Broker) getMsg() *message { return b.msgPool.Get().(*message) }

func (b *Broker) putMsg(m *message) {
	if m == nil {
		return
	}
	*m = message{}
	b.msgPool.Put(m)
}

// Close stops the broker and releases its socket.
func (b *Broker) Close() {
	select {
	case <-b.done:
		return
	default:
	}
	close(b.done)
	b.conn.Close()
	b.wg.Wait()
}

func (b *Broker) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// sendTo marshals p into a pooled buffer and writes it out. WriteTo is
// synchronous, so the buffer is safe to recycle as soon as it returns.
func (b *Broker) sendTo(addr net.Addr, p mqttsn.Packet) {
	bufp := b.outPool.Get().(*[]byte)
	data := mqttsn.AppendPacket((*bufp)[:0], p)
	if _, err := b.conn.WriteTo(data, addr); err != nil {
		b.logf("broker: send %s to %s: %v", p.Type(), addr, err)
	}
	*bufp = data[:0]
	b.outPool.Put(bufp)
}

// maxPeerCache bounds the read loop's source-address cache; past it the
// cache starts over.
const maxPeerCache = 4096

// peer is a source address as the handlers take it, with its session key.
type peer struct {
	addr net.Addr
	key  string
}

// readLoop pulls datagrams off the socket and fans them out to the shard
// workers; it does no protocol work itself, so a slow handler only stalls
// its own shard's queue. When the socket offers ReadFromUDPAddrPort, a
// source address is a value, and the *net.UDPAddr and key the handlers
// use are built once per peer, not once per datagram.
func (b *Broker) readLoop() {
	defer b.wg.Done()
	apr, _ := b.conn.(mqttsn.AddrPortReader)
	peers := map[netip.AddrPort]peer{}
	read := func(buf []byte) (int, peer, error) {
		if apr == nil {
			n, addr, err := b.conn.ReadFrom(buf)
			if err != nil {
				return n, peer{}, err
			}
			return n, peer{addr, addr.String()}, nil
		}
		n, ap, err := apr.ReadFromUDPAddrPort(buf)
		if err != nil {
			return n, peer{}, err
		}
		p, ok := peers[ap]
		if !ok {
			if len(peers) >= maxPeerCache {
				clear(peers)
			}
			addr := net.UDPAddrFromAddrPort(mqttsn.UnmapAddrPort(ap))
			p = peer{addr, addr.String()}
			peers[ap] = p
		}
		return n, p, nil
	}
	for {
		select {
		case <-b.done:
			return
		default:
		}
		// No per-read deadline: Close() closes the socket, which unblocks
		// the read; a deadline syscall per packet costs ~30% of the
		// loopback read budget.
		bufp := b.bufPool.Get().(*[]byte)
		n, from, err := read(*bufp)
		if err != nil {
			b.bufPool.Put(bufp)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			select {
			case <-b.done:
				return
			default:
				if err, ok := err.(net.Error); ok && !err.Timeout() {
					log.Printf("broker: read: %v", err)
				}
				return
			}
		}
		sh := b.shardFor(from.key)
		select {
		case sh.inbox <- inPacket{from: from, buf: bufp, n: n}:
		case <-b.done:
			b.bufPool.Put(bufp)
			return
		}
	}
}

// shardWorker decodes and handles the packets of the sessions striped to
// one shard.
func (b *Broker) shardWorker(sh *shard) {
	defer b.wg.Done()
	for {
		select {
		case <-b.done:
			return
		case in := <-sh.inbox:
			pkt, err := mqttsn.Unmarshal((*in.buf)[:in.n])
			if err != nil {
				b.logf("broker: drop malformed datagram from %s: %v", in.from.addr, err)
			} else {
				b.handle(in.from.addr, in.from.key, pkt)
			}
			b.bufPool.Put(in.buf)
		}
	}
}

// janitor retransmits stale outbound messages and expires dead sessions.
func (b *Broker) janitor() {
	defer b.wg.Done()
	tick := time.NewTicker(b.cfg.RetryInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-b.done:
			return
		case <-tick.C:
			b.sweep()
		}
	}
}

func (b *Broker) sweep() {
	now := time.Now()
	type resend struct {
		addr net.Addr
		pkt  mqttsn.Packet
	}
	type giveUp struct {
		s    *session
		msgs []*message
	}
	type expiry struct {
		s *session
		r sessionRemains
	}
	type eviction struct {
		s      *session
		groups []*consumerGroup
	}
	var resends []resend
	var expired []expiry
	var givenUp []giveUp
	var evictions []eviction
	var due, gone []mqttsn.Flow[outFlow]
	for _, sh := range b.shards {
		sh.mu.Lock()
		for key, s := range sh.sessions {
			// Keepalive expiry with 1.5x grace (spec §6.13 suggests tolerance).
			if s.keepalive > 0 && now.Sub(s.lastSeen) > s.keepalive+s.keepalive/2 {
				b.ctr.sessionsExpired.Add(1)
				delete(sh.sessions, key)
				expired = append(expired, expiry{s: s, r: b.collectRemainsLocked(s)})
				continue
			}
			// One loop retransmits every flow kind: a lost REGISTER (or
			// REGACK) must no more wedge the frames queued behind it than
			// a lost PUBLISH.
			due, gone = s.flows.Due(now, due[:0], gone[:0])
			for _, f := range due {
				b.ctr.retransmissions.Add(1)
				resends = append(resends, resend{s.addr, b.resendPacket(f)})
			}
			// The subscriber stopped acknowledging the flows gone: the
			// frames, and a REGISTER's queued frames, are settled below,
			// outside the shard mutex: group frames are handed back to
			// the group, the rest dropped and counted.
			var lost []*message
			for _, f := range gone {
				if f.Payload.msg == nil {
					lost = s.settleRegisterLocked(f.Payload.topicID, lost)
				} else {
					lost = append(lost, f.Payload.msg)
				}
			}
			if len(gone) > 0 {
				b.pumpAndSendLocked(s) // abandoned flows freed window slots
			}
			if len(lost) == 0 {
				continue
			}
			givenUp = append(givenUp, giveUp{s: s, msgs: lost})
			// A session that exhausted MaxRetries on a flow AND has been
			// completely silent for the whole give-up horizon (no ack,
			// no ping — nothing moved lastSeen) is indistinguishable
			// from dead: evict it from its groups so the handoff below
			// cannot assign the frames right back to it (it re-joins by
			// re-subscribing; keepalive expiry reclaims the session
			// itself). A live-but-slow member keeps acknowledging or
			// pinging, keeps lastSeen fresh, and only ever loses the
			// individual frame — never its membership.
			if len(s.groupSubs) > 0 &&
				now.Sub(s.lastSeen) > time.Duration(b.cfg.MaxRetries)*b.cfg.RetryInterval {
				ev := eviction{s: s}
				for _, g := range s.groupSubs {
					ev.groups = append(ev.groups, g)
				}
				s.groupSubs = map[string]*consumerGroup{}
				evictions = append(evictions, ev)
			}
		}
		sh.mu.Unlock()
	}
	if len(expired) > 0 {
		b.clientMu.Lock()
		for _, e := range expired {
			if b.byClientID[e.s.clientID] == e.s {
				delete(b.byClientID, e.s.clientID)
			}
		}
		b.clientMu.Unlock()
	}
	for _, r := range resends {
		b.sendTo(r.addr, r.pkt)
	}
	// Settle outside every shard mutex: handoff re-delivers via other
	// shards' sessions. Evictions go first so the re-routing below never
	// assigns a frame back to a member that just proved unresponsive.
	for _, ev := range evictions {
		for _, g := range ev.groups {
			b.leaveGroup(g, ev.s)
		}
	}
	for _, e := range expired {
		b.settleRemains(e.s, e.r)
	}
	for _, g := range givenUp {
		for _, m := range g.msgs {
			b.settleUndeliverable(g.s, m)
		}
	}
}

// resendPacket is the packet a due flow re-sends: its PUBLISH with DUP
// set, its PUBREL or its REGISTER.
func (b *Broker) resendPacket(f mqttsn.Flow[outFlow]) mqttsn.Packet {
	switch f.Await {
	case mqttsn.PUBCOMP:
		rel := &mqttsn.Pubrel{}
		rel.MsgID = f.MsgID
		return rel
	case mqttsn.REGACK:
		topic, _ := b.topicName(f.Payload.topicID)
		return &mqttsn.Register{TopicID: f.Payload.topicID, MsgID: f.MsgID, TopicName: topic}
	}
	return publishPacket(f.Payload.msg, f.MsgID, true)
}

// publishPacket builds the PUBLISH that carries msg; msgID is 0 for
// QoS 0/-1. The packet does not reference msg, which may be released
// once it is built.
func publishPacket(msg *message, msgID uint16, dup bool) *mqttsn.Publish {
	return &mqttsn.Publish{
		Flags:   mqttsn.Flags{QoS: msg.qos, DUP: dup},
		TopicID: msg.topicID,
		MsgID:   msgID,
		Data:    msg.payload,
	}
}

// topicID returns (allocating if needed) the gateway-scoped id for a
// topic. The hit path is a lock-free snapshot load, so concurrent
// publishes never serialize on the registry.
func (b *Broker) topicID(topic string) uint16 {
	if id, ok := b.topics.Load().ids[topic]; ok {
		return id
	}
	b.topicWmu.Lock()
	defer b.topicWmu.Unlock()
	cur := b.topics.Load()
	if id, ok := cur.ids[topic]; ok {
		return id
	}
	b.nextTopicID++
	if b.nextTopicID == 0 {
		b.nextTopicID = 1
	}
	id := b.nextTopicID
	next := &topicTables{
		ids:   make(map[string]uint16, len(cur.ids)+1),
		names: make(map[uint16]string, len(cur.names)+1),
	}
	for k, v := range cur.ids {
		next.ids[k] = v
	}
	for k, v := range cur.names {
		next.names[k] = v
	}
	next.ids[topic] = id
	next.names[id] = topic
	b.topics.Store(next)
	return id
}

// topicName resolves a gateway-scoped topic id (lock-free snapshot read).
func (b *Broker) topicName(id uint16) (string, bool) {
	name, ok := b.topics.Load().names[id]
	return name, ok
}

// handle dispatches one decoded packet; key is addr's session key, built
// once per peer by the read loop.
func (b *Broker) handle(addr net.Addr, key string, pkt mqttsn.Packet) {
	switch p := pkt.(type) {
	case *mqttsn.Connect:
		b.handleConnect(addr, key, p)
	case *mqttsn.Register:
		b.handleRegister(addr, key, p)
	case *mqttsn.Regack:
		b.handleAck(key, mqttsn.REGACK, p.MsgID, p.ReturnCode)
	case *mqttsn.Publish:
		b.handlePublish(addr, key, p)
	case *mqttsn.Pubrel:
		b.handlePubrel(addr, key, p)
	case *mqttsn.Puback:
		b.handleAck(key, mqttsn.PUBACK, p.MsgID, p.ReturnCode)
	case *mqttsn.Pubrec:
		b.handleAck(key, mqttsn.PUBREC, p.MsgID, mqttsn.Accepted)
	case *mqttsn.Pubcomp:
		b.handleAck(key, mqttsn.PUBCOMP, p.MsgID, mqttsn.Accepted)
	case *mqttsn.Subscribe:
		b.handleSubscribe(addr, key, p)
	case *mqttsn.Unsubscribe:
		b.handleUnsubscribe(addr, key, p)
	case *mqttsn.Pingreq:
		if !b.touch(key) {
			// The session is gone (expired by the janitor, typically after
			// an overload window swallowed its pings). Answering with a
			// plain PINGRESP would keep the client in a zombie state —
			// pinging forever, believing it is connected, subscribed to
			// nothing. A DISCONNECT tells it to re-CONNECT instead.
			b.sendTo(addr, &mqttsn.Disconnect{})
			return
		}
		b.sendTo(addr, &mqttsn.Pingresp{})
	case *mqttsn.Disconnect:
		b.handleDisconnect(addr, key)
	case *mqttsn.SearchGw:
		b.sendTo(addr, &mqttsn.GwInfo{GwID: 1})
	default:
		b.logf("broker: ignoring %s from %s", pkt.Type(), addr)
	}
}

// touch refreshes the liveness clock of the session at key and reports
// whether it is still live.
func (b *Broker) touch(key string) bool {
	sh := b.shardFor(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	if s != nil {
		s.lastSeen = time.Now()
	}
	sh.mu.Unlock()
	return s != nil
}

// admitConnect is the overload valve: it refuses a CONNECT when the
// accept rate is over the token bucket or a *new* client id would exceed
// the session cap. Reconnects of known client ids are never count-capped
// (they replace, not add), so a full broker can still churn sessions.
func (b *Broker) admitConnect(clientID string) bool {
	if b.connLimit != nil && !b.connLimit.allow() {
		return false
	}
	if b.cfg.MaxSessions > 0 {
		b.clientMu.Lock()
		_, existing := b.byClientID[clientID]
		n := len(b.byClientID)
		b.clientMu.Unlock()
		if !existing && n >= b.cfg.MaxSessions {
			return false
		}
	}
	return true
}

func (b *Broker) handleConnect(addr net.Addr, key string, p *mqttsn.Connect) {
	if p.Flags.Will {
		b.sendTo(addr, &mqttsn.Connack{ReturnCode: mqttsn.RejectedNotSupported})
		return
	}
	if !b.admitConnect(p.ClientID) {
		b.ctr.congestionRejected.Add(1)
		b.sendTo(addr, &mqttsn.Connack{ReturnCode: mqttsn.RejectedCongestion})
		return
	}
	if b.cfg.ConnectGate != nil {
		if rc := b.cfg.ConnectGate(p.ClientID); rc != mqttsn.Accepted {
			b.sendTo(addr, &mqttsn.Connack{ReturnCode: rc})
			return
		}
	}
	s := &session{
		clientID:    p.ClientID,
		addr:        addr,
		addrKey:     key,
		keepalive:   time.Duration(p.Duration) * time.Second,
		lastSeen:    time.Now(),
		subs:        map[string]mqttsn.QoS{},
		groupSubs:   map[string]*consumerGroup{},
		flows:       mqttsn.Flows[outFlow]{RetryInterval: b.cfg.RetryInterval, MaxRetries: b.cfg.MaxRetries},
		knownTopics: map[uint16]bool{},
	}
	// Replace any session with the same client id (possibly at an old
	// addr): the old session leaves its groups and its backlog is handed
	// off or released.
	b.clientMu.Lock()
	old := b.byClientID[p.ClientID]
	b.byClientID[p.ClientID] = s
	b.clientMu.Unlock()
	if old != nil {
		b.endSession(old)
	}
	sh := b.shardFor(s.addrKey)
	sh.mu.Lock()
	sh.sessions[s.addrKey] = s
	sh.mu.Unlock()
	b.sendTo(addr, &mqttsn.Connack{ReturnCode: mqttsn.Accepted})
}

func (b *Broker) handleRegister(addr net.Addr, key string, p *mqttsn.Register) {
	sh := b.shardFor(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	if s != nil {
		s.lastSeen = time.Now()
	}
	sh.mu.Unlock()
	if s == nil || !mqttsn.ValidTopicName(p.TopicName) {
		b.sendTo(addr, &mqttsn.Regack{MsgID: p.MsgID, ReturnCode: mqttsn.RejectedNotSupported})
		return
	}
	id := b.topicID(p.TopicName)
	sh.mu.Lock()
	if sh.sessions[key] == s {
		s.knownTopics[id] = true
	}
	sh.mu.Unlock()
	b.sendTo(addr, &mqttsn.Regack{TopicID: id, MsgID: p.MsgID, ReturnCode: mqttsn.Accepted})
}

func (b *Broker) handlePublish(addr net.Addr, key string, p *mqttsn.Publish) {
	sh := b.shardFor(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	if s != nil {
		s.lastSeen = time.Now()
	}
	sh.mu.Unlock()
	topic, knownTopic := b.topicName(p.TopicID)
	b.ctr.publishesReceived.Add(1)

	// QoS -1 publishes are allowed without a session (spec: predefined
	// topics); we accept them for already-registered topic ids.
	if s == nil && p.Flags.QoS != mqttsn.QoSMinusOne {
		if p.Flags.QoS == mqttsn.QoS1 || p.Flags.QoS == mqttsn.QoS2 {
			b.sendTo(addr, &mqttsn.Puback{TopicID: p.TopicID, MsgID: p.MsgID, ReturnCode: mqttsn.RejectedNotSupported})
		}
		return
	}
	if !knownTopic {
		if p.Flags.QoS == mqttsn.QoS1 || p.Flags.QoS == mqttsn.QoS2 {
			b.sendTo(addr, &mqttsn.Puback{TopicID: p.TopicID, MsgID: p.MsgID, ReturnCode: mqttsn.RejectedInvalidID})
		}
		return
	}
	fromBridge := s != nil && strings.HasPrefix(s.clientID, BridgeSessionPrefix)
	fresh := true
	if p.Flags.QoS == mqttsn.QoS2 {
		// Routed at the first PUBLISH (MQTT's "method B"): the shard worker
		// sees one client's PUBLISHes in arrival order, so routing here keeps
		// that order with no state beyond the msgID, and the frame has passed
		// the Forward hook or reached every local subscriber before the
		// PUBREC (and so long before the PUBCOMP the cluster's migration
		// drain waits for). Until the PUBREL, and for a while after it, a
		// retransmitted PUBLISH is recognised by its msgID and dropped.
		sh.mu.Lock()
		fresh = s.inbound.Receive(p.MsgID, struct{}{})
		sh.mu.Unlock()
	}
	if fresh {
		msg := b.getMsg()
		*msg = message{topic: topic, topicID: p.TopicID, payload: p.Data, qos: p.Flags.QoS, bridge: fromBridge}
		b.routeAndRelease(msg)
	} else {
		b.ctr.duplicatesDropped.Add(1)
	}
	switch p.Flags.QoS {
	case mqttsn.QoS1:
		b.sendTo(addr, &mqttsn.Puback{TopicID: p.TopicID, MsgID: p.MsgID, ReturnCode: mqttsn.Accepted})
	case mqttsn.QoS2:
		rec := &mqttsn.Pubrec{}
		rec.MsgID = p.MsgID
		b.sendTo(addr, rec)
	}
}

func (b *Broker) handlePubrel(addr net.Addr, key string, p *mqttsn.Pubrel) {
	sh := b.shardFor(key)
	sh.mu.Lock()
	if s := sh.sessions[key]; s != nil {
		s.lastSeen = time.Now()
		s.inbound.Release(p.MsgID)
	}
	sh.mu.Unlock()
	comp := &mqttsn.Pubcomp{}
	comp.MsgID = p.MsgID
	b.sendTo(addr, comp)
}

// handleAck applies a subscriber's acknowledgement to its flow. A PUBREC
// sends the PUBRELs the table releases, in table order: all PUBRECs of a
// session arrive on its one shard worker, so the walks never race each
// other. A completed flow frees its window slot for the next frame, and
// the frame, delivered, is released. A refused PUBLISH, or a refused
// REGISTER's queued frames, are settled like the frames of a subscriber
// that stopped acknowledging.
func (b *Broker) handleAck(key string, typ mqttsn.MsgType, msgID uint16, code mqttsn.ReturnCode) {
	sh := b.shardFor(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	var buf [4]*mqttsn.Publish
	pubs := buf[:0]
	var relBuf [8]mqttsn.Flow[outFlow]
	rels := relBuf[:0]
	var done *message
	var rejected []*message
	if s != nil {
		now := time.Now()
		s.lastSeen = now
		switch f, step := s.flows.Advance(typ, msgID, code); step {
		case mqttsn.Release:
			rels = s.flows.Releasable(now, rels)
		case mqttsn.Completed:
			switch m := f.Payload.msg; {
			case m == nil && code == mqttsn.Accepted: // a REGISTER
				s.knownTopics[f.Payload.topicID] = true
			case m == nil:
				rejected = s.settleRegisterLocked(f.Payload.topicID, nil)
			case code == mqttsn.Accepted:
				done = m
			default:
				rejected = append(rejected, m)
			}
			pubs = s.pumpLocked(b, pubs)
		}
	}
	b.unlockAndSend(sh, s, pubs)
	for _, f := range rels {
		rel := &mqttsn.Pubrel{}
		rel.MsgID = f.MsgID
		b.sendTo(s.addr, rel)
	}
	b.putMsg(done)
	for _, m := range rejected {
		b.settleUndeliverable(s, m)
	}
}

func (b *Broker) handleSubscribe(addr net.Addr, key string, p *mqttsn.Subscribe) {
	sh := b.shardFor(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	if s == nil {
		sh.mu.Unlock()
		b.sendTo(addr, &mqttsn.Suback{MsgID: p.MsgID, ReturnCode: mqttsn.RejectedNotSupported})
		return
	}
	s.lastSeen = time.Now()
	filter := p.TopicName
	if p.Flags.TopicIDType == mqttsn.TopicPredefined {
		filter, _ = b.topicName(p.TopicID)
	}
	if !mqttsn.ValidFilter(filter) {
		sh.mu.Unlock()
		b.sendTo(addr, &mqttsn.Suback{MsgID: p.MsgID, ReturnCode: mqttsn.RejectedNotSupported})
		return
	}
	grantedQoS := p.Flags.QoS
	if groupName, inner, shared := mqttsn.ParseSharedFilter(filter); shared {
		// Shared subscription: join the consumer group instead of adding
		// an individual subscription. No immediate topic id — ids are
		// registered on first delivery.
		g := b.joinGroup(groupName, inner, s, grantedQoS)
		s.groupSubs[filter] = g
		sh.mu.Unlock()
		b.sendTo(addr, &mqttsn.Suback{
			Flags: mqttsn.Flags{QoS: grantedQoS},
			MsgID: p.MsgID, ReturnCode: mqttsn.Accepted,
		})
		return
	}
	_, hadFilter := s.subs[filter]
	s.subs[filter] = p.Flags.QoS
	isBridge := strings.HasPrefix(s.clientID, BridgeSessionPrefix)
	sh.mu.Unlock()
	if !hadFilter && !isBridge && b.cfg.OnSubscribe != nil {
		b.cfg.OnSubscribe(filter)
	}

	var topicID uint16
	if mqttsn.ValidTopicName(filter) { // exact topic: hand out its id now
		topicID = b.topicID(filter)
		sh.mu.Lock()
		if sh.sessions[key] == s {
			s.knownTopics[topicID] = true
		}
		sh.mu.Unlock()
	}
	b.sendTo(addr, &mqttsn.Suback{
		Flags:   mqttsn.Flags{QoS: grantedQoS},
		TopicID: topicID, MsgID: p.MsgID, ReturnCode: mqttsn.Accepted,
	})
}

func (b *Broker) handleUnsubscribe(addr net.Addr, key string, p *mqttsn.Unsubscribe) {
	sh := b.shardFor(key)
	sh.mu.Lock()
	var left *consumerGroup
	var s *session
	var dropped string
	if s = sh.sessions[key]; s != nil {
		s.lastSeen = time.Now()
		filter := p.TopicName
		if p.Flags.TopicIDType == mqttsn.TopicPredefined {
			filter, _ = b.topicName(p.TopicID)
		}
		if g, ok := s.groupSubs[filter]; ok {
			delete(s.groupSubs, filter)
			left = g
		} else if _, ok := s.subs[filter]; ok {
			delete(s.subs, filter)
			if !strings.HasPrefix(s.clientID, BridgeSessionPrefix) {
				dropped = filter
			}
		}
	}
	sh.mu.Unlock()
	if left != nil {
		b.leaveGroup(left, s)
	}
	if dropped != "" && b.cfg.OnUnsubscribe != nil {
		b.cfg.OnUnsubscribe(dropped)
	}
	ack := &mqttsn.Unsuback{}
	ack.MsgID = p.MsgID
	b.sendTo(addr, ack)
}

func (b *Broker) handleDisconnect(addr net.Addr, key string) {
	sh := b.shardFor(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	sh.mu.Unlock()
	if s != nil {
		b.endSession(s)
	}
	b.sendTo(addr, &mqttsn.Disconnect{})
}

// endSession tears s down: it leaves its shard (unless a reconnect
// already put a newer session at its address), its client id is freed
// unless a newer session holds it, and its remains are settled — group
// frames handed back, the rest released. Repeating it on a session
// already torn down is harmless: its remains are already empty. It
// reports whether s was still live in its shard. Must be called without
// any shard mutex held.
func (b *Broker) endSession(s *session) bool {
	sh := b.shardFor(s.addrKey)
	sh.mu.Lock()
	live := sh.sessions[s.addrKey] == s
	if live {
		delete(sh.sessions, s.addrKey)
	}
	remains := b.collectRemainsLocked(s)
	sh.mu.Unlock()
	b.clientMu.Lock()
	if b.byClientID[s.clientID] == s {
		delete(b.byClientID, s.clientID)
	}
	b.clientMu.Unlock()
	b.settleRemains(s, remains)
	return live
}

// DisconnectClientsPrefix tears down every session whose client id has
// the given prefix, exactly as if each had sent a DISCONNECT: backlogs
// are handed back to their groups or released, and a DISCONNECT is sent
// to the session's address so a live peer learns immediately instead of
// at its next exchange. The cluster uses it to fence a removed node:
// killing its established bridge sessions closes the door its future
// CONNECTs will find barred by the gate. Returns the number of sessions
// dropped.
func (b *Broker) DisconnectClientsPrefix(prefix string) int {
	b.clientMu.Lock()
	var victims []*session
	for clientID, s := range b.byClientID {
		if strings.HasPrefix(clientID, prefix) {
			victims = append(victims, s)
		}
	}
	b.clientMu.Unlock()
	for _, s := range victims {
		if b.endSession(s) { // else already replaced or expired
			b.sendTo(s.addr, &mqttsn.Disconnect{})
		}
	}
	return len(victims)
}

// routeAndRelease routes msg, then returns it to the message pool. When
// a Forward hook is set it gets first refusal: frames it takes (another
// node owns the topic, or a migration pause is buffering it) never reach
// local routing, which is what keeps cluster delivery exactly-once.
func (b *Broker) routeAndRelease(msg *message) {
	if b.cfg.Forward != nil && !msg.injected &&
		b.cfg.Forward(ForwardFrame{Topic: msg.topic, Payload: msg.payload, QoS: msg.qos, Bridge: msg.bridge}) {
		b.ctr.forwarded.Add(1)
	} else {
		b.route(msg)
	}
	b.putMsg(msg)
}

// Submit routes a frame as if a local publisher had just published it,
// bypassing the Forward hook. The cluster uses it to re-enter frames
// that already completed cluster routing: a forwarded frame flushed from
// a migration buffer whose partition this node now owns.
func (b *Broker) Submit(topic string, payload []byte, qos mqttsn.QoS) {
	msg := b.getMsg()
	*msg = message{topic: topic, payload: payload, qos: qos}
	b.route(msg)
	b.putMsg(msg)
}

// Inject delivers a frame that arrived over an inter-node bridge link to
// this node's local individual subscribers only: consumer groups and
// bridge sessions are skipped (the topic's owner already served its
// groups), so a publication can neither double-deliver nor echo between
// nodes.
func (b *Broker) Inject(topic string, payload []byte, qos mqttsn.QoS) {
	msg := b.getMsg()
	*msg = message{topic: topic, payload: payload, qos: qos, injected: true}
	b.ctr.injected.Add(1)
	b.route(msg)
	b.putMsg(msg)
}

// PendingForTopics counts the frames still queued or in flight toward
// this broker's local subscribers whose topic matches. The cluster polls
// it during a partition drain: once the peers' forwarding links are idle
// and this count reaches zero, every frame of the moving partitions has
// been delivered and acknowledged.
func (b *Broker) PendingForTopics(match func(topic string) bool) int {
	n := 0
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			for _, f := range s.flows.Slots() {
				if m := f.Payload.msg; m != nil && match(m.topic) {
					n++
				}
			}
			for _, m := range s.sendQ {
				if match(m.topic) {
					n++
				}
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// DetachMatching removes every queued or in-flight frame whose topic
// matches from this broker's local subscribers and returns them in
// per-session send order (in flight first, then queued), counting them
// as Migrated. It is the migration drain's escape hatch for a subscriber
// that stopped acknowledging: the frames move to the partition's new
// owner instead of wedging the handoff. A detached in-flight frame may
// already have reached its subscriber (the ack just never came back), so
// delivery for detached frames is at-least-once — same contract as a
// consumer-group member failover.
func (b *Broker) DetachMatching(match func(topic string) bool) []ForwardFrame {
	var out []ForwardFrame
	var msgs []*message
	take := func(m *message) bool { return match(m.topic) }
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			msgs = s.detachLocked(take, msgs[:0])
			for _, m := range msgs {
				out = append(out, ForwardFrame{Topic: m.topic, Payload: m.payload, QoS: m.qos})
				b.putMsg(m)
			}
			if len(msgs) > 0 {
				// The detached flows freed window slots, and no ack will
				// come for them to refill the window.
				b.pumpAndSendLocked(s)
			}
		}
		sh.mu.Unlock()
	}
	b.ctr.migrated.Add(uint64(len(out)))
	return out
}

// route fans a message out to all matching subscribers — every individual
// subscription, plus exactly one member per matching consumer group: the
// member the group's sticky least-loaded assignment gives the topic (see
// group.go). It walks the shards one at a time, so a hot shard never
// blocks matching on the others. route does not take ownership of msg
// (each delivery gets its own pooled copy).
//
// Injected frames (arrived over an inter-node bridge) take a narrower
// path: individual non-bridge subscribers only. The topic's owning node
// already served its consumer groups, and delivering to another bridge
// session would echo the frame around the cluster.
func (b *Broker) route(msg *message) {
	if b.stageRoute != nil {
		if ns, ok := wire.FrameCaptureNS(msg.payload); ok {
			obs.ObserveSince(b.stageRoute, ns)
		}
	}
	if msg.topicID == 0 {
		msg.topicID = b.topicID(msg.topic)
	}
	type target struct {
		s   *session
		qos mqttsn.QoS
		g   *consumerGroup
	}
	// Stack-backed in the common case (few subscribers per topic).
	var tbuf [8]target
	targets := tbuf[:0]
	for _, sh := range b.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			if msg.injected && strings.HasPrefix(s.clientID, BridgeSessionPrefix) {
				continue
			}
			best := mqttsn.QoS(-2)
			for filter, subQoS := range s.subs {
				if mqttsn.TopicMatches(filter, msg.topic) && subQoS > best {
					best = subQoS
				}
			}
			if best >= -1 {
				q := msg.qos
				if best < q {
					q = best
				}
				targets = append(targets, target{s: s, qos: q})
			}
		}
		sh.mu.Unlock()
	}
	if !msg.injected {
		var gbuf [4]groupTarget
		for _, gt := range b.matchGroups(msg.topic, nil, gbuf[:0]) {
			q := msg.qos
			if gt.qos < q {
				q = gt.qos
			}
			targets = append(targets, target{s: gt.s, qos: q, g: gt.g})
		}
	}
	b.ctr.messagesRouted.Add(uint64(len(targets)))
	for _, t := range targets {
		out := b.getMsg()
		*out = *msg
		out.qos = t.qos
		out.group = t.g
		b.deliverOrSettle(t.s, out)
	}
}

// deliverOrSettle delivers msg to s, and settles ownership if the session
// turns out to be dead: group frames go back to their group (with the
// dead member removed so it stops attracting assignments), the rest are
// dropped and counted.
func (b *Broker) deliverOrSettle(s *session, msg *message) {
	if b.deliver(s, msg) {
		return
	}
	if msg.group != nil {
		b.leaveGroup(msg.group, s)
		b.rerouteGroup(msg, s)
	} else {
		b.ctr.backlogDropped.Add(1)
		b.putMsg(msg)
	}
}

// deliver sends one message to one subscriber, respecting its QoS.
// A QoS 0/-1 frame on a topic the subscriber knows goes out at once;
// every other frame joins sendQ, and a frame whose topic the subscriber
// does not know starts that topic's REGISTER unless one is in flight.
// deliver takes ownership of msg; it returns false — handing ownership
// back to the caller — when the session is no longer live.
func (b *Broker) deliver(s *session, msg *message) bool {
	sh := b.shardFor(s.addrKey)
	sh.mu.Lock()
	if sh.sessions[s.addrKey] != s {
		sh.mu.Unlock()
		return false
	}
	var buf [4]*mqttsn.Publish
	pubs := buf[:0]
	var reg *mqttsn.Register
	known := s.knownTopics[msg.topicID]
	if known && msg.qos != mqttsn.QoS1 && msg.qos != mqttsn.QoS2 {
		pubs = append(pubs, publishPacket(msg, 0, false))
		b.putMsg(msg) // fire-and-forget: done once sent
	} else {
		s.sendQ = append(s.sendQ, msg)
		if !known && !s.registering(msg.topicID) {
			f := s.flows.Add(mqttsn.REGACK, time.Now())
			f.Payload.topicID = msg.topicID
			reg = &mqttsn.Register{TopicID: msg.topicID, MsgID: f.MsgID, TopicName: msg.topic}
		}
		pubs = s.pumpLocked(b, pubs)
	}
	b.unlockAndSend(sh, s, pubs)
	if reg != nil {
		b.sendTo(s.addr, reg)
	}
	return true
}

// unlockAndSend releases the shard lock sh, held since pubs were taken
// from s's queue, and sends pubs to s. Each send waits for the sends of
// every earlier pump of s: s.txMu is taken before sh is released, so two
// goroutines pumping one session (a REGACK flushing the frames that
// waited for it and a deliver of the next frame, say) cannot put its
// PUBLISHes on the wire out of pump order. That order matters at QoS 1,
// where a subscriber delivers on arrival.
func (b *Broker) unlockAndSend(sh *shard, s *session, pubs []*mqttsn.Publish) {
	if len(pubs) == 0 {
		sh.mu.Unlock()
		return
	}
	s.txMu.Lock()
	sh.mu.Unlock()
	for _, pub := range pubs {
		b.sendTo(s.addr, pub)
	}
	s.txMu.Unlock()
}

// pumpAndSendLocked refills s's window and sends what it took, in pump
// order, while the caller keeps holding s's shard mutex: for the paths
// that free window slots with no acknowledgement to pump after (see
// unlockAndSend).
func (b *Broker) pumpAndSendLocked(s *session) {
	if pubs := s.pumpLocked(b, nil); len(pubs) > 0 {
		s.txMu.Lock()
		for _, pub := range pubs {
			b.sendTo(s.addr, pub)
		}
		s.txMu.Unlock()
	}
}

// pumpLocked moves frames from the head of sendQ into the in-flight
// table while the window has room, and stops at a head frame whose topic
// the subscriber does not know yet. A QoS 0/-1 frame takes no window
// slot: it is sent and released. The caller holds the session's shard
// mutex; the returned packets must be sent after unlocking, with
// unlockAndSend.
func (s *session) pumpLocked(b *Broker, pubs []*mqttsn.Publish) []*mqttsn.Publish {
	for len(s.sendQ) > 0 && s.knownTopics[s.sendQ[0].topicID] {
		msg := s.sendQ[0]
		acked := msg.qos == mqttsn.QoS1 || msg.qos == mqttsn.QoS2
		if acked && len(s.flows.Slots()) >= b.cfg.SendWindow {
			break
		}
		s.sendQ[0] = nil
		s.sendQ = s.sendQ[1:]
		if !acked {
			pubs = append(pubs, publishPacket(msg, 0, false))
			b.putMsg(msg)
			continue
		}
		f := s.flows.Add(mqttsn.PublishAwaits(msg.qos), time.Now())
		f.Payload.msg = msg
		pubs = append(pubs, publishPacket(msg, f.MsgID, false))
	}
	if len(s.sendQ) == 0 {
		s.sendQ = nil // release the drained backlog's backing array
	}
	return pubs
}

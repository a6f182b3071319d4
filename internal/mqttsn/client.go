package mqttsn

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/transport"
)

// Errors returned by the client.
var (
	ErrTimeout      = errors.New("mqttsn: timed out waiting for acknowledgement")
	ErrClosed       = errors.New("mqttsn: client closed")
	ErrNotConnected = errors.New("mqttsn: not connected")
	// ErrCongestion is returned by Connect when the gateway refused the
	// session with a congestion CONNACK (admission control under
	// overload). The spec's contract for this code is "try again later":
	// callers should back off with jitter — never retry immediately, or a
	// rejected thundering herd re-arrives as the same herd.
	ErrCongestion = errors.New("mqttsn: connect rejected: congestion")
)

// ConnectRejectedError is returned by Connect for a non-congestion
// CONNACK refusal, carrying the gateway's return code so callers can
// tell a permanent refusal from a transient one (a cluster link treats
// RejectedInvalidID — its node was fenced out — as permanent).
type ConnectRejectedError struct {
	Code ReturnCode
}

func (e *ConnectRejectedError) Error() string {
	return fmt.Sprintf("mqttsn: connect rejected: %s", e.Code)
}

// ClientConfig configures a gateway client.
type ClientConfig struct {
	// ClientID identifies the session (1-23 characters per spec).
	ClientID string
	// Gateway is the address of the MQTT-SN gateway/broker, in the
	// dialing transport's address format (UDP host:port by default).
	Gateway string
	// Transport dials the gateway; nil means transport.UDP{}. Wrap it
	// (netem.WrapTransport, chaos.Fault.Transport) to shape or fault the
	// link.
	Transport transport.Transport
	// KeepAlive is the session keepalive; the client pings at half this
	// interval when idle. Defaults to 60s.
	KeepAlive time.Duration
	// RetryInterval is the acknowledgement timeout before retransmission.
	// Defaults to 1s.
	RetryInterval time.Duration
	// MaxRetries bounds retransmissions per in-flight message. Defaults to 5.
	MaxRetries int
	// InflightWindow bounds how many publish handshakes may be in flight at
	// once via PublishAsync (and Publish, which wraps it). The handshakes
	// live in the client's one in-flight table keyed by msgID: the read
	// loop advances them on their acknowledgements and the timer loop
	// re-sends the ones that went unanswered. 1 restores strictly serial
	// stop-and-wait publishing. Defaults to 16.
	InflightWindow int
	// CleanSession requests a fresh session.
	CleanSession bool
	// OnDisconnect, when set, is invoked (once, on its own goroutine) when
	// the session dies without a local Close/Disconnect: the broker sent a
	// DISCONNECT, or the socket failed. Session sets it to redial promptly.
	OnDisconnect func(err error)
}

// MessageHandler receives inbound publications.
type MessageHandler func(topic string, payload []byte)

// flowState is where an acknowledged exchange stands. The publish states
// come first: a flow in one of them holds a window slot.
type flowState uint8

const (
	awaitPuback   flowState = iota // QoS 1: PUBLISH sent
	awaitPubrec                    // QoS 2: PUBLISH sent
	awaitPubcomp                   // QoS 2: PUBREC received, PUBREL sent
	awaitConnack                   // CONNECT sent
	awaitRegack                    // REGISTER sent
	awaitSuback                    // SUBSCRIBE sent
	awaitUnsuback                  // UNSUBSCRIBE sent
)

// awaited is the acknowledgement each state waits for.
var awaited = [...]MsgType{
	awaitPuback:   PUBACK,
	awaitPubrec:   PUBREC,
	awaitPubcomp:  PUBCOMP,
	awaitConnack:  CONNACK,
	awaitRegack:   REGACK,
	awaitSuback:   SUBACK,
	awaitUnsuback: UNSUBACK,
}

// flow is one acknowledged exchange in flight: a QoS 1 or QoS 2 publish
// handshake, or a CONNECT, REGISTER, SUBSCRIBE or UNSUBSCRIBE. It lives in
// the client's in-flight table and is read and written only under
// Client.mu; whoever removes it from the table completes it, so each flow
// completes exactly once.
type flow struct {
	pub      Publish // re-sent with DUP until the first acknowledgement
	rel      Pubrel
	req      Packet         // a control request, re-sent as is (SUBSCRIBE with DUP)
	handler  MessageHandler // a SUBSCRIBE's handler, installed on its SUBACK
	state    flowState
	lastSent time.Time
	retries  int
	done     func(error)
}

// packet is what the flow re-sends when its acknowledgement is late.
func (f *flow) packet() Packet {
	switch {
	case f.req != nil:
		return f.req
	case f.state == awaitPubcomp:
		return &f.rel
	}
	return &f.pub
}

// completion is a finished flow's callback and outcome, reported outside
// Client.mu. A publish flow also gives back its window slot.
type completion struct {
	done    func(error)
	err     error
	publish bool
}

// Client is an MQTT-SN client (the device side of ProvLight's transport).
// All methods are safe for concurrent use.
type Client struct {
	cfg    ClientConfig
	conn   net.PacketConn
	gwAddr net.Addr

	mu           sync.Mutex
	msgID        uint16 // the last msgID handed out
	connected    bool
	closed       bool
	topicIDs     map[string]uint16 // topic name -> registered id
	topicName    map[uint16]string // reverse map (incl. broker REGISTERs)
	subs         map[string]MessageHandler
	inbound2     map[uint16][]byte // inbound QoS2 msgID -> payload pending PUBREL
	inbound2Reap uint16            // the newest fresh inbound QoS2 msgID at the last reap
	lastSend     time.Time
	lastRecv     time.Time // last packet from the gateway (liveness)

	// Stats counts protocol activity (used by tests and the evaluation).
	stats ClientStats

	// window is the in-flight publish semaphore: one slot per outstanding
	// PublishAsync handshake.
	window chan struct{}

	// flows is the in-flight table (msgID -> exchange; CONNECT is msgID 0),
	// and freeFlows recycles finished entries. Guarded by mu.
	flows     map[uint16]*flow
	freeFlows []*flow

	// downNotified ensures OnDisconnect fires at most once. Guarded by mu.
	downNotified bool

	done chan struct{}
	wg   sync.WaitGroup
}

// sendBufPool holds scratch buffers for marshaling outgoing packets.
var sendBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// ClientStats counts client protocol activity.
type ClientStats struct {
	PacketsSent     uint64
	PacketsReceived uint64
	BytesSent       uint64
	BytesReceived   uint64
	Retransmissions uint64
	PublishesSent   uint64
	MessagesHandled uint64
}

// NewClient creates a client and starts its two goroutines, the read loop
// and the timer loop; call Connect before publishing at QoS >= 0.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.ClientID == "" || len(cfg.ClientID) > 23 {
		return nil, fmt.Errorf("mqttsn: client id must be 1-23 characters, got %q", cfg.ClientID)
	}
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 60 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.InflightWindow <= 0 {
		cfg.InflightWindow = 16
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.UDP{}
	}
	conn, gwAddr, err := tr.Dial(cfg.Gateway)
	if err != nil {
		return nil, fmt.Errorf("mqttsn: dial gateway %q: %w", cfg.Gateway, err)
	}
	// A subscriber session can receive a full broker send-window in one
	// burst; grow the receive buffer past the kernel default so the burst
	// is absorbed instead of recovered by timed retransmissions.
	// Best-effort: not every PacketConn supports it.
	if rb, ok := conn.(interface{ SetReadBuffer(int) error }); ok {
		_ = rb.SetReadBuffer(1 << 20)
	}
	c := &Client{
		cfg:       cfg,
		conn:      conn,
		gwAddr:    gwAddr,
		topicIDs:  map[string]uint16{},
		topicName: map[uint16]string{},
		subs:      map[string]MessageHandler{},
		inbound2:  map[uint16][]byte{},
		window:    make(chan struct{}, cfg.InflightWindow),
		flows:     map[uint16]*flow{},
		done:      make(chan struct{}),
	}
	c.wg.Add(2)
	go c.readLoop()
	go c.timerLoop()
	return c, nil
}

// Stats returns a snapshot of protocol counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// WindowOccupancy reports how many publish handshakes are currently in
// flight and the window capacity (Config.InflightWindow). Occupancy
// pinned at capacity means the sender is window-limited.
func (c *Client) WindowOccupancy() (inFlight, capacity int) {
	return len(c.window), cap(c.window)
}

// freeMsgIDLocked returns the next msgID no flow holds, skipping 0, which
// is CONNECT's. Callers hold mu.
func (c *Client) freeMsgIDLocked() uint16 {
	for {
		c.msgID++
		if c.msgID != 0 && c.flows[c.msgID] == nil {
			return c.msgID
		}
	}
}

func (c *Client) send(p Packet) error { return c.write(marshal(p)) }

// marshal encodes p into a pooled buffer, which write returns to the pool.
// Once p is marshalled the datagram no longer refers to p's payload.
func marshal(p Packet) *[]byte {
	bufp := sendBufPool.Get().(*[]byte)
	*bufp = AppendPacket((*bufp)[:0], p)
	return bufp
}

// write sends one marshalled datagram to the gateway and recycles it.
func (c *Client) write(bufp *[]byte) error {
	data := *bufp
	_, err := c.conn.WriteTo(data, c.gwAddr)
	n := len(data)
	*bufp = data[:0]
	sendBufPool.Put(bufp)
	c.mu.Lock()
	c.stats.PacketsSent++
	c.stats.BytesSent += uint64(n)
	c.lastSend = time.Now()
	c.mu.Unlock()
	return err
}

// exchange runs one control request as a flow in the in-flight table: it
// builds the request for the flow's msgID, transmits it, and waits until
// the acknowledgement, the sweep or Close completes the flow. CONNECT
// takes msgID 0, which freeMsgIDLocked never hands out.
func (c *Client) exchange(state flowState, handler MessageHandler, build func(msgID uint16) Packet) error {
	errc := make(chan error, 1)
	c.mu.Lock()
	var msgID uint16
	switch {
	case c.closed:
		c.mu.Unlock()
		return ErrClosed
	case state != awaitConnack:
		msgID = c.freeMsgIDLocked()
	case c.flows[0] != nil:
		c.mu.Unlock()
		return errors.New("mqttsn: connect already in progress")
	}
	f := c.newFlowLocked()
	f.req = build(msgID)
	f.handler = handler
	f.state = state
	f.lastSent = time.Now()
	f.done = func(err error) { errc <- err }
	c.flows[msgID] = f
	bufp := marshal(f.req)
	c.mu.Unlock()
	if err := c.write(bufp); err != nil {
		c.fail(msgID, f, err)
	}
	return <-errc
}

// Connect establishes the session.
func (c *Client) Connect() error {
	keepalive := uint16(c.cfg.KeepAlive / time.Second)
	if keepalive == 0 {
		keepalive = 1
	}
	return c.exchange(awaitConnack, nil, func(uint16) Packet {
		return &Connect{Flags: Flags{CleanSession: c.cfg.CleanSession}, Duration: keepalive, ClientID: c.cfg.ClientID}
	})
}

// RegisterTopic obtains (and caches) the gateway's topic id for a name.
func (c *Client) RegisterTopic(topic string) (uint16, error) {
	c.mu.Lock()
	id, ok := c.topicIDs[topic]
	connected := c.connected
	c.mu.Unlock()
	if ok {
		return id, nil
	}
	if !connected {
		return 0, ErrNotConnected
	}
	err := c.exchange(awaitRegack, nil, func(msgID uint16) Packet {
		return &Register{MsgID: msgID, TopicName: topic}
	})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.topicIDs[topic], nil
}

// Publish sends payload to topic at the given QoS level. The call blocks
// until the QoS flow completes (QoS 2: PUBLISH/PUBREC/PUBREL/PUBCOMP,
// guaranteeing exactly-once receipt at the gateway). It is a blocking
// wrapper around PublishAsync and therefore shares the in-flight window.
func (c *Client) Publish(topic string, payload []byte, qos QoS) error {
	errc := make(chan error, 1)
	c.PublishAsync(topic, payload, qos, func(err error) { errc <- err })
	return <-errc
}

// PublishAsync starts a publish handshake and calls done exactly once with
// the flow's outcome: nil on success, ErrTimeout (wrapped) once MaxRetries
// retransmissions went unanswered, a rejection from the gateway, a socket
// error, or ErrClosed when the client closes first. The call blocks only
// while the in-flight window is full, so a sender can keep InflightWindow
// handshakes running without paying the QoS 2 double round trip per
// message.
//
// The initial PUBLISH is transmitted before PublishAsync returns, so a
// single caller's messages reach the gateway in submission order. The rest
// of the handshake runs in the client's in-flight table: the read loop
// completes a QoS 1 flow on its PUBACK and steps a QoS 2 flow through
// PUBREC, PUBREL and PUBCOMP; the timer loop re-sends unanswered packets
// (a PUBLISH with DUP set) every RetryInterval. Flows may therefore
// complete out of submission order. No goroutine is started per message.
//
// The client keeps payload until done is called; the caller may reuse it
// from then on. done runs on the read loop, the timer loop, inside
// PublishAsync, or inside Close, after the flow's window slot has been
// released. It must not block, and it must not call Close (close the
// client from another goroutine instead).
func (c *Client) PublishAsync(topic string, payload []byte, qos QoS, done func(error)) {
	topicID, err := c.RegisterTopic(topic)
	if err != nil {
		done(err)
		return
	}
	switch qos {
	case QoS0, QoSMinusOne, QoS1, QoS2:
	default:
		done(fmt.Errorf("mqttsn: unsupported QoS %d", qos))
		return
	}
	// Acquire a window slot; this is where PublishAsync blocks when the
	// window is full.
	select {
	case c.window <- struct{}{}:
	case <-c.done:
		done(ErrClosed)
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.window
		done(ErrClosed)
		return
	}
	c.stats.PublishesSent++
	if qos == QoS0 || qos == QoSMinusOne {
		c.mu.Unlock()
		err := c.send(&Publish{Flags: Flags{QoS: qos}, TopicID: topicID, Data: payload})
		<-c.window
		done(err)
		return
	}
	msgID := c.freeMsgIDLocked()
	f := c.newFlowLocked()
	f.pub = Publish{Flags: Flags{QoS: qos}, TopicID: topicID, MsgID: msgID, Data: payload}
	f.state = awaitPuback
	if qos == QoS2 {
		f.state = awaitPubrec
	}
	f.lastSent = time.Now()
	f.done = done
	c.flows[msgID] = f
	// Marshal under mu: as soon as mu is released an acknowledgement or
	// Close may complete the flow, and the caller may then reuse payload.
	bufp := marshal(&f.pub)
	c.mu.Unlock()
	if err := c.write(bufp); err != nil {
		c.fail(msgID, f, err)
	}
}

// newFlowLocked takes a recycled flow or allocates one. Callers hold mu.
func (c *Client) newFlowLocked() *flow {
	if n := len(c.freeFlows); n > 0 {
		f := c.freeFlows[n-1]
		c.freeFlows = c.freeFlows[:n-1]
		return f
	}
	return &flow{}
}

// finishLocked removes a flow from the in-flight table, recycles it and
// returns its completion, which the caller reports once mu is released.
// Callers hold mu.
func (c *Client) finishLocked(msgID uint16, f *flow, err error) completion {
	delete(c.flows, msgID)
	cm := completion{done: f.done, err: err, publish: f.state <= awaitPubcomp}
	*f = flow{}
	c.freeFlows = append(c.freeFlows, f)
	return cm
}

// report releases a finished publish flow's window slot and calls the
// flow's callback.
func (c *Client) report(cm completion) {
	if cm.publish {
		<-c.window
	}
	cm.done(cm.err)
}

// fail completes flow f with err, unless it has completed already.
func (c *Client) fail(msgID uint16, f *flow, err error) {
	c.mu.Lock()
	if c.flows[msgID] != f {
		c.mu.Unlock()
		return
	}
	cm := c.finishLocked(msgID, f, err)
	c.mu.Unlock()
	c.report(cm)
}

// advance moves a flow along on an acknowledgement from the gateway. A
// QoS 2 flow answers its PUBREC with a PUBREL; every other awaited
// acknowledgement completes its flow, once settle has applied it to the
// client's state, so the caller never wakes before that state is in place.
// A PUBACK carrying a rejection fails a publish at either QoS, since the
// gateway refuses a PUBLISH that way. An ack that matches no flow in the
// state it expects (a duplicate, or one that arrived after the flow ended)
// is dropped, and so is every ack once the client is closing: Close fails
// what is left.
func (c *Client) advance(typ MsgType, msgID, topicID uint16, code ReturnCode) {
	var rel *[]byte
	var cm completion
	c.mu.Lock()
	f := c.flows[msgID]
	switch {
	case f == nil || c.closed:
	case typ == PUBACK && code != Accepted && f.state <= awaitPubrec:
		cm = c.finishLocked(msgID, f, fmt.Errorf("mqttsn: publish rejected: %s", code))
	case typ != awaited[f.state]:
	case typ == PUBREC:
		f.state = awaitPubcomp
		f.retries = 0
		f.lastSent = time.Now()
		f.rel.MsgID = msgID
		rel = marshal(&f.rel)
	default:
		cm = c.finishLocked(msgID, f, c.settleLocked(f, topicID, code))
	}
	c.mu.Unlock()
	if rel != nil {
		if err := c.write(rel); err != nil {
			c.fail(msgID, f, err)
		}
	}
	if cm.done != nil {
		c.report(cm)
	}
}

// settleLocked applies a flow's final acknowledgement to the client's
// state and returns the flow's outcome: CONNACK marks the client
// connected, REGACK installs the topic id, SUBACK the handler, and
// UNSUBACK removes the subscription. Callers hold mu.
func (c *Client) settleLocked(f *flow, topicID uint16, code ReturnCode) error {
	switch r := f.req.(type) {
	case *Connect:
		switch code {
		case Accepted:
			c.connected = true
			c.lastRecv = time.Now()
		case RejectedCongestion:
			return ErrCongestion
		default:
			return &ConnectRejectedError{Code: code}
		}
	case *Register:
		if code != Accepted {
			return fmt.Errorf("mqttsn: register %q rejected: %s", r.TopicName, code)
		}
		c.setTopicLocked(r.TopicName, topicID)
	case *Subscribe:
		if code != Accepted {
			return fmt.Errorf("mqttsn: subscribe %q rejected: %s", r.TopicName, code)
		}
		c.subs[r.TopicName] = f.handler
		if topicID != 0 {
			c.setTopicLocked(r.TopicName, topicID)
		}
	case *Unsubscribe:
		delete(c.subs, r.TopicName)
	}
	return nil
}

// setTopicLocked records a topic name's id both ways. Callers hold mu.
func (c *Client) setTopicLocked(topic string, id uint16) {
	c.topicIDs[topic] = id
	c.topicName[id] = topic
}

// timerLoop is the client's one timer, like the broker's janitor: every
// tick it sweeps the in-flight table and checks the keepalive. The tick is
// a quarter RetryInterval, or the ping interval (half the keepalive) if
// that is shorter.
func (c *Client) timerLoop() {
	defer c.wg.Done()
	ping := c.cfg.KeepAlive / 2
	if ping < 100*time.Millisecond {
		ping = 100 * time.Millisecond
	}
	every := min(c.cfg.RetryInterval/4, ping)
	if every < time.Millisecond {
		every = time.Millisecond
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	var pinged time.Time
	for {
		select {
		case <-c.done:
			return
		case now := <-tick.C:
			c.sweep(now)
			if c.keepalive(now, ping, pinged) {
				pinged = now
			}
		}
	}
}

// sweep re-sends every flow whose last packet went unanswered for
// RetryInterval (a PUBLISH or SUBSCRIBE with DUP set, a PUBREL, or another
// control request as it was) and fails, with ErrTimeout, every flow that
// has already been re-sent MaxRetries times.
func (c *Client) sweep(now time.Time) {
	type resend struct {
		msgID uint16
		f     *flow
		bufp  *[]byte
	}
	var resends []resend
	var failed []completion
	c.mu.Lock()
	for msgID, f := range c.flows {
		if now.Sub(f.lastSent) < c.cfg.RetryInterval {
			continue
		}
		p := f.packet()
		if f.retries >= c.cfg.MaxRetries {
			failed = append(failed, c.finishLocked(msgID, f, fmt.Errorf("%w: %s", ErrTimeout, p.Type())))
			continue
		}
		f.retries++
		f.lastSent = now
		f.pub.Flags.DUP = true
		if s, ok := p.(*Subscribe); ok {
			s.Flags.DUP = true
		}
		c.stats.Retransmissions++
		resends = append(resends, resend{msgID, f, marshal(p)})
	}
	c.mu.Unlock()
	for _, r := range resends {
		if err := c.write(r.bufp); err != nil {
			c.fail(r.msgID, r.f, err)
		}
	}
	for _, cm := range failed {
		c.report(cm)
	}
}

// keepalive checks a connected session's liveness at now. A gateway that
// died without a goodbye is pure silence: a crashed node's endpoint
// swallows datagrams, so sends keep "succeeding" while nothing ever comes
// back. The session is declared down after the same 1.5x keepalive grace
// the broker applies to clients, so reconnect loops (translator session
// supervisors, cluster links) fail over on node death instead of waiting
// for the next publish to exhaust its retries. Otherwise, at most once per
// interval since the last ping, the client pings when idle (classic
// keepalive) but also when it is sending without hearing back: a QoS
// 0-only stream (e.g. cluster heartbeats) refreshes lastSend forever and
// would otherwise suppress the ping that liveness depends on. It reports
// whether it pinged.
func (c *Client) keepalive(now time.Time, interval time.Duration, pinged time.Time) bool {
	c.mu.Lock()
	idle := now.Sub(c.lastSend)
	silent := now.Sub(c.lastRecv)
	connected := c.connected
	c.mu.Unlock()
	switch {
	case !connected:
		return false
	case silent > c.cfg.KeepAlive+c.cfg.KeepAlive/2:
		c.sessionDown(fmt.Errorf("%w: gateway silent for %v", ErrTimeout, silent.Round(time.Millisecond)))
		return false
	case now.Sub(pinged) < interval || idle < interval && silent < interval:
		return false
	}
	// Fire-and-forget: the PINGRESP only refreshes lastRecv.
	_ = c.send(&Pingreq{})
	return true
}

// Subscribe registers handler for a topic name or wildcard filter. The
// handler runs on the client's read goroutine; long work should be handed
// off to another goroutine.
func (c *Client) Subscribe(topic string, qos QoS, handler MessageHandler) error {
	return c.exchange(awaitSuback, handler, func(msgID uint16) Packet {
		return &Subscribe{Flags: Flags{QoS: qos}, MsgID: msgID, TopicName: topic}
	})
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(topic string) error {
	return c.exchange(awaitUnsuback, nil, func(msgID uint16) Packet {
		return &Unsubscribe{MsgID: msgID, TopicName: topic}
	})
}

// Disconnect cleanly ends the session and releases the client.
func (c *Client) Disconnect() error {
	c.mu.Lock()
	wasConnected := c.connected
	c.connected = false
	c.mu.Unlock()
	var err error
	if wasConnected {
		err = c.send(&Disconnect{})
	}
	c.Close()
	return err
}

// Done returns a channel closed when the client is closed (locally or via
// teardown after a fatal socket error).
func (c *Client) Done() <-chan struct{} { return c.done }

// sessionDown fires the OnDisconnect hook exactly once, unless the client
// is being closed locally.
func (c *Client) sessionDown(err error) {
	c.mu.Lock()
	if c.closed || c.downNotified {
		c.mu.Unlock()
		return
	}
	c.downNotified = true
	cb := c.cfg.OnDisconnect
	c.mu.Unlock()
	if cb != nil {
		go cb(err)
	}
}

// WithContext runs op — a sequence of blocking protocol exchanges on c
// (Connect, RegisterTopic, Subscribe, ...) — and bounds it by ctx: if the
// context expires first, the client is force-closed (which fails the
// in-flight exchange with ErrClosed) and the context error is returned.
// With a background context, op runs inline with no extra goroutine.
func (c *Client) WithContext(ctx context.Context, op func() error) error {
	if ctx == nil || ctx.Done() == nil {
		return op()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- op() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		c.Close()
		<-errc // the closed client fails the exchange promptly
		return ctx.Err()
	}
}

// Close releases resources without the protocol goodbye. Every exchange
// still in flight completes with ErrClosed before Close returns.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.connected = false
	c.mu.Unlock()
	close(c.done)
	c.conn.Close()
	c.wg.Wait()
	// The loops have stopped and closed admits no new flow: fail what is
	// left in the table.
	c.mu.Lock()
	failed := make([]completion, 0, len(c.flows))
	for msgID, f := range c.flows {
		failed = append(failed, c.finishLocked(msgID, f, ErrClosed))
	}
	c.mu.Unlock()
	for _, cm := range failed {
		c.report(cm)
	}
}

// AddrPortReader is the allocation-free read a *net.UDPConn offers:
// ReadFrom allocates a *net.UDPAddr for every datagram, this returns the
// source as a value. The client and the broker read through it when their
// socket has it; a wrapping PacketConn opts in by implementing it.
type AddrPortReader interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
}

// UnmapAddrPort returns ap with an IPv4-mapped IPv6 address unmapped, the
// form to compare sources in: a dual-stack socket reports IPv4 peers as
// ::ffff:a.b.c.d.
func UnmapAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	buf := make([]byte, 65536)
	// Read source addresses as values when the socket allows it and the
	// gateway has a UDP address to compare them with.
	apr, _ := c.conn.(AddrPortReader)
	var gw netip.AddrPort
	if g, ok := c.gwAddr.(*net.UDPAddr); ok && apr != nil {
		gw = UnmapAddrPort(g.AddrPort())
	}
	for {
		select {
		case <-c.done:
			return
		default:
		}
		// No per-read deadline: Close closes the socket, which unblocks
		// the read.
		var n int
		var err error
		var fromGW bool
		if gw.IsValid() {
			var ap netip.AddrPort
			n, ap, err = apr.ReadFromUDPAddrPort(buf)
			fromGW = UnmapAddrPort(ap) == gw
		} else {
			var addr net.Addr
			n, addr, err = c.conn.ReadFrom(buf)
			fromGW = err == nil && c.fromGateway(addr)
		}
		if err != nil {
			c.sessionDown(fmt.Errorf("mqttsn: read: %w", err))
			return
		}
		if !fromGW {
			continue
		}
		pkt, err := Unmarshal(buf[:n])
		if err != nil {
			continue // drop malformed datagrams
		}
		c.mu.Lock()
		c.stats.PacketsReceived++
		c.stats.BytesReceived += uint64(n)
		c.lastRecv = time.Now()
		c.mu.Unlock()
		c.dispatch(pkt)
	}
}

// fromGateway reports whether a datagram came from the gateway. UDP
// addresses are compared field by field: formatting both as strings costs
// several allocations per datagram.
func (c *Client) fromGateway(addr net.Addr) bool {
	if a, ok := addr.(*net.UDPAddr); ok {
		if g, ok := c.gwAddr.(*net.UDPAddr); ok {
			return a.Port == g.Port && a.Zone == g.Zone && a.IP.Equal(g.IP)
		}
	}
	return addr.String() == c.gwAddr.String()
}

func (c *Client) dispatch(pkt Packet) {
	switch p := pkt.(type) {
	case *Connack:
		c.advance(CONNACK, 0, 0, p.ReturnCode)
	case *Regack:
		c.advance(REGACK, p.MsgID, p.TopicID, p.ReturnCode)
	case *Suback:
		c.advance(SUBACK, p.MsgID, p.TopicID, p.ReturnCode)
	case *Unsuback:
		c.advance(UNSUBACK, p.MsgID, 0, Accepted)
	case *Puback:
		c.advance(PUBACK, p.MsgID, 0, p.ReturnCode)
	case *Pubrec:
		c.advance(PUBREC, p.MsgID, 0, Accepted)
	case *Pubcomp:
		c.advance(PUBCOMP, p.MsgID, 0, Accepted)
	case *Register:
		// Broker informs us of a topic id (wildcard subscription match).
		c.mu.Lock()
		c.setTopicLocked(p.TopicName, p.TopicID)
		c.mu.Unlock()
		_ = c.send(&Regack{TopicID: p.TopicID, MsgID: p.MsgID, ReturnCode: Accepted})
	case *Publish:
		c.handleInboundPublish(p)
	case *Pubrel:
		c.mu.Lock()
		payload, ok := c.inbound2[p.MsgID]
		delete(c.inbound2, p.MsgID)
		var topic string
		if ok {
			topic = c.topicName[u16FromPayload(payload)]
		}
		c.mu.Unlock()
		// Deliver BEFORE acknowledging the release, like the QoS 1
		// deliver-before-PUBACK path: once the broker sees our PUBCOMP
		// the frame has passed through every handler. The cluster's
		// partition drain counts broker-side outbound state, so an
		// acked-but-undelivered frame would let a migration cut ahead
		// of it and break per-topic ordering.
		if ok {
			c.deliver(topic, payload[2:])
		}
		_ = c.send(&Pubcomp{msgIDOnly{MsgID: p.MsgID}})
	case *Disconnect:
		c.mu.Lock()
		c.connected = false
		c.mu.Unlock()
		c.sessionDown(fmt.Errorf("mqttsn: broker disconnected the session"))
	}
}

// inbound QoS2 storage packs the topic id in front of the payload so the
// topic survives until PUBREL.
func packInbound(topicID uint16, data []byte) []byte {
	out := make([]byte, 2+len(data))
	out[0], out[1] = byte(topicID>>8), byte(topicID)
	copy(out[2:], data)
	return out
}

func u16FromPayload(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

func (c *Client) handleInboundPublish(p *Publish) {
	c.mu.Lock()
	topic := c.topicName[p.TopicID]
	c.mu.Unlock()
	switch p.Flags.QoS {
	case QoS0, QoSMinusOne:
		c.deliver(topic, p.Data)
	case QoS1:
		c.deliver(topic, p.Data)
		_ = c.send(&Puback{TopicID: p.TopicID, MsgID: p.MsgID, ReturnCode: Accepted})
	case QoS2:
		c.mu.Lock()
		if _, dup := c.inbound2[p.MsgID]; !dup {
			c.inbound2[p.MsgID] = packInbound(p.TopicID, p.Data)
			ReapInbound2(c.inbound2, &c.inbound2Reap, p.MsgID)
		}
		c.mu.Unlock()
		_ = c.send(&Pubrec{msgIDOnly{MsgID: p.MsgID}})
	}
}

// deliver routes an inbound message to the matching subscription handlers.
func (c *Client) deliver(topic string, payload []byte) {
	c.mu.Lock()
	var handlers []MessageHandler
	for filter, h := range c.subs {
		if TopicMatches(filter, topic) {
			handlers = append(handlers, h)
		}
	}
	c.stats.MessagesHandled++
	c.mu.Unlock()
	for _, h := range handlers {
		h(topic, payload)
	}
}

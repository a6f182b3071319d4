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
	// ErrTooLarge fails a PublishAsync whose payload is over MaxPayload.
	ErrTooLarge = errors.New("mqttsn: payload too large for one datagram")
)

// MaxPayload is the largest PUBLISH payload that fits one IPv4 UDP
// datagram: 65,507 bytes less the extended PUBLISH header AppendPacket
// writes (9 bytes).
var MaxPayload = 65507 - (len(AppendPacket(nil, &Publish{Data: make([]byte, 256)})) - 256)

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
	// live in the client's one flow table, in the order they started: the
	// read loop advances them on their acknowledgements and the timer loop
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

// clientFlow is what a flow in the client's table holds. Whoever removes
// the flow from the table completes it, so each flow completes exactly
// once.
type clientFlow struct {
	pub     Publish        // a publish flow's PUBLISH, re-sent with DUP until its first acknowledgement
	req     Packet         // a control request, re-sent as is (SUBSCRIBE with DUP); nil for a publish
	handler MessageHandler // a SUBSCRIBE's handler, installed on its SUBACK
	done    func(error)
	// serial tells the flow from a later one that reuses its msgID after
	// the counter wraps.
	serial uint64
}

// packet is the flow's request, or its PUBLISH.
func (cf *clientFlow) packet() Packet {
	if cf.req != nil {
		return cf.req
	}
	return &cf.pub
}

// completion is a finished flow and its outcome, reported outside
// Client.mu.
type completion struct {
	f   clientFlow
	err error
}

// outgoing is a flow's packet, marshalled under Client.mu and written
// once mu is released.
type outgoing struct {
	msgID  uint16
	serial uint64
	bufp   *[]byte
}

// Client is an MQTT-SN client (the device side of ProvLight's transport).
// All methods are safe for concurrent use.
type Client struct {
	cfg    ClientConfig
	conn   net.PacketConn
	gwAddr net.Addr

	mu        sync.Mutex
	connected bool
	closed    bool
	topicIDs  map[string]uint16 // topic name -> registered id
	topicName map[uint16]string // reverse map (incl. broker REGISTERs)
	subs      map[string]MessageHandler
	lastSend  time.Time
	lastRecv  time.Time // last packet from the gateway (liveness)

	// Stats counts protocol activity (used by tests and the evaluation).
	stats ClientStats

	// window is the in-flight publish semaphore: one slot per outstanding
	// PublishAsync handshake.
	window chan struct{}

	// flows is the in-flight table, in enqueue order; inbound holds the
	// inbound QoS 2 flows until their PUBREL. serial numbers the flows
	// started, and rel is the PUBREL marshalled last. Guarded by mu.
	flows   Flows[clientFlow]
	inbound Inbound2[inboundMsg]
	serial  uint64
	rel     Pubrel

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
		window:    make(chan struct{}, cfg.InflightWindow),
		flows:     Flows[clientFlow]{RetryInterval: cfg.RetryInterval, MaxRetries: cfg.MaxRetries},
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
// takes msgID 0, which no other flow is given.
func (c *Client) exchange(await MsgType, handler MessageHandler, build func(msgID uint16) Packet) error {
	errc := make(chan error, 1)
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return ErrClosed
	case await == CONNACK && c.flows.Index(0) >= 0:
		c.mu.Unlock()
		return errors.New("mqttsn: connect already in progress")
	}
	out := c.startLocked(await, clientFlow{handler: handler, done: func(err error) { errc <- err }}, build)
	c.mu.Unlock()
	c.flush(out)
	return <-errc
}

// startLocked adds a flow awaiting await that holds cf to the table and
// marshals its first packet: the request build makes for the flow's
// msgID, or, without build, cf's PUBLISH under that msgID. Marshalling
// under mu matters: once mu is released an acknowledgement or Close may
// complete the flow, and a publisher may then reuse its payload. Callers
// hold mu.
func (c *Client) startLocked(await MsgType, cf clientFlow, build func(msgID uint16) Packet) outgoing {
	f := c.flows.Add(await, time.Now())
	c.serial++
	cf.serial, cf.pub.MsgID = c.serial, f.MsgID
	if build != nil {
		cf.req = build(f.MsgID)
	}
	f.Payload = cf
	return outgoing{f.MsgID, cf.serial, marshal(f.Payload.packet())}
}

// flush writes the packets of out and fails the flow of each one the
// socket refused.
func (c *Client) flush(out ...outgoing) {
	for _, o := range out {
		if err := c.write(o.bufp); err != nil {
			c.fail(o.msgID, o.serial, err)
		}
	}
}

// Connect establishes the session.
func (c *Client) Connect() error {
	keepalive := uint16(c.cfg.KeepAlive / time.Second)
	if keepalive == 0 {
		keepalive = 1
	}
	return c.exchange(CONNACK, nil, func(uint16) Packet {
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
	err := c.exchange(REGACK, nil, func(msgID uint16) Packet {
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
// error, or ErrClosed when the client closes first. A payload over
// MaxPayload fails at once with ErrTooLarge, taking no window slot and
// leaving the session up. The call blocks only
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
	if len(payload) > MaxPayload {
		done(fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload)))
		return
	}
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
	out := c.startLocked(PublishAwaits(qos), clientFlow{pub: Publish{Flags: Flags{QoS: qos}, TopicID: topicID, Data: payload}, done: done}, nil)
	c.mu.Unlock()
	c.flush(out)
}

// report releases a finished publish flow's window slot and calls the
// flow's callback.
func (c *Client) report(cm completion) {
	if cm.f.req == nil {
		<-c.window
	}
	cm.f.done(cm.err)
}

// fail completes the flow of msgID with err, unless it has completed
// already: serial tells it from a later flow that reused the msgID.
func (c *Client) fail(msgID uint16, serial uint64, err error) {
	var failed []completion
	c.mu.Lock()
	c.flows.DeleteFunc(func(f Flow[clientFlow]) bool {
		if f.MsgID != msgID || f.Payload.serial != serial {
			return false
		}
		failed = append(failed, completion{f.Payload, err})
		return true
	})
	c.mu.Unlock()
	for _, cm := range failed {
		c.report(cm)
	}
}

// advance moves a flow along on an acknowledgement from the gateway. A
// PUBREC holds its QoS 2 flow and sends the PUBRELs the table releases, in
// enqueue order. Every other awaited acknowledgement completes its flow,
// once settle has applied it to the client's state, so the caller never
// wakes before that state is in place. A PUBACK carrying a rejection
// fails a publish at either QoS, since the gateway refuses a PUBLISH that
// way. An ack that matches no flow awaiting it (a duplicate, or one that
// arrived after the flow ended) is dropped, and so is every ack once the
// client is closing: Close fails what is left.
func (c *Client) advance(typ MsgType, msgID, topicID uint16, code ReturnCode) {
	var obuf [4]outgoing
	out := obuf[:0]
	var cm completion
	c.mu.Lock()
	if !c.closed {
		f, step := c.flows.Advance(typ, msgID, code)
		switch step {
		case Release:
			var rbuf [4]Flow[clientFlow]
			for _, r := range c.flows.Releasable(time.Now(), rbuf[:0]) {
				c.rel.MsgID = r.MsgID
				out = append(out, outgoing{r.MsgID, r.Payload.serial, marshal(&c.rel)})
			}
		case Completed:
			cm = completion{f.Payload, c.settleLocked(&f.Payload, topicID, code)}
		}
	}
	c.mu.Unlock()
	c.flush(out...)
	if cm.f.done != nil {
		c.report(cm)
	}
}

// settleLocked applies a flow's final acknowledgement to the client's
// state and returns the flow's outcome: a publish fails on a refusal,
// CONNACK marks the client connected, REGACK installs the topic id,
// SUBACK the handler, and UNSUBACK removes the subscription. Callers hold
// mu.
func (c *Client) settleLocked(f *clientFlow, topicID uint16, code ReturnCode) error {
	switch r := f.req.(type) {
	case nil:
		if code != Accepted {
			return fmt.Errorf("mqttsn: publish rejected: %s", code)
		}
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
// RetryInterval and fails, with ErrTimeout, every flow that has already
// been re-sent MaxRetries times, both in enqueue order.
func (c *Client) sweep(now time.Time) {
	c.mu.Lock()
	resend, gone := c.flows.Due(now, nil, nil)
	var out []outgoing
	for i := range resend {
		f := &resend[i]
		c.stats.Retransmissions++
		out = append(out, outgoing{f.MsgID, f.Payload.serial, marshal(c.resendPacketLocked(f))})
	}
	var failed []completion
	for i := range gone {
		p := c.resendPacketLocked(&gone[i])
		failed = append(failed, completion{gone[i].Payload, fmt.Errorf("%w: %s", ErrTimeout, p.Type())})
	}
	c.mu.Unlock()
	c.flush(out...)
	for _, cm := range failed {
		c.report(cm)
	}
}

// resendPacketLocked is the packet a due flow re-sends: its PUBLISH with
// DUP set, its PUBREL, or its request (a SUBSCRIBE with DUP set). f is a
// copy of the flow, or, for a PUBREL, the packet is Client.rel, so it must
// be marshalled before mu is released.
func (c *Client) resendPacketLocked(f *Flow[clientFlow]) Packet {
	if f.Await == PUBCOMP {
		c.rel.MsgID = f.MsgID
		return &c.rel
	}
	f.Payload.pub.Flags.DUP = true
	if s, ok := f.Payload.req.(*Subscribe); ok {
		s.Flags.DUP = true
	}
	return f.Payload.packet()
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
// 0-only stream refreshes lastSend forever and would otherwise suppress
// the ping that liveness depends on. It reports whether it pinged.
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
	_ = c.Ping()
	return true
}

// Ping sends one PINGREQ, fire-and-forget: the gateway's PINGRESP only
// refreshes LastRecv.
func (c *Client) Ping() error { return c.send(&Pingreq{}) }

// LastRecv is when the last packet from the gateway arrived, or when the
// session was accepted if nothing has arrived since; zero before.
func (c *Client) LastRecv() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastRecv
}

// Subscribe registers handler for a topic name or wildcard filter. The
// handler runs on the client's read goroutine; long work should be handed
// off to another goroutine.
func (c *Client) Subscribe(topic string, qos QoS, handler MessageHandler) error {
	return c.exchange(SUBACK, handler, func(msgID uint16) Packet {
		return &Subscribe{Flags: Flags{QoS: qos}, MsgID: msgID, TopicName: topic}
	})
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(topic string) error {
	return c.exchange(UNSUBACK, nil, func(msgID uint16) Packet {
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
	// left in the table, in enqueue order.
	var failed []completion
	c.mu.Lock()
	c.flows.DeleteFunc(func(f Flow[clientFlow]) bool {
		failed = append(failed, completion{f.Payload, ErrClosed})
		return true
	})
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
		in, ok := c.inbound.Release(p.MsgID)
		c.mu.Unlock()
		// Deliver BEFORE acknowledging the release, like the QoS 1
		// deliver-before-PUBACK path: once the broker sees our PUBCOMP
		// the frame has passed through every handler. The cluster's
		// partition drain counts broker-side outbound state, so an
		// acked-but-undelivered frame would let a migration cut ahead
		// of it and break per-topic ordering.
		if ok {
			c.deliver(in.topic, in.data)
		}
		_ = c.send(&Pubcomp{msgIDOnly{MsgID: p.MsgID}})
	case *Disconnect:
		c.mu.Lock()
		c.connected = false
		c.mu.Unlock()
		c.sessionDown(fmt.Errorf("mqttsn: broker disconnected the session"))
	}
}

// inboundMsg is an inbound QoS 2 message held until its PUBREL.
type inboundMsg struct {
	topic string
	data  []byte
}

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
		c.inbound.Receive(p.MsgID, inboundMsg{topic, p.Data})
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

package mqttsn

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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
	// Conn optionally supplies the packet connection to use (e.g. a
	// netem-shaped one). If nil, Transport (or UDP) opens one.
	Conn net.PacketConn
	// Transport, when set and Conn is nil, dials the gateway over an
	// alternate packet substrate (in-process loopback, TCP stream). The
	// default is plain UDP. With Conn set it is ignored: the borrowed
	// conn's Gateway is resolved as a UDP address.
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
	// once via PublishAsync (and Publish, which wraps it). Each in-flight
	// message runs its own QoS 1/2 handshake with a per-message retry
	// timer; the waiters map matches acknowledgements by msgID. 1 restores
	// strictly serial stop-and-wait publishing. Defaults to 16.
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

// pendingSub tracks an in-flight SUBSCRIBE exchange.
type pendingSub struct {
	topic   string
	handler MessageHandler
}

type ackKey struct {
	typ   MsgType
	msgID uint16
}

// Client is an MQTT-SN client (the device side of ProvLight's transport).
// All methods are safe for concurrent use.
type Client struct {
	cfg     ClientConfig
	conn    net.PacketConn
	gwAddr  net.Addr
	ownConn bool

	msgID atomic.Uint32

	mu        sync.Mutex
	connected bool
	closed    bool
	waiters   map[ackKey]chan Packet
	topicIDs  map[string]uint16 // topic name -> registered id
	topicName map[uint16]string // reverse map (incl. broker REGISTERs)
	subs      map[string]MessageHandler
	inbound2  map[uint16][]byte // inbound QoS2 msgID -> payload pending PUBREL
	lastSend  time.Time
	lastRecv  time.Time // last packet from the gateway (liveness)

	// pending exchanges consulted by the read loop so that topic/handler
	// state is installed *before* the ack wakes the caller; otherwise a
	// publication racing right behind the SUBACK/REGACK could be dropped.
	pendingSubs map[uint16]pendingSub // SUBSCRIBE msgID -> topic+handler
	pendingRegs map[uint16]string     // REGISTER msgID -> topic name

	// Stats counts protocol activity (used by tests and the evaluation).
	stats ClientStats

	// window is the in-flight publish semaphore: one slot per outstanding
	// PublishAsync handshake.
	window chan struct{}

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

// NewClient creates a client; call Connect before publishing at QoS >= 0.
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
	conn := cfg.Conn
	var gwAddr net.Addr
	ownConn := false
	if conn == nil {
		var err error
		if cfg.Transport != nil {
			conn, gwAddr, err = cfg.Transport.Dial(cfg.Gateway)
			if err != nil {
				return nil, fmt.Errorf("mqttsn: dial gateway %q: %w", cfg.Gateway, err)
			}
		} else {
			conn, err = net.ListenPacket("udp", ":0")
			if err != nil {
				return nil, fmt.Errorf("mqttsn: open socket: %w", err)
			}
		}
		ownConn = true
	} else {
		// A borrowed conn may carry a stale read deadline from a previous
		// client's Close (Close unblocks its read loop that way); clear it
		// so sequential session reuse over one socket works.
		_ = conn.SetReadDeadline(time.Time{})
	}
	// A subscriber session can receive a full broker send-window in one
	// burst; grow the receive buffer past the kernel default so the burst
	// is absorbed instead of recovered by timed retransmissions.
	// Best-effort: not every PacketConn supports it.
	if rb, ok := conn.(interface{ SetReadBuffer(int) error }); ok {
		_ = rb.SetReadBuffer(1 << 20)
	}
	if gwAddr == nil {
		var err error
		gwAddr, err = net.ResolveUDPAddr("udp", cfg.Gateway)
		if err != nil {
			if ownConn {
				conn.Close()
			}
			return nil, fmt.Errorf("mqttsn: resolve gateway %q: %w", cfg.Gateway, err)
		}
	}
	c := &Client{
		cfg:         cfg,
		conn:        conn,
		gwAddr:      gwAddr,
		ownConn:     ownConn,
		waiters:     map[ackKey]chan Packet{},
		topicIDs:    map[string]uint16{},
		topicName:   map[uint16]string{},
		subs:        map[string]MessageHandler{},
		inbound2:    map[uint16][]byte{},
		pendingSubs: map[uint16]pendingSub{},
		pendingRegs: map[uint16]string{},
		window:      make(chan struct{}, cfg.InflightWindow),
		done:        make(chan struct{}),
	}
	c.wg.Add(1)
	go c.readLoop()
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

func (c *Client) nextMsgID() uint16 {
	for {
		id := uint16(c.msgID.Add(1))
		if id != 0 {
			return id
		}
	}
}

func (c *Client) send(p Packet) error {
	bufp := sendBufPool.Get().(*[]byte)
	data := AppendPacket((*bufp)[:0], p)
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

// await registers interest in an acknowledgement before sending, so the
// response cannot be lost to a race.
func (c *Client) await(key ackKey) chan Packet {
	ch := make(chan Packet, 1)
	c.mu.Lock()
	c.waiters[key] = ch
	c.mu.Unlock()
	return ch
}

func (c *Client) cancelAwait(key ackKey) {
	c.mu.Lock()
	delete(c.waiters, key)
	c.mu.Unlock()
}

// request sends p and waits for the matching acknowledgement, driving
// retransmissions from a per-message retry timer. Many requests with
// distinct msgIDs may run concurrently; the waiters map matches each
// acknowledgement to its exchange. markDup marks retransmissions when
// non-nil.
func (c *Client) request(p Packet, key ackKey, markDup func()) (Packet, error) {
	ch := c.await(key)
	if err := c.send(p); err != nil {
		c.cancelAwait(key)
		return nil, err
	}
	return c.awaitAck(p, key, ch, markDup)
}

// awaitAck waits on an already-sent, already-registered exchange,
// retransmitting p on its retry timer. It consumes the waiter entry.
func (c *Client) awaitAck(p Packet, key ackKey, ch chan Packet, markDup func()) (Packet, error) {
	defer c.cancelAwait(key)
	timer := time.NewTimer(c.cfg.RetryInterval)
	defer timer.Stop()
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if markDup != nil {
				markDup()
			}
			c.mu.Lock()
			c.stats.Retransmissions++
			c.mu.Unlock()
			if err := c.send(p); err != nil {
				return nil, err
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(c.cfg.RetryInterval)
		}
		select {
		case ack := <-ch:
			return ack, nil
		case <-timer.C:
		case <-c.done:
			return nil, ErrClosed
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrTimeout, p.Type())
}

// Connect establishes the session.
func (c *Client) Connect() error {
	flags := Flags{CleanSession: c.cfg.CleanSession}
	keepalive := uint16(c.cfg.KeepAlive / time.Second)
	if keepalive == 0 {
		keepalive = 1
	}
	conn := &Connect{Flags: flags, Duration: keepalive, ClientID: c.cfg.ClientID}
	ack, err := c.request(conn, ackKey{CONNACK, 0}, nil)
	if err != nil {
		return err
	}
	ca := ack.(*Connack)
	if ca.ReturnCode == RejectedCongestion {
		return ErrCongestion
	}
	if ca.ReturnCode != Accepted {
		return &ConnectRejectedError{Code: ca.ReturnCode}
	}
	c.mu.Lock()
	// A concurrent Close (a supervisor abandoning an in-flight dial) may
	// have won the race against the CONNACK; adding to the WaitGroup
	// after its Wait started would be both a race and a leak.
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.connected = true
	c.lastRecv = time.Now()
	c.wg.Add(1)
	c.mu.Unlock()
	go c.keepaliveLoop()
	return nil
}

// RegisterTopic obtains (and caches) the gateway's topic id for a name.
func (c *Client) RegisterTopic(topic string) (uint16, error) {
	c.mu.Lock()
	if id, ok := c.topicIDs[topic]; ok {
		c.mu.Unlock()
		return id, nil
	}
	connected := c.connected
	c.mu.Unlock()
	if !connected {
		return 0, ErrNotConnected
	}
	msgID := c.nextMsgID()
	c.mu.Lock()
	c.pendingRegs[msgID] = topic
	c.mu.Unlock()
	reg := &Register{MsgID: msgID, TopicName: topic}
	ack, err := c.request(reg, ackKey{REGACK, msgID}, nil)
	c.mu.Lock()
	delete(c.pendingRegs, msgID)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	ra := ack.(*Regack)
	if ra.ReturnCode != Accepted {
		return 0, fmt.Errorf("mqttsn: register %q rejected: %s", topic, ra.ReturnCode)
	}
	return ra.TopicID, nil
}

// Publish sends payload to topic at the given QoS level. The call blocks
// until the QoS flow completes (QoS 2: PUBLISH/PUBREC/PUBREL/PUBCOMP,
// guaranteeing exactly-once receipt at the gateway). It is a blocking
// wrapper around PublishAsync and therefore shares the in-flight window.
func (c *Client) Publish(topic string, payload []byte, qos QoS) error {
	return <-c.PublishAsync(topic, payload, qos)
}

// PublishAsync starts a publish handshake and returns a 1-buffered channel
// that receives the flow's final error (nil on success). The call blocks
// only while the in-flight window is full, so a sender can keep
// InflightWindow handshakes running concurrently instead of paying the
// QoS 2 double round trip per message.
//
// The initial PUBLISH is transmitted before PublishAsync returns, so a
// single caller's messages reach the gateway in submission order; the rest
// of the handshake (acks, retries on the per-message timer, the QoS 2
// PUBREL leg) runs on a per-message goroutine, matched to inbound
// acknowledgements by msgID. Flows may therefore *complete* out of
// submission order.
func (c *Client) PublishAsync(topic string, payload []byte, qos QoS) <-chan error {
	done := make(chan error, 1)
	topicID, err := c.RegisterTopic(topic)
	if err != nil {
		done <- err
		return done
	}
	switch qos {
	case QoS0, QoSMinusOne, QoS1, QoS2:
	default:
		done <- fmt.Errorf("mqttsn: unsupported QoS %d", qos)
		return done
	}
	// Acquire a window slot; this is where PublishAsync blocks when the
	// window is full.
	select {
	case c.window <- struct{}{}:
	case <-c.done:
		done <- ErrClosed
		return done
	}
	c.mu.Lock()
	c.stats.PublishesSent++
	c.mu.Unlock()

	if qos == QoS0 || qos == QoSMinusOne {
		pub := &Publish{Flags: Flags{QoS: qos}, TopicID: topicID, Data: payload}
		err := c.send(pub)
		<-c.window
		done <- err
		return done
	}

	msgID := c.nextMsgID()
	pub := &Publish{Flags: Flags{QoS: qos}, TopicID: topicID, MsgID: msgID, Data: payload}
	firstAck := PUBACK
	if qos == QoS2 {
		firstAck = PUBREC
	}
	key := ackKey{firstAck, msgID}
	ch := c.await(key)
	if err := c.send(pub); err != nil {
		c.cancelAwait(key)
		<-c.window
		done <- err
		return done
	}
	go func() {
		done <- c.finishPublish(pub, key, ch, msgID)
		<-c.window
	}()
	return done
}

// finishPublish completes an in-flight handshake whose initial PUBLISH is
// already on the wire.
func (c *Client) finishPublish(pub *Publish, key ackKey, ch chan Packet, msgID uint16) error {
	ack, err := c.awaitAck(pub, key, ch, func() { pub.Flags.DUP = true })
	if err != nil {
		return err
	}
	if pub.Flags.QoS == QoS1 {
		if pa := ack.(*Puback); pa.ReturnCode != Accepted {
			return fmt.Errorf("mqttsn: publish rejected: %s", pa.ReturnCode)
		}
		return nil
	}
	rel := &Pubrel{msgIDOnly{MsgID: msgID}}
	if _, err := c.request(rel, ackKey{PUBCOMP, msgID}, nil); err != nil {
		return err
	}
	return nil
}

// Subscribe registers handler for a topic name or wildcard filter. The
// handler runs on the client's read goroutine; long work should be handed
// off to another goroutine.
func (c *Client) Subscribe(topic string, qos QoS, handler MessageHandler) error {
	msgID := c.nextMsgID()
	c.mu.Lock()
	c.pendingSubs[msgID] = pendingSub{topic: topic, handler: handler}
	c.mu.Unlock()
	sub := &Subscribe{Flags: Flags{QoS: qos}, MsgID: msgID, TopicName: topic}
	ack, err := c.request(sub, ackKey{SUBACK, msgID}, func() { sub.Flags.DUP = true })
	c.mu.Lock()
	delete(c.pendingSubs, msgID)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	sa := ack.(*Suback)
	if sa.ReturnCode != Accepted {
		return fmt.Errorf("mqttsn: subscribe %q rejected: %s", topic, sa.ReturnCode)
	}
	return nil
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(topic string) error {
	msgID := c.nextMsgID()
	unsub := &Unsubscribe{MsgID: msgID, TopicName: topic}
	if _, err := c.request(unsub, ackKey{UNSUBACK, msgID}, nil); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.subs, topic)
	c.mu.Unlock()
	return nil
}

// Ping sends a PINGREQ and waits for the PINGRESP.
func (c *Client) Ping() error {
	_, err := c.request(&Pingreq{}, ackKey{PINGRESP, 0}, nil)
	return err
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

// Close releases resources without the protocol goodbye.
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
	if c.ownConn {
		c.conn.Close()
	} else {
		// Unblock the read loop promptly.
		c.conn.SetReadDeadline(time.Now())
	}
	c.wg.Wait()
}

func (c *Client) keepaliveLoop() {
	defer c.wg.Done()
	interval := c.cfg.KeepAlive / 2
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			c.mu.Lock()
			idle := time.Since(c.lastSend)
			silent := time.Since(c.lastRecv)
			connected := c.connected
			c.mu.Unlock()
			if !connected {
				continue
			}
			// A gateway that died without a goodbye is pure silence: a
			// crashed node's endpoint swallows datagrams, so sends keep
			// "succeeding" while nothing ever comes back. Declare the
			// session down after the same 1.5x keepalive grace the broker
			// applies to clients, so reconnect loops (translator session
			// supervisors, cluster links) fail over on node death instead
			// of waiting for the next publish to exhaust its retries.
			if silent > c.cfg.KeepAlive+c.cfg.KeepAlive/2 {
				c.sessionDown(fmt.Errorf("%w: gateway silent for %v", ErrTimeout, silent.Round(time.Millisecond)))
				continue
			}
			// Ping when idle (classic keepalive) but also when we are
			// sending without hearing back — a QoS 0-only stream (e.g.
			// cluster heartbeats) refreshes lastSend forever and would
			// otherwise suppress the ping that liveness depends on.
			if idle >= interval || silent >= interval {
				// Fire-and-forget ping; response handled by readLoop.
				_ = c.send(&Pingreq{})
			}
		}
	}
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	buf := make([]byte, 65536)
	for {
		select {
		case <-c.done:
			return
		default:
		}
		// No per-read deadline: Close() either closes the socket or sets
		// an immediate deadline, both of which unblock ReadFrom.
		n, addr, err := c.conn.ReadFrom(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				select {
				case <-c.done:
					return
				default:
					continue
				}
			}
			c.sessionDown(fmt.Errorf("mqttsn: read: %w", err))
			return
		}
		if addr.String() != c.gwAddr.String() {
			continue // not our gateway
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

// deliverAck hands pkt to the waiter registered under key, if any.
func (c *Client) deliverAck(key ackKey, pkt Packet) {
	c.mu.Lock()
	ch, ok := c.waiters[key]
	if ok {
		delete(c.waiters, key)
	}
	c.mu.Unlock()
	if ok {
		select {
		case ch <- pkt:
		default:
		}
	}
}

func (c *Client) dispatch(pkt Packet) {
	switch p := pkt.(type) {
	case *Connack:
		c.deliverAck(ackKey{CONNACK, 0}, p)
	case *Regack:
		// Install the topic mapping before waking the caller so an inbound
		// PUBLISH racing behind the REGACK resolves its topic name.
		c.mu.Lock()
		if topic, ok := c.pendingRegs[p.MsgID]; ok && p.ReturnCode == Accepted {
			c.topicIDs[topic] = p.TopicID
			c.topicName[p.TopicID] = topic
		}
		c.mu.Unlock()
		c.deliverAck(ackKey{REGACK, p.MsgID}, p)
	case *Suback:
		// Install the handler before waking the caller so a publication
		// delivered right behind the SUBACK is not dropped.
		c.mu.Lock()
		if ps, ok := c.pendingSubs[p.MsgID]; ok && p.ReturnCode == Accepted {
			c.subs[ps.topic] = ps.handler
			if p.TopicID != 0 {
				c.topicIDs[ps.topic] = p.TopicID
				c.topicName[p.TopicID] = ps.topic
			}
		}
		c.mu.Unlock()
		c.deliverAck(ackKey{SUBACK, p.MsgID}, p)
	case *Unsuback:
		c.deliverAck(ackKey{UNSUBACK, p.MsgID}, p)
	case *Puback:
		c.deliverAck(ackKey{PUBACK, p.MsgID}, p)
	case *Pubrec:
		c.deliverAck(ackKey{PUBREC, p.MsgID}, p)
	case *Pubcomp:
		c.deliverAck(ackKey{PUBCOMP, p.MsgID}, p)
	case *Pingresp:
		c.deliverAck(ackKey{PINGRESP, 0}, p)
	case *Register:
		// Broker informs us of a topic id (wildcard subscription match).
		c.mu.Lock()
		c.topicName[p.TopicID] = p.TopicName
		c.topicIDs[p.TopicName] = p.TopicID
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

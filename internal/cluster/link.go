package cluster

import (
	"errors"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/resilience"
)

// link is one directed inter-node forwarding channel: an MQTT-SN client
// session on the peer broker under the bridge prefix (so the peer's
// routing never echoes frames back), carrying two flows:
//
//   - outbound publishes: frames this node releases for partitions the
//     peer owns, each in its own PUBLISH at the frame's original QoS
//     (QoS 2 from memory-mode devices, QoS 1 from spooled ones), sent in
//     submission order through an mqttsn.Outbox; the peer routes each as
//     its PUBLISH arrives, so per-topic order holds end to end on a
//     loss-free link, and a lost PUBLISH is overtaken by the frames
//     behind it;
//   - inbound subscriptions: the node's propagated individual filters,
//     delivered by the peer when IT releases a matching frame and
//     re-injected into the local broker for local subscribers only.
//
// The link's session is supervised (mqttsn.Session), each dial stamping
// the node's current epoch into the bridge client id. The outbox keeps
// every frame until its QoS handshake completes and re-sends the kept
// ones, in send order and through the window, at the start of the next
// session (at-least-once across a link outage, per-topic order kept).
// Two exits are terminal: the link being closed, and the peer refusing
// the dial with RejectedInvalidID — the membership gate's verdict that
// this node has been fenced out, which demotes the whole node.
//
// Every packet the link hears from the peer (an ack, a propagated frame,
// the PINGRESP to the node's probe) proves the peer alive; how long it
// has heard nothing is the failure detector's only input.
type link struct {
	n       *Node
	peer    string
	session *mqttsn.Session
	out     *mqttsn.Outbox[bufFrame]

	done chan struct{}
	once sync.Once

	ready     chan struct{} // closed once the first session is set up
	readyOnce sync.Once

	mu     sync.Mutex
	fenced bool
	epoch  uint64 // epoch stamped into the current session's client id
	// heard is when the last ended session last heard the peer, or when
	// the link was created: a link that is down keeps ageing from it.
	heard time.Time
}

// Bridge link sizing: in-flight frames per session, and the submission
// queue (a full queue applies backpressure to the releasing broker).
// Without the failure detector the sessions keep alive at linkKeepAlive;
// with it, at SuspectTimeout, so a silent peer's session ends at 1.5×
// SuspectTimeout, after the detector suspected the peer and never before.
const (
	linkWindow    = 64
	linkQueue     = 1024
	linkKeepAlive = 30 * time.Second
)

// LinkState labels a link's session for stats.
type LinkState string

const (
	// LinkConnected: a live session is established.
	LinkConnected LinkState = "connected"
	// LinkDown: no session; the supervisor is redialing with backoff.
	LinkDown LinkState = "down"
	// LinkFenced: the peer's membership gate refused the dial — this
	// node has been removed from the cluster and is demoting.
	LinkFenced LinkState = "fenced"
)

// newLink starts a supervised link; the first dial happens on the
// session's goroutine, so construction never blocks and never fails.
func newLink(n *Node, peer, addr string) *link {
	l := &link{
		n:     n,
		peer:  peer,
		done:  make(chan struct{}),
		ready: make(chan struct{}),
		heard: time.Now(),
	}
	l.out = mqttsn.NewOutbox(linkQueue, packFrame, l.released)
	cfg := n.c.cfg
	keepAlive := linkKeepAlive
	if cfg.HeartbeatInterval > 0 {
		keepAlive = cfg.SuspectTimeout
	}
	var dialEpoch uint64 // read and written only on the session's goroutine
	l.session = mqttsn.NewSession(mqttsn.SessionConfig{
		Client: mqttsn.ClientConfig{
			Gateway:        addr,
			Transport:      n.c.tr,
			KeepAlive:      keepAlive,
			RetryInterval:  cfg.RetryInterval,
			MaxRetries:     cfg.MaxRetries,
			InflightWindow: linkWindow,
			CleanSession:   true,
		},
		ClientID: func() string {
			dialEpoch = n.currentEpoch()
			return bridgeClientID(n.id, dialEpoch)
		},
		Setup: func(mc *mqttsn.Client) error {
			l.mu.Lock()
			l.epoch = dialEpoch
			l.mu.Unlock()
			for _, filter := range n.filterSnapshot() {
				l.subscribeOn(mc, filter)
			}
			l.readyOnce.Do(func() { close(l.ready) })
			return nil
		},
		Serve: func(mc *mqttsn.Client, down <-chan struct{}) {
			l.out.Serve(mc, down)
			l.mu.Lock()
			l.heard = mc.LastRecv()
			l.mu.Unlock()
		},
		Backoff:     resilience.Backoff{Min: 50 * time.Millisecond, Max: 2 * time.Second},
		OnDialError: l.dialFailed,
	})
	l.session.Start()
	return l
}

// dialFailed logs a failed dial (throttled) and turns the peer's
// RejectedInvalidID refusal into the permanent fencing exit.
func (l *link) dialFailed(attempt int, err error) error {
	var rej *mqttsn.ConnectRejectedError
	if errors.As(err, &rej) && rej.Code == mqttsn.RejectedInvalidID {
		l.fence()
		return resilience.Permanent(err)
	}
	if attempt == 1 || attempt%8 == 0 {
		l.n.c.logf("cluster: %s->%s: dial: %v (attempt %d)", l.n.id, l.peer, err, attempt)
	}
	return err
}

// packFrame sends each frame in a PUBLISH of its own, at the QoS it
// arrived with.
func packFrame(queue []bufFrame) (int, mqttsn.Message, error) {
	f := queue[0].f
	return 1, mqttsn.Message{Topic: f.Topic, Payload: f.Payload, QoS: f.QoS}, nil
}

// released settles frames the outbox let go: their forward hop
// completed, or (err set) no session can carry them, which loses them.
func (l *link) released(frames []bufFrame, _ mqttsn.Message, err error) {
	for _, qf := range frames {
		if err != nil {
			l.n.linkLost.Add(1)
			l.n.c.logf("cluster: %s->%s: forward %q: %v (lost)", l.n.id, l.peer, qf.f.Topic, err)
		}
		l.n.decPending(qf.part)
	}
}

// fence handles the terminal RejectedInvalidID dial: this node is no
// longer a member. The kept and queued frames are discarded (their
// partitions' new owners serve the streams now; redelivering from a
// fenced node is exactly the fork fencing exists to prevent) and the node
// demotes.
func (l *link) fence() {
	l.mu.Lock()
	l.fenced = true
	l.mu.Unlock()
	dropped := l.out.Take()
	for _, qf := range dropped {
		l.n.decPending(qf.part)
	}
	l.n.linkLost.Add(uint64(len(dropped)))
	l.n.c.logf("cluster: %s->%s: fenced by peer (not a member); demoting", l.n.id, l.peer)
	go l.n.demote()
}

// subscribe propagates a local individual filter to the peer: frames the
// peer releases matching it come back through this session and are
// injected for this node's local subscribers. While the link is down the
// call is a no-op — every dial re-subscribes the full filter snapshot.
func (l *link) subscribe(filter string) {
	if mc := l.session.Client(); mc != nil {
		l.subscribeOn(mc, filter)
	}
}

func (l *link) subscribeOn(mc *mqttsn.Client, filter string) {
	err := mc.Subscribe(filter, mqttsn.QoS1, func(topic string, payload []byte) {
		l.n.b.Inject(topic, payload, mqttsn.QoS1)
	})
	if err != nil {
		l.n.c.logf("cluster: %s->%s: propagate subscribe %q: %v", l.n.id, l.peer, filter, err)
	}
}

func (l *link) unsubscribe(filter string) {
	if mc := l.session.Client(); mc != nil {
		if err := mc.Unsubscribe(filter); err != nil {
			l.n.c.logf("cluster: %s->%s: propagate unsubscribe %q: %v", l.n.id, l.peer, filter, err)
		}
	}
}

// probe sends one fire-and-forget PINGREQ on the current session; a
// live peer's PINGRESP refreshes the link's silence.
func (l *link) probe() {
	if mc := l.session.Client(); mc != nil {
		_ = mc.Ping()
	}
}

// silence is how long the link has heard nothing from its peer, across
// sessions: the current session's last packet, or, while the link is
// down, the last packet of the session before.
func (l *link) silence(now time.Time) time.Duration {
	l.mu.Lock()
	heard := l.heard
	l.mu.Unlock()
	if mc := l.session.Client(); mc != nil {
		if t := mc.LastRecv(); t.After(heard) {
			heard = t
		}
	}
	return now.Sub(heard)
}

// health snapshots the link's supervision state for stats.
func (l *link) health() (state LinkState, redials, epoch uint64) {
	state = LinkDown
	if l.session.Client() != nil {
		state = LinkConnected
	}
	redials = l.session.Stats().Redials()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fenced {
		state = LinkFenced
	}
	return state, redials, l.epoch
}

// shutdown stops the session, aborting a dial blocked in Connect, so a
// takeover harvest never waits out a dead peer's retry budget. Once it
// returns, the outbox holds what it will hold: a completion from the
// stopped session changes nothing after Take.
func (l *link) shutdown() {
	l.once.Do(func() { close(l.done) })
	l.session.Close()
}

// harvest stops the link and returns everything it still holds for the
// peer, oldest first: the kept frames in send order (already
// transmitted at least once — possibly routed by the peer before it
// died, which is the documented at-least-once crash degradation), then
// the queued frames that never went out. Pending counters are released
// here; the caller re-forwards the frames through the takeover buffer,
// which re-counts them. Used by Remove: a crashed owner's frames go to
// the partitions' new owners instead of dying as linkLost.
func (l *link) harvest() []bufFrame {
	l.shutdown()
	out := l.out.Take()
	for _, qf := range out {
		l.n.decPending(qf.part)
	}
	return out
}

// enqueue commits a frame to the link. Blocking when the queue is full
// is deliberate backpressure: it stalls the releasing shard worker the
// same way a slow local subscriber would. A frame arriving after the
// link closed is redirected through the current topology (the partition
// has a new owner by then) instead of being dropped.
func (l *link) enqueue(part int, f broker.ForwardFrame) {
	if !l.out.Put(bufFrame{part: part, f: f}, l.done) {
		l.n.redirect(part, f)
	}
}

// close releases the link. Anything still kept or queued is
// redirected through the current topology — during a graceful Leave the
// drain has already proven both empty; on a drain timeout or node
// shutdown the redirect delivers to the partition's new owner (or counts
// the frame lost if this whole node is closing).
func (l *link) close() {
	l.shutdown()
	for _, qf := range l.out.Take() {
		l.n.redirect(qf.part, qf.f)
	}
}

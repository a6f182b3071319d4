package broker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/transport"
)

func newTestBroker(t *testing.T) *Broker {
	t.Helper()
	b, err := New(Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func newTestClient(t *testing.T, b *Broker, id string) *mqttsn.Client {
	t.Helper()
	c, err := mqttsn.NewClient(mqttsn.ClientConfig{
		ClientID:      id,
		Gateway:       b.Addr(),
		KeepAlive:     5 * time.Second,
		RetryInterval: 150 * time.Millisecond,
		MaxRetries:    10,
		CleanSession:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Connect(); err != nil {
		t.Fatalf("connect %s: %v", id, err)
	}
	return c
}

// collect subscribes and returns a channel of received payload strings.
func collect(t *testing.T, c *mqttsn.Client, filter string, qos mqttsn.QoS) <-chan string {
	t.Helper()
	ch := make(chan string, 256)
	err := c.Subscribe(filter, qos, func(topic string, payload []byte) {
		ch <- string(payload)
	})
	if err != nil {
		t.Fatalf("subscribe %s: %v", filter, err)
	}
	return ch
}

func waitFor(t *testing.T, ch <-chan string, want string) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Fatalf("received %q, want %q", got, want)
		}
	case <-time.After(3 * time.Second):
		t.Fatalf("timed out waiting for %q", want)
	}
}

func TestPublishSubscribeQoS0(t *testing.T) {
	b := newTestBroker(t)
	pub := newTestClient(t, b, "pub0")
	sub := newTestClient(t, b, "sub0")
	ch := collect(t, sub, "sensors/temp", mqttsn.QoS0)
	if err := pub.Publish("sensors/temp", []byte("21.5"), mqttsn.QoS0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ch, "21.5")
}

func TestPublishSubscribeQoS1(t *testing.T) {
	b := newTestBroker(t)
	pub := newTestClient(t, b, "pub1")
	sub := newTestClient(t, b, "sub1")
	ch := collect(t, sub, "a/b", mqttsn.QoS1)
	if err := pub.Publish("a/b", []byte("hello"), mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ch, "hello")
}

func TestPublishSubscribeQoS2(t *testing.T) {
	b := newTestBroker(t)
	pub := newTestClient(t, b, "pub2")
	sub := newTestClient(t, b, "sub2")
	ch := collect(t, sub, "prov/records", mqttsn.QoS2)
	want := make([]string, 10)
	for i := range want {
		want[i] = fmt.Sprintf("m%d", i)
		if err := pub.Publish("prov/records", []byte(want[i]), mqttsn.QoS2); err != nil {
			t.Fatal(err)
		}
	}
	expectOnly(t, ch, want...)
}

func TestQoS2ExactlyOnceUnderLossAndDuplication(t *testing.T) {
	b := newTestBroker(t)
	sub := newTestClient(t, b, "sub-eo")

	var received sync.Map
	var dupes atomic.Int64
	err := sub.Subscribe("eo/topic", mqttsn.QoS2, func(topic string, payload []byte) {
		if _, loaded := received.LoadOrStore(string(payload), true); loaded {
			dupes.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Publisher over a lossy, duplicating link.
	lossy := netem.WrapTransport(transport.UDP{}, netem.Profile{LossRate: 0.25, DupRate: 0.25, Seed: 11})
	pub, err := mqttsn.NewClient(mqttsn.ClientConfig{
		ClientID:      "pub-eo",
		Gateway:       b.Addr(),
		Transport:     lossy,
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    30,
		CleanSession:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pub.Close)
	if err := pub.Connect(); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := pub.Publish("eo/topic", []byte(fmt.Sprintf("msg-%d", i)), mqttsn.QoS2); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		count := 0
		received.Range(func(_, _ any) bool { count++; return true })
		if count == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d unique messages", count, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if d := dupes.Load(); d != 0 {
		t.Errorf("QoS 2 delivered %d duplicates; exactly-once violated", d)
	}
}

func TestWildcardSubscriptionTriggersRegister(t *testing.T) {
	b := newTestBroker(t)
	sub := newTestClient(t, b, "sub-wild")
	ch := make(chan string, 16)
	err := sub.Subscribe("provlight/+/records", mqttsn.QoS1, func(topic string, payload []byte) {
		ch <- topic + "=" + string(payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	pub := newTestClient(t, b, "pub-wild")
	if err := pub.Publish("provlight/dev42/records", []byte("x"), mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ch, "provlight/dev42/records=x")
}

func TestMultipleSubscribersAllReceive(t *testing.T) {
	b := newTestBroker(t)
	pub := newTestClient(t, b, "pub-multi")
	var chans []<-chan string
	for i := 0; i < 5; i++ {
		sub := newTestClient(t, b, fmt.Sprintf("sub-multi-%d", i))
		chans = append(chans, collect(t, sub, "fan/out", mqttsn.QoS1))
	}
	if err := pub.Publish("fan/out", []byte("boom"), mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case got := <-ch:
			if got != "boom" {
				t.Errorf("subscriber %d got %q", i, got)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("subscriber %d timed out", i)
		}
	}
}

func TestPingAndKeepalive(t *testing.T) {
	b := newTestBroker(t)
	c := newRawClient(t, b)
	if rc := c.connect("pinger", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
		t.Fatalf("connect: %s", rc)
	}
	c.send(&mqttsn.Pingreq{})
	c.await(mqttsn.PINGRESP)
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := newTestBroker(t)
	pub := newTestClient(t, b, "pub-u")
	sub := newTestClient(t, b, "sub-u")
	ch := collect(t, sub, "u/t", mqttsn.QoS1)
	if err := pub.Publish("u/t", []byte("one"), mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, ch, "one")
	if err := sub.Unsubscribe("u/t"); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("u/t", []byte("two"), mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-ch:
		t.Fatalf("received %q after unsubscribe", got)
	case <-time.After(500 * time.Millisecond):
	}
}

func TestManyParallelPublishers(t *testing.T) {
	// Scalability smoke test mirroring Table IX: devices publishing to
	// per-device topics in parallel.
	b := newTestBroker(t)
	sub := newTestClient(t, b, "translator")
	var count atomic.Int64
	if err := sub.Subscribe("provlight/+/records", mqttsn.QoS1, func(string, []byte) {
		count.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	const devices = 16
	const msgs = 5
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			c := newTestClient(t, b, fmt.Sprintf("device-%d", d))
			topic := fmt.Sprintf("provlight/device-%d/records", d)
			for i := 0; i < msgs; i++ {
				if err := c.Publish(topic, []byte(fmt.Sprintf("%d-%d", d, i)), mqttsn.QoS1); err != nil {
					t.Errorf("device %d publish %d: %v", d, i, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for count.Load() < devices*msgs {
		if time.Now().After(deadline) {
			t.Fatalf("routed %d/%d messages", count.Load(), devices*msgs)
		}
		time.Sleep(50 * time.Millisecond)
	}
	st := b.Stats()
	if st.PublishesReceived < devices*msgs {
		t.Errorf("broker saw %d publishes, want >= %d", st.PublishesReceived, devices*msgs)
	}
}

func TestPublishToUnknownTopicIDRejected(t *testing.T) {
	b := newTestBroker(t)
	raw := newRawClient(t, b)
	if rc := raw.connect("raw-bad", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
		t.Fatalf("connect: %v", rc)
	}
	raw.send(&mqttsn.Publish{Flags: mqttsn.Flags{QoS: mqttsn.QoS1}, TopicID: 9999, MsgID: 7, Data: []byte("x")})
	if rc := raw.await(mqttsn.PUBACK).(*mqttsn.Puback).ReturnCode; rc != mqttsn.RejectedInvalidID {
		t.Fatalf("return code = %v, want invalid topic id", rc)
	}
}

// rawClient drives the broker with hand-built packets, for the flows the
// mqttsn client never produces: scrambled or missing PUBRELs, DUP
// retransmissions, and the will and retain flags.
type rawClient struct {
	t    *testing.T
	conn net.PacketConn
	gw   net.Addr
}

func newRawClient(t *testing.T, b *Broker) *rawClient {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	gw, err := net.ResolveUDPAddr("udp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, conn: conn, gw: gw}
}

func (c *rawClient) send(p mqttsn.Packet) {
	c.t.Helper()
	if _, err := c.conn.WriteTo(mqttsn.Marshal(p), c.gw); err != nil {
		c.t.Fatalf("send %s: %v", p.Type(), err)
	}
}

// await returns the next packet of type typ, skipping any other.
func (c *rawClient) await(typ mqttsn.MsgType) mqttsn.Packet {
	c.t.Helper()
	buf := make([]byte, 2048)
	c.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	for {
		n, _, err := c.conn.ReadFrom(buf)
		if err != nil {
			c.t.Fatalf("waiting for %s: %v", typ, err)
		}
		if p, err := mqttsn.Unmarshal(buf[:n]); err == nil && p.Type() == typ {
			return p
		}
	}
}

func (c *rawClient) connect(id string, flags mqttsn.Flags) mqttsn.ReturnCode {
	c.t.Helper()
	c.send(&mqttsn.Connect{Flags: flags, Duration: 60, ClientID: id})
	return c.await(mqttsn.CONNACK).(*mqttsn.Connack).ReturnCode
}

func (c *rawClient) register(topic string) uint16 {
	c.t.Helper()
	c.send(&mqttsn.Register{MsgID: 1, TopicName: topic})
	return c.await(mqttsn.REGACK).(*mqttsn.Regack).TopicID
}

// next returns the next packet of any type.
func (c *rawClient) next() mqttsn.Packet {
	c.t.Helper()
	buf := make([]byte, 2048)
	c.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	n, _, err := c.conn.ReadFrom(buf)
	if err != nil {
		c.t.Fatalf("waiting for a packet: %v", err)
	}
	p, err := mqttsn.Unmarshal(buf[:n])
	if err != nil {
		c.t.Fatalf("decode: %v", err)
	}
	return p
}

// silent asserts that no packet arrives for d.
func (c *rawClient) silent(d time.Duration) {
	c.t.Helper()
	buf := make([]byte, 2048)
	c.conn.SetReadDeadline(time.Now().Add(d))
	if n, _, err := c.conn.ReadFrom(buf); err == nil {
		p, _ := mqttsn.Unmarshal(buf[:n])
		c.t.Fatalf("unexpected packet %v", p)
	}
}

// subscribe subscribes at QoS 1 and returns the SUBACK's topic id.
func (c *rawClient) subscribe(filter string) uint16 {
	c.t.Helper()
	c.send(&mqttsn.Subscribe{Flags: mqttsn.Flags{QoS: mqttsn.QoS1}, MsgID: 1, TopicName: filter})
	return c.await(mqttsn.SUBACK).(*mqttsn.Suback).TopicID
}

// publish2 sends a QoS 2 PUBLISH and waits for its PUBREC.
func (c *rawClient) publish2(topicID, msgID uint16, dup bool, data string) {
	c.t.Helper()
	c.send(&mqttsn.Publish{Flags: mqttsn.Flags{QoS: mqttsn.QoS2, DUP: dup}, TopicID: topicID, MsgID: msgID, Data: []byte(data)})
	if got := c.await(mqttsn.PUBREC).(*mqttsn.Pubrec).MsgID; got != msgID {
		c.t.Fatalf("PUBREC for msgID %d, want %d", got, msgID)
	}
}

// release sends a PUBREL and waits for its PUBCOMP.
func (c *rawClient) release(msgID uint16) {
	c.t.Helper()
	rel := &mqttsn.Pubrel{}
	rel.MsgID = msgID
	c.send(rel)
	if got := c.await(mqttsn.PUBCOMP).(*mqttsn.Pubcomp).MsgID; got != msgID {
		c.t.Fatalf("PUBCOMP for msgID %d, want %d", got, msgID)
	}
}

// expectOnly receives want in order, then asserts nothing else arrives.
func expectOnly(t *testing.T, ch <-chan string, want ...string) {
	t.Helper()
	for _, w := range want {
		waitFor(t, ch, w)
	}
	select {
	case extra := <-ch:
		t.Fatalf("unexpected extra message %q", extra)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestQoS2Receive pins the broker's inbound QoS 2 rule: a frame is routed
// at its first PUBLISH, in PUBLISH-arrival order, exactly once; PUBREL
// only ends the flow. It also pins the protocol edges the broker does not
// support: last wills and retained messages.
func TestQoS2Receive(t *testing.T) {
	const topic = "wf/qos2"
	cases := []struct {
		name string
		run  func(t *testing.T, b *Broker, pub *rawClient, id uint16, got <-chan string)
	}{
		{"scrambled PUBRELs keep PUBLISH order", func(t *testing.T, b *Broker, pub *rawClient, id uint16, got <-chan string) {
			for m := uint16(1); m <= 5; m++ {
				pub.publish2(id, m, false, fmt.Sprintf("m%d", m))
			}
			for _, m := range []uint16{3, 1, 5, 2, 4} {
				pub.release(m)
			}
			expectOnly(t, got, "m1", "m2", "m3", "m4", "m5")
		}},
		{"abandoned flow does not delay the frames behind it", func(t *testing.T, b *Broker, pub *rawClient, id uint16, got <-chan string) {
			// msgID 1 never gets its PUBREL. Holding 2 and 3 behind it
			// would stall them for (MaxRetries+1)·RetryInterval = 6 s,
			// twice waitFor's timeout.
			for m := uint16(1); m <= 3; m++ {
				pub.publish2(id, m, false, fmt.Sprintf("m%d", m))
			}
			pub.release(2)
			pub.release(3)
			expectOnly(t, got, "m1", "m2", "m3")
		}},
		{"DUP PUBLISH before and after PUBREL is routed once", func(t *testing.T, b *Broker, pub *rawClient, id uint16, got <-chan string) {
			pub.publish2(id, 7, false, "x")
			pub.publish2(id, 7, true, "x")
			pub.release(7)
			pub.publish2(id, 7, true, "x")
			expectOnly(t, got, "x")
			if st := b.Stats(); st.DuplicatesDropped != 2 || st.MessagesRouted != 1 {
				t.Fatalf("duplicates dropped = %d, routed = %d; want 2 and 1", st.DuplicatesDropped, st.MessagesRouted)
			}
		}},
		{"Will-flag CONNECT is refused", func(t *testing.T, b *Broker, pub *rawClient, id uint16, got <-chan string) {
			c := newRawClient(t, b)
			if rc := c.connect("raw-will", mqttsn.Flags{CleanSession: true, Will: true}); rc != mqttsn.RejectedNotSupported {
				t.Fatalf("CONNACK %v, want %v", rc, mqttsn.RejectedNotSupported)
			}
			if n := b.Stats().Sessions; n != 2 {
				t.Fatalf("%d sessions after a refused CONNECT, want 2", n)
			}
		}},
		{"Retain-flagged publish is live only", func(t *testing.T, b *Broker, pub *rawClient, id uint16, got <-chan string) {
			rs := newRawClient(t, b)
			if rc := rs.connect("raw-sub", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
				t.Fatalf("connect: %v", rc)
			}
			rs.send(&mqttsn.Subscribe{Flags: mqttsn.Flags{QoS: mqttsn.QoS0}, MsgID: 1, TopicName: topic})
			rs.await(mqttsn.SUBACK)
			pub.send(&mqttsn.Publish{Flags: mqttsn.Flags{QoS: mqttsn.QoS0, Retain: true}, TopicID: id, Data: []byte("r")})
			expectOnly(t, got, "r")
			if p := rs.await(mqttsn.PUBLISH).(*mqttsn.Publish); string(p.Data) != "r" || p.Flags.Retain {
				t.Fatalf("raw subscriber got %q with retain %v, want %q without retain", p.Data, p.Flags.Retain, "r")
			}
			late := newTestClient(t, b, "sub-late")
			expectOnly(t, collect(t, late, topic, mqttsn.QoS2))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A 1 s retry interval with the default 5 retries: any
			// head-of-line hold would outlast every wait below.
			b, err := New(Config{Addr: "127.0.0.1:0", RetryInterval: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Close)
			got := collect(t, newTestClient(t, b, "sub"), topic, mqttsn.QoS2)
			pub := newRawClient(t, b)
			if rc := pub.connect("raw-pub", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
				t.Fatalf("connect: %v", rc)
			}
			tc.run(t, b, pub, pub.register(topic), got)
		})
	}
}

// TestAbandonedQoS2Flow: a QoS 2 flow whose publisher never sends the
// PUBREL keeps its msgID however long the publisher goes on retrying, even
// past the broker's own retry horizon. It gives the msgID up only once the
// publisher's 16-bit counter has moved half the msgID space past it, so a
// fresh PUBLISH reusing the msgID after the wrap is routed, not dropped as a
// duplicate.
func TestAbandonedQoS2Flow(t *testing.T) {
	const topic = "wf/abandoned"
	// The broker's retry horizon, (MaxRetries+1)·RetryInterval, is 40 ms.
	b, err := New(Config{Addr: "127.0.0.1:0", RetryInterval: 20 * time.Millisecond, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	got := collect(t, newTestClient(t, b, "sub"), topic, mqttsn.QoS2)
	pub := newRawClient(t, b)
	if rc := pub.connect("raw-pub", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
		t.Fatalf("connect: %v", rc)
	}
	id := pub.register(topic)
	pub.publish2(id, 9, false, "a")
	time.Sleep(300 * time.Millisecond)
	pub.publish2(id, 9, true, "a") // a late retransmission
	want := []string{"a"}
	// The counter goes round the msgID space; these flows complete.
	for k := 1; k < 65; k++ {
		msgID := uint16(9 + 1000*k)
		data := fmt.Sprint(msgID)
		pub.publish2(id, msgID, false, data)
		pub.release(msgID)
		want = append(want, data)
		if k == 20 {
			pub.publish2(id, 9, true, "a") // still retried 20000 msgIDs on
		}
	}
	pub.publish2(id, 9, false, "b")
	want = append(want, "b")
	expectOnly(t, got, want...)
	if st := b.Stats(); st.DuplicatesDropped != 2 || st.MessagesRouted != uint64(len(want)) {
		t.Fatalf("duplicates dropped = %d, routed = %d; want 2 and %d", st.DuplicatesDropped, st.MessagesRouted, len(want))
	}
}

// maxQoS2RoundTripAllocs bounds one QoS 2 publish/subscribe round trip
// through the broker: decoded packets, payload copies, the routed message
// and the packets the broker sends, 19 allocations on linux/amd64 (25-26
// under the race detector). The broker's outbound QoS 2 bookkeeping, a
// flow held by value in the session's in-flight table, allocates
// nothing. Handlers that re-derive the session key from the source
// address (2 allocations per packet) add 12 per round trip and exceed it.
const maxQoS2RoundTripAllocs = 28

// TestPublishSubscribeQoS2Allocs bounds the allocations of one QoS 2
// publish, broker routing and QoS 2 delivery to a subscriber over
// loopback UDP, every handshake included.
func TestPublishSubscribeQoS2Allocs(t *testing.T) {
	b := newTestBroker(t)
	pub := newTestClient(t, b, "alloc-pub")
	sub := newTestClient(t, b, "alloc-sub")
	got := make(chan struct{}, 1)
	if err := sub.Subscribe("a/q2", mqttsn.QoS2, func(string, []byte) { got <- struct{}{} }); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 200)
	errc := make(chan error, 1)
	done := func(err error) { errc <- err }
	roundTrip := func() {
		pub.PublishAsync("a/q2", payload, mqttsn.QoS2, done)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		<-got
	}
	roundTrip() // register the topic on both sides and warm the pools
	allocs := testing.AllocsPerRun(200, roundTrip)
	t.Logf("%.1f allocs per QoS 2 publish/subscribe round trip", allocs)
	if allocs > maxQoS2RoundTripAllocs {
		t.Errorf("%.1f allocs per QoS 2 round trip, want <= %d", allocs, maxQoS2RoundTripAllocs)
	}
}

// TestRegisterRetransmittedThenQueueFlushes: a wildcard subscriber that
// drops the first REGISTER gets it again, and only after its REGACK
// receives the frames queued behind it, each exactly once and in route
// order — a frame on a topic it already knows included, since nothing
// overtakes a frame waiting for its topic's registration.
func TestRegisterRetransmittedThenQueueFlushes(t *testing.T) {
	b, err := New(Config{Addr: "127.0.0.1:0", RetryInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	sub := newRawClient(t, b)
	if rc := sub.connect("raw-sub", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
		t.Fatalf("connect: %v", rc)
	}
	sub.subscribe("wf/+/records")
	sub.subscribe("other/known")
	pub := newTestClient(t, b, "pub")
	sent := []struct{ topic, data string }{
		{"wf/a/records", "m0"}, {"other/known", "k0"}, {"wf/a/records", "m1"}, {"wf/a/records", "m2"},
	}
	for _, f := range sent {
		if err := pub.Publish(f.topic, []byte(f.data), mqttsn.QoS1); err != nil {
			t.Fatal(err)
		}
	}
	p := sub.next()
	first, ok := p.(*mqttsn.Register)
	if !ok || first.TopicName != "wf/a/records" {
		t.Fatalf("first packet %s %+v, want the REGISTER of wf/a/records", p.Type(), p)
	}
	p = sub.next() // the first REGISTER is dropped
	again, ok := p.(*mqttsn.Register)
	if !ok || *again != *first {
		t.Fatalf("got %s %+v, want the retransmitted REGISTER %+v", p.Type(), p, first)
	}
	sub.send(&mqttsn.Regack{TopicID: again.TopicID, MsgID: again.MsgID, ReturnCode: mqttsn.Accepted})
	for _, f := range sent {
		p := sub.next()
		got, ok := p.(*mqttsn.Publish)
		if !ok || string(got.Data) != f.data || got.Flags.DUP {
			t.Fatalf("got %s %+v, want the first PUBLISH of %q", p.Type(), p, f.data)
		}
		sub.send(&mqttsn.Puback{TopicID: got.TopicID, MsgID: got.MsgID, ReturnCode: mqttsn.Accepted})
	}
	sub.silent(500 * time.Millisecond) // more than two retry intervals
	if st := b.Stats(); st.Retransmissions != 1 || st.DeliveryGiveUps != 0 {
		t.Fatalf("retransmissions = %d, give-ups = %d; want 1 and 0", st.Retransmissions, st.DeliveryGiveUps)
	}
}

// TestUnansweredRegisterSettlesQueuedFrames: the frames queued behind a
// REGISTER the subscriber never answers (MaxRetries spent) or rejects are
// settled like any undeliverable frame, and none is sent to that
// subscriber: a consumer-group member's go to the other member, in order,
// and an individual subscriber's are counted in DeliveryGiveUps.
func TestUnansweredRegisterSettlesQueuedFrames(t *testing.T) {
	const maxRetries = 2
	for _, tc := range []struct {
		name          string
		group, reject bool
	}{
		{"group member never answers", true, false},
		{"group member rejects", true, true},
		{"subscriber never answers", false, false},
		{"subscriber rejects", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(Config{Addr: "127.0.0.1:0", RetryInterval: 50 * time.Millisecond, MaxRetries: maxRetries})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Close)
			filter := "wf/+/records"
			if tc.group {
				filter = "$share/g/" + filter
			}
			// The raw member joins first, so the group gives it the topic.
			sub := newRawClient(t, b)
			if rc := sub.connect("raw-sub", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
				t.Fatalf("connect: %v", rc)
			}
			sub.subscribe(filter)
			var other *memberRecorder
			if tc.group {
				other = newMember(t, b, "other", filter, mqttsn.QoS1)
			}
			pub := newTestClient(t, b, "pub")
			want := []string{"0", "1", "2", "3"}
			for _, data := range want {
				if err := pub.Publish("wf/a/records", []byte(data), mqttsn.QoS1); err != nil {
					t.Fatal(err)
				}
			}
			reg := sub.await(mqttsn.REGISTER).(*mqttsn.Register)
			if tc.reject {
				sub.send(&mqttsn.Regack{TopicID: reg.TopicID, MsgID: reg.MsgID, ReturnCode: mqttsn.RejectedNotSupported})
			} else {
				for i := 0; i < maxRetries; i++ {
					if again := sub.await(mqttsn.REGISTER).(*mqttsn.Register); *again != *reg {
						t.Fatalf("retransmission %v, want %v", again, reg)
					}
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				st := b.Stats()
				if tc.group && other.total() == len(want) || !tc.group && st.DeliveryGiveUps == uint64(len(want)) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("frames not settled (stats %+v)", st)
				}
				time.Sleep(10 * time.Millisecond)
			}
			st := b.Stats()
			if tc.group {
				other.mu.Lock()
				got := other.by["wf/a/records"]
				other.mu.Unlock()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("other member got %v, want %v", got, want)
				}
				if st.GroupRerouted != uint64(len(want)) || st.DeliveryGiveUps != 0 {
					t.Fatalf("rerouted = %d, give-ups = %d; want %d and 0", st.GroupRerouted, st.DeliveryGiveUps, len(want))
				}
			} else if st.GroupRerouted != 0 {
				t.Fatalf("rerouted = %d, want 0", st.GroupRerouted)
			}
			if n := b.PendingForTopics(func(string) bool { return true }); n != 0 {
				t.Fatalf("%d frames still pending", n)
			}
			sub.silent(100 * time.Millisecond) // not one PUBLISH reached it
		})
	}
}

// TestDetachMatchingInSendOrder: with a subscriber that stopped
// acknowledging, PendingForTopics counts a topic's frames both in flight
// and queued, and DetachMatching returns them in send order (in flight
// first, then queued), leaving the other topics' frames in place.
func TestDetachMatchingInSendOrder(t *testing.T) {
	b, err := New(Config{Addr: "127.0.0.1:0", RetryInterval: 10 * time.Second, SendWindow: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	sub := newRawClient(t, b)
	if rc := sub.connect("raw-sub", mqttsn.Flags{CleanSession: true}); rc != mqttsn.Accepted {
		t.Fatalf("connect: %v", rc)
	}
	sub.subscribe("mig/a")
	sub.subscribe("mig/b")
	pub := newTestClient(t, b, "pub")
	for _, f := range []string{"a0", "b0", "a1", "a2", "b1", "a3"} {
		if err := pub.Publish("mig/"+f[:1], []byte(f), mqttsn.QoS1); err != nil {
			t.Fatal(err)
		}
	}
	// a0, b0 and a1 fill the window. Acknowledging b0 alone lets a2 in.
	var b0 *mqttsn.Publish
	for _, want := range []string{"a0", "b0", "a1"} {
		p := sub.await(mqttsn.PUBLISH).(*mqttsn.Publish)
		if string(p.Data) != want {
			t.Fatalf("got %q, want %q", p.Data, want)
		}
		if want == "b0" {
			b0 = p
		}
	}
	sub.send(&mqttsn.Puback{TopicID: b0.TopicID, MsgID: b0.MsgID, ReturnCode: mqttsn.Accepted})
	if p := sub.await(mqttsn.PUBLISH).(*mqttsn.Publish); string(p.Data) != "a2" {
		t.Fatalf("got %q, want a2", p.Data)
	}
	isA := func(topic string) bool { return topic == "mig/a" }
	if n := b.PendingForTopics(isA); n != 4 {
		t.Fatalf("PendingForTopics(mig/a) = %d, want 4 (a0, a1, a2 in flight, a3 queued)", n)
	}
	if n := b.PendingForTopics(func(string) bool { return true }); n != 5 {
		t.Fatalf("PendingForTopics(all) = %d, want 5", n)
	}
	var got []string
	for _, f := range b.DetachMatching(isA) {
		if f.Topic != "mig/a" || f.QoS != mqttsn.QoS1 {
			t.Fatalf("detached %+v", f)
		}
		got = append(got, string(f.Payload))
	}
	if fmt.Sprint(got) != "[a0 a1 a2 a3]" {
		t.Fatalf("detached %v, want [a0 a1 a2 a3]", got)
	}
	if n := b.PendingForTopics(isA); n != 0 {
		t.Fatalf("PendingForTopics(mig/a) = %d after detach, want 0", n)
	}
	if st := b.Stats(); st.Migrated != 4 {
		t.Fatalf("Migrated = %d, want 4", st.Migrated)
	}
	// The window slots the detach freed go to b1 at once: no ack is left
	// to come and refill them.
	if p := sub.await(mqttsn.PUBLISH).(*mqttsn.Publish); string(p.Data) != "b1" {
		t.Fatalf("got %q, want b1", p.Data)
	}
}

// TestReleasableWalksPrefix: PUBRELs go out for the held-back QoS 2
// flows ahead of the oldest one still awaiting its PUBREC, in table
// order, skipping the other flow kinds, without allocating.
func TestReleasableWalksPrefix(t *testing.T) {
	s := &session{flows: []flow{
		{msgID: 1, state: obRelPending},
		{msgID: 2, state: obAwaitPuback},
		{msgID: 3, state: obAwaitRegack},
		{msgID: 4, state: obRelPending},
		{msgID: 5, state: obAwaitPubrec},
		{msgID: 6, state: obRelPending},
	}}
	var buf [8]uint16
	var rels []uint16
	allocs := testing.AllocsPerRun(10, func() {
		s.flows[0].state, s.flows[3].state = obRelPending, obRelPending
		rels = s.releasableLocked(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("releasableLocked allocates %.1f times", allocs)
	}
	if fmt.Sprint(rels) != "[1 4]" {
		t.Fatalf("released %v, want [1 4]", rels)
	}
	if s.flows[0].state != obAwaitPubcomp || s.flows[3].state != obAwaitPubcomp || s.flows[5].state != obRelPending {
		t.Fatalf("states after release: %+v", s.flows)
	}
}

package mqttsn_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/transport"
)

// fakeGateway is a scripted MQTT-SN gateway for client-engine tests. It
// accepts every CONNECT, REGISTER and SUBSCRIBE, answers PINGREQ, and
// answers the publish-flow packets as the test sets it. It logs each
// PUBLISH and PUBREL it receives, and, apart, each control request. Its
// publish path allocates nothing, so an allocation count over a publish
// measures the client alone.
type fakeGateway struct {
	conn *net.UDPConn
	done chan struct{}

	ack      atomic.Bool  // answer PUBLISH: PUBACK at QoS 1, PUBREC at QoS 2
	dupAcks  atomic.Bool  // send every answer twice
	reject   atomic.Bool  // answer PUBLISH with a PUBACK refusing it
	dropRels atomic.Int32 // PUBRELs to leave unanswered before answering
	dropCtl  atomic.Int32 // CONNECTs, REGISTERs and SUBSCRIBEs to leave unanswered

	mu   sync.Mutex
	log  []gwPacket
	ctl  []gwPacket     // control requests: CONNECT, REGISTER, SUBSCRIBE
	peer netip.AddrPort // the client, once it has sent a packet

	// Reused replies; touched only by serve.
	out     []byte
	puback  mqttsn.Puback
	pubrec  mqttsn.Pubrec
	pubcomp mqttsn.Pubcomp
}

type gwPacket struct {
	typ   mqttsn.MsgType
	msgID uint16
	dup   bool
}

func startFakeGateway(t *testing.T) *fakeGateway {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	g := &fakeGateway{conn: conn, done: make(chan struct{}), out: make([]byte, 0, 64)}
	go g.serve()
	t.Cleanup(func() {
		conn.Close()
		<-g.done
	})
	return g
}

func (g *fakeGateway) addr() string { return g.conn.LocalAddr().String() }

func (g *fakeGateway) packets() []gwPacket {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]gwPacket(nil), g.log...)
}

func (g *fakeGateway) record(p gwPacket) {
	g.mu.Lock()
	g.log = append(g.log, p)
	g.mu.Unlock()
}

func (g *fakeGateway) controls() []gwPacket {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]gwPacket(nil), g.ctl...)
}

// control logs a control request and reports whether to answer it.
func (g *fakeGateway) control(p gwPacket) bool {
	g.mu.Lock()
	g.ctl = append(g.ctl, p)
	g.mu.Unlock()
	if g.dropCtl.Load() > 0 {
		g.dropCtl.Add(-1)
		return false
	}
	return true
}

// send sends p to the client.
func (g *fakeGateway) send(t *testing.T, p mqttsn.Packet) {
	t.Helper()
	g.mu.Lock()
	peer := g.peer
	g.mu.Unlock()
	if _, err := g.conn.WriteToUDPAddrPort(mqttsn.Marshal(p), peer); err != nil {
		t.Fatal(err)
	}
}

func (g *fakeGateway) serve() {
	defer close(g.done)
	buf := make([]byte, 2048)
	for {
		n, from, err := g.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		if n < 2 || buf[0] == 0x01 { // test packets all have a 1-byte length
			continue
		}
		g.mu.Lock()
		g.peer = from
		g.mu.Unlock()
		b := buf[:n]
		var reply mqttsn.Packet
		switch mqttsn.MsgType(b[1]) {
		case mqttsn.PUBLISH:
			flags := mqttsn.DecodeFlags(b[2])
			msgID := binary.BigEndian.Uint16(b[5:7])
			g.record(gwPacket{mqttsn.PUBLISH, msgID, flags.DUP})
			switch {
			case g.reject.Load():
				g.puback = mqttsn.Puback{TopicID: binary.BigEndian.Uint16(b[3:5]), MsgID: msgID, ReturnCode: mqttsn.RejectedInvalidID}
				reply = &g.puback
			case !g.ack.Load():
			case flags.QoS == mqttsn.QoS1:
				g.puback = mqttsn.Puback{TopicID: binary.BigEndian.Uint16(b[3:5]), MsgID: msgID, ReturnCode: mqttsn.Accepted}
				reply = &g.puback
			case flags.QoS == mqttsn.QoS2:
				g.pubrec.MsgID = msgID
				reply = &g.pubrec
			}
		case mqttsn.PUBREL:
			msgID := binary.BigEndian.Uint16(b[2:4])
			g.record(gwPacket{mqttsn.PUBREL, msgID, false})
			if g.dropRels.Load() > 0 {
				g.dropRels.Add(-1)
				continue
			}
			g.pubcomp.MsgID = msgID
			reply = &g.pubcomp
		default:
			pkt, err := mqttsn.Unmarshal(b)
			if err != nil {
				continue
			}
			switch p := pkt.(type) {
			case *mqttsn.Connect:
				if g.control(gwPacket{mqttsn.CONNECT, 0, false}) {
					reply = &mqttsn.Connack{ReturnCode: mqttsn.Accepted}
				}
			case *mqttsn.Register:
				if g.control(gwPacket{mqttsn.REGISTER, p.MsgID, false}) {
					reply = &mqttsn.Regack{TopicID: 1, MsgID: p.MsgID, ReturnCode: mqttsn.Accepted}
				}
			case *mqttsn.Subscribe:
				if g.control(gwPacket{mqttsn.SUBSCRIBE, p.MsgID, p.Flags.DUP}) {
					reply = &mqttsn.Suback{TopicID: subTopicID, MsgID: p.MsgID, ReturnCode: mqttsn.Accepted}
				}
			case *mqttsn.Pingreq:
				reply = &mqttsn.Pingresp{}
			}
		}
		if reply == nil {
			continue
		}
		g.out = mqttsn.AppendPacket(g.out[:0], reply)
		_, _ = g.conn.WriteToUDPAddrPort(g.out, from)
		if g.dupAcks.Load() {
			_, _ = g.conn.WriteToUDPAddrPort(g.out, from)
		}
	}
}

// subTopicID is the topic id the fake gateway's SUBACK carries.
const subTopicID = 2

// dialClient creates a client of g, not yet connected.
func dialClient(t *testing.T, g *fakeGateway, cfg mqttsn.ClientConfig) *mqttsn.Client {
	t.Helper()
	cfg.ClientID = "engine"
	cfg.Gateway = g.addr()
	c, err := mqttsn.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// engineClient connects a client to g with the topic "e/t" registered.
func engineClient(t *testing.T, g *fakeGateway, cfg mqttsn.ClientConfig) *mqttsn.Client {
	t.Helper()
	c := dialClient(t, g, cfg)
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTopic("e/t"); err != nil {
		t.Fatal(err)
	}
	return c
}

// outcomes counts completion calls per publish.
type outcomes struct {
	mu    sync.Mutex
	calls []int
	errs  []error
	all   sync.WaitGroup
}

func newOutcomes(n int) *outcomes {
	o := &outcomes{calls: make([]int, n), errs: make([]error, n)}
	o.all.Add(n)
	return o
}

func (o *outcomes) done(i int) func(error) {
	return func(err error) {
		o.mu.Lock()
		o.calls[i]++
		o.errs[i] = err
		first := o.calls[i] == 1
		o.mu.Unlock()
		if first {
			o.all.Done()
		}
	}
}

// wait waits for every publish to complete, then for stray second calls.
func (o *outcomes) wait(t *testing.T, settle time.Duration) {
	t.Helper()
	ch := make(chan struct{})
	go func() { o.all.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("publishes did not complete")
	}
	time.Sleep(settle)
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, n := range o.calls {
		if n != 1 {
			t.Errorf("publish %d completed %d times, want once", i, n)
		}
	}
}

func (o *outcomes) each(t *testing.T, check func(i int, err error)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, err := range o.errs {
		check(i, err)
	}
}

func assertWindowEmpty(t *testing.T, c *mqttsn.Client) {
	t.Helper()
	if n, _ := c.WindowOccupancy(); n != 0 {
		t.Errorf("window holds %d slots after every publish completed", n)
	}
}

// TestPublishCompletesOnceOnSuccess: acknowledged publishes at QoS 1 and
// QoS 2 complete exactly once, with every ack duplicated on the wire.
func TestPublishCompletesOnceOnSuccess(t *testing.T) {
	for _, qos := range []mqttsn.QoS{mqttsn.QoS1, mqttsn.QoS2} {
		g := startFakeGateway(t)
		g.ack.Store(true)
		g.dupAcks.Store(true)
		c := engineClient(t, g, mqttsn.ClientConfig{InflightWindow: 4})
		const n = 20
		o := newOutcomes(n)
		for i := 0; i < n; i++ {
			c.PublishAsync("e/t", []byte{byte(i)}, qos, o.done(i))
		}
		o.wait(t, 50*time.Millisecond)
		o.each(t, func(i int, err error) {
			if err != nil {
				t.Errorf("QoS %d publish %d: %v", qos, i, err)
			}
		})
		assertWindowEmpty(t, c)
		if st := c.Stats(); st.Retransmissions != 0 {
			t.Errorf("QoS %d: %d retransmissions on a loss-free link", qos, st.Retransmissions)
		}
	}
}

// TestPublishGivesUpAfterBudget: an unanswered publish is re-sent, every
// copy after the first flagged DUP and carrying the same msgID, then fails
// once with ErrTimeout when the budget (6 s on loopback) runs out. The
// CONNECT and REGISTER put the RTO at the floor, so the re-sends go out at
// 0.2, 0.6, 1.4, 3 and 5 s, the last wait capped at a third of the
// budget, and the backed-off 2 s timeout stays on the session.
func TestPublishGivesUpAfterBudget(t *testing.T) {
	t.Parallel()
	g := startFakeGateway(t)
	c := engineClient(t, g, mqttsn.ClientConfig{})
	o := newOutcomes(1)
	start := time.Now()
	c.PublishAsync("e/t", []byte("lost"), mqttsn.QoS1, o.done(0))
	o.wait(t, 100*time.Millisecond)
	if took := time.Since(start); took < 6*time.Second || took > 7*time.Second {
		t.Errorf("publish gave up after %v, want the 6s budget", took)
	}
	o.each(t, func(_ int, err error) {
		if !errors.Is(err, mqttsn.ErrTimeout) {
			t.Errorf("outcome = %v, want ErrTimeout", err)
		}
	})
	assertWindowEmpty(t, c)
	pkts := g.packets()
	if len(pkts) != 6 {
		t.Fatalf("gateway saw %d PUBLISHes, want 1+5: %+v", len(pkts), pkts)
	}
	for i, p := range pkts {
		if p.typ != mqttsn.PUBLISH || p.msgID != pkts[0].msgID || p.dup != (i > 0) {
			t.Errorf("packet %d = %+v, want PUBLISH msgID %d dup=%v", i, p, pkts[0].msgID, i > 0)
		}
	}
	st := c.Stats()
	if st.Retransmissions != uint64(len(pkts)-1) {
		t.Errorf("Retransmissions = %d, want %d", st.Retransmissions, len(pkts)-1)
	}
	if st.RetryTimeout != 2*time.Second {
		t.Errorf("RetryTimeout = %v after re-sends, want it backed off to 2s", st.RetryTimeout)
	}
}

// TestQoS2StepsPubrecPubrelPubcomp: a QoS 2 flow answers PUBREC with
// PUBREL, re-sends a lost PUBREL (not the PUBLISH), and completes only on
// the PUBCOMP.
func TestQoS2StepsPubrecPubrelPubcomp(t *testing.T) {
	g := startFakeGateway(t)
	g.ack.Store(true)
	g.dropRels.Store(1)
	c := engineClient(t, g, mqttsn.ClientConfig{})
	o := newOutcomes(1)
	c.PublishAsync("e/t", []byte("two"), mqttsn.QoS2, o.done(0))
	time.Sleep(50 * time.Millisecond) // PUBREC answered, first PUBREL dropped
	o.mu.Lock()
	early := o.calls[0]
	o.mu.Unlock()
	if early != 0 {
		t.Fatal("QoS 2 publish completed before its PUBCOMP")
	}
	o.wait(t, 50*time.Millisecond)
	o.each(t, func(_ int, err error) {
		if err != nil {
			t.Errorf("outcome = %v", err)
		}
	})
	assertWindowEmpty(t, c)
	// PUBLISH (a DUP copy only if the PUBREC was slow), then the PUBREL
	// and its retransmission, and no PUBLISH once the PUBREL leg began.
	pkts := g.packets()
	rels := 0
	for i, p := range pkts {
		switch {
		case p.msgID != pkts[0].msgID:
			t.Errorf("packet %d = %+v, want msgID %d", i, p, pkts[0].msgID)
		case i == 0 && (p.typ != mqttsn.PUBLISH || p.dup):
			t.Errorf("first packet %+v, want a PUBLISH without DUP", p)
		case p.typ == mqttsn.PUBREL:
			rels++
		case rels > 0:
			t.Errorf("packet %d = %+v after the PUBREL leg began", i, p)
		}
	}
	if rels != 2 {
		t.Errorf("gateway saw %d PUBRELs, want 2: %+v", rels, pkts)
	}
}

// TestPublishRejected: a PUBACK refusing the PUBLISH fails the flow at
// either QoS, once, and frees its slot.
func TestPublishRejected(t *testing.T) {
	g := startFakeGateway(t)
	g.reject.Store(true)
	c := engineClient(t, g, mqttsn.ClientConfig{})
	o := newOutcomes(2)
	c.PublishAsync("e/t", []byte("q1"), mqttsn.QoS1, o.done(0))
	c.PublishAsync("e/t", []byte("q2"), mqttsn.QoS2, o.done(1))
	o.wait(t, 50*time.Millisecond)
	o.each(t, func(i int, err error) {
		if err == nil || errors.Is(err, mqttsn.ErrTimeout) {
			t.Errorf("publish %d: outcome %v, want a rejection", i, err)
		}
	})
	assertWindowEmpty(t, c)
}

// TestCloseFailsInFlightPublishes: Close completes every publish still
// in flight with ErrClosed before it returns, and a publish after Close
// fails at once.
func TestCloseFailsInFlightPublishes(t *testing.T) {
	g := startFakeGateway(t)
	c := engineClient(t, g, mqttsn.ClientConfig{InflightWindow: 8})
	const n = 8
	o := newOutcomes(n + 1)
	for i := 0; i < n; i++ {
		c.PublishAsync("e/t", []byte{byte(i)}, mqttsn.QoS2, o.done(i))
	}
	c.Close()
	o.mu.Lock()
	for i := 0; i < n; i++ {
		if o.calls[i] != 1 {
			t.Errorf("publish %d: %d completions when Close returned, want 1", i, o.calls[i])
		}
	}
	o.mu.Unlock()
	c.PublishAsync("e/t", []byte("late"), mqttsn.QoS1, o.done(n))
	o.wait(t, 20*time.Millisecond)
	o.each(t, func(i int, err error) {
		if i < n && !errors.Is(err, mqttsn.ErrClosed) {
			t.Errorf("publish %d: outcome %v, want ErrClosed", i, err)
		}
		if i == n && err == nil {
			t.Error("publish after Close succeeded")
		}
	})
	assertWindowEmpty(t, c)
}

// TestInFlightPublishesStartNoGoroutines: a full window of unanswered
// publishes runs on the client's own loops, not a goroutine each.
func TestInFlightPublishesStartNoGoroutines(t *testing.T) {
	g := startFakeGateway(t)
	const window = 32
	c := engineClient(t, g, mqttsn.ClientConfig{InflightWindow: window})
	nop := func(error) {}
	c.PublishAsync("e/t", []byte{0}, mqttsn.QoS2, nop)
	before := runtime.NumGoroutine()
	for i := 1; i < window; i++ {
		c.PublishAsync("e/t", []byte{byte(i)}, mqttsn.QoS2, nop)
	}
	if n, _ := c.WindowOccupancy(); n != window {
		t.Fatalf("window holds %d publishes, want %d", n, window)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines grew from %d to %d with %d more publishes in flight", before, after, window-1)
	}
}

// maxQoS1PublishAllocs: the decoded PUBACK is 1 allocation on
// linux/amd64, and a socket read through ReadFrom adds the source
// address's 2; the bound leaves room for a platform's socket layer. A
// goroutine, channel or timer per publish would exceed it.
const maxQoS1PublishAllocs = 5

// TestPublishQoS1Allocs bounds the allocations of one QoS 1 publish over
// loopback UDP, acknowledgement included, against a gateway that
// allocates nothing.
func TestPublishQoS1Allocs(t *testing.T) {
	g := startFakeGateway(t)
	g.ack.Store(true)
	c := engineClient(t, g, mqttsn.ClientConfig{})
	payload := make([]byte, 200)
	errc := make(chan error, 1)
	done := func(err error) { errc <- err }
	publish := func() {
		c.PublishAsync("e/t", payload, mqttsn.QoS1, done)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	publish() // warm the pools
	allocs := testing.AllocsPerRun(200, publish)
	t.Logf("%.1f allocs per QoS 1 publish", allocs)
	if allocs > maxQoS1PublishAllocs {
		t.Errorf("%.1f allocs per QoS 1 publish, want <= %d", allocs, maxQoS1PublishAllocs)
	}
}

// hiddenConn hides the socket's ReadFromUDPAddrPort: only the
// net.PacketConn methods are promoted.
type hiddenConn struct{ net.PacketConn }

// addrPortConn is a wrapper that opts in to the allocation-free read.
type addrPortConn struct {
	net.PacketConn
	udp *net.UDPConn
}

func (c addrPortConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	return c.udp.ReadFromUDPAddrPort(b)
}

// TestReadAddrPortAllocs: a client whose socket offers ReadFromUDPAddrPort
// (a *net.UDPConn, or a wrapper that implements it) reads its gateway's
// answers without allocating a source address, so a QoS 1 publish costs
// only the decoded PUBACK. A wrapper that hides the method falls back to
// ReadFrom and still works.
func TestReadAddrPortAllocs(t *testing.T) {
	g := startFakeGateway(t)
	g.ack.Store(true)
	payload := make([]byte, 200)
	measure := func(t *testing.T, tr transport.Transport) float64 {
		c := engineClient(t, g, mqttsn.ClientConfig{Transport: tr})
		errc := make(chan error, 1)
		done := func(err error) { errc <- err }
		publish := func() {
			c.PublishAsync("e/t", payload, mqttsn.QoS1, done)
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		publish()
		return testing.AllocsPerRun(200, publish)
	}
	own := measure(t, nil) // the default transport's dual-stack socket
	optIn := measure(t, transport.WrapDial(transport.UDP{}, func(pc net.PacketConn) net.PacketConn {
		return addrPortConn{pc, pc.(*net.UDPConn)}
	}))
	hidden := measure(t, transport.WrapDial(transport.UDP{}, func(pc net.PacketConn) net.PacketConn {
		return hiddenConn{pc}
	}))
	t.Logf("allocs per QoS 1 publish: own socket %.1f, opt-in wrapper %.1f, ReadFrom %.1f", own, optIn, hidden)
	const maxAddrPortPublishAllocs = 1 // the decoded PUBACK
	if own > maxAddrPortPublishAllocs || optIn > maxAddrPortPublishAllocs {
		t.Errorf("own socket %.1f, opt-in wrapper %.1f allocs per publish, want <= %d", own, optIn, maxAddrPortPublishAllocs)
	}
	if hidden <= own {
		t.Errorf("ReadFrom path %.1f allocs, own socket %.1f: the source address should cost ReadFrom allocations", hidden, own)
	}
}

// TestControlRequestsResentBySweep: a dropped REGISTER and a dropped
// SUBSCRIBE are re-sent by the sweep with the same msgID, the SUBSCRIBE
// flagged DUP, and each copy counts as a retransmission.
func TestControlRequestsResentBySweep(t *testing.T) {
	g := startFakeGateway(t)
	c := dialClient(t, g, mqttsn.ClientConfig{})
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	g.dropCtl.Store(1)
	id, err := c.RegisterTopic("e/r")
	if err != nil || id != 1 {
		t.Fatalf("RegisterTopic = %d, %v; want 1, nil", id, err)
	}
	g.dropCtl.Store(1)
	if err := c.Subscribe("e/s", mqttsn.QoS1, func(string, []byte) {}); err != nil {
		t.Fatal(err)
	}
	ctl := g.controls()
	if len(ctl) != 5 {
		t.Fatalf("gateway saw %+v, want CONNECT and two each of REGISTER and SUBSCRIBE", ctl)
	}
	for i, want := range []gwPacket{
		{mqttsn.CONNECT, 0, false},
		{mqttsn.REGISTER, ctl[1].msgID, false},
		{mqttsn.REGISTER, ctl[1].msgID, false},
		{mqttsn.SUBSCRIBE, ctl[3].msgID, false},
		{mqttsn.SUBSCRIBE, ctl[3].msgID, true},
	} {
		if ctl[i] != want {
			t.Errorf("control request %d = %+v, want %+v", i, ctl[i], want)
		}
	}
	if ctl[1].msgID == ctl[3].msgID {
		t.Errorf("REGISTER and SUBSCRIBE share msgID %d", ctl[1].msgID)
	}
	if st := c.Stats(); st.Retransmissions != 2 {
		t.Errorf("Retransmissions = %d, want 2", st.Retransmissions)
	}
}

// TestUnansweredConnectTimesOut: a CONNECT, with no round trip measured
// yet, is re-sent after the initial 1 s and then 2 s and 2 s more (the
// wait capped at a third of the budget), and Connect fails with
// ErrTimeout at the 6 s budget.
func TestUnansweredConnectTimesOut(t *testing.T) {
	t.Parallel()
	g := startFakeGateway(t)
	g.dropCtl.Store(1 << 20)
	const retries = 3
	c := dialClient(t, g, mqttsn.ClientConfig{})
	start := time.Now()
	if err := c.Connect(); !errors.Is(err, mqttsn.ErrTimeout) {
		t.Fatalf("Connect = %v, want ErrTimeout", err)
	}
	if took := time.Since(start); took < 6*time.Second || took > 7*time.Second {
		t.Errorf("Connect gave up after %v, want the 6s budget", took)
	}
	if n := len(g.controls()); n != 1+retries {
		t.Errorf("gateway saw %d CONNECTs, want %d", n, 1+retries)
	}
	if st := c.Stats(); st.Retransmissions != retries {
		t.Errorf("Retransmissions = %d, want %d", st.Retransmissions, retries)
	}
}

// TestCloseFailsWaitingRegister: Close completes a RegisterTopic waiting
// for its REGACK with ErrClosed, without waiting out its retries.
func TestCloseFailsWaitingRegister(t *testing.T) {
	g := startFakeGateway(t)
	c := dialClient(t, g, mqttsn.ClientConfig{})
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	g.dropCtl.Store(1 << 20)
	errc := make(chan error, 1)
	go func() {
		_, err := c.RegisterTopic("e/r")
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(g.controls()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gateway never saw the REGISTER")
		}
	}
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, mqttsn.ErrClosed) {
			t.Errorf("RegisterTopic = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("RegisterTopic still waiting 1s after Close")
	}
}

// TestConnectedClientRunsTwoGoroutines: a connected client with QoS 2
// publishes in flight runs its read loop and its timer loop, and nothing
// else.
func TestConnectedClientRunsTwoGoroutines(t *testing.T) {
	g := startFakeGateway(t)
	c := engineClient(t, g, mqttsn.ClientConfig{})
	for i := 0; i < 8; i++ {
		c.PublishAsync("e/t", []byte{byte(i)}, mqttsn.QoS2, func(error) {})
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	const creator = "created by github.com/provlight/provlight/internal/mqttsn."
	n := 0
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, creator+"NewClient") || strings.Contains(g, creator+"(*Client)") {
			n++
		}
	}
	if n != 2 {
		t.Errorf("client runs %d goroutines, want 2:\n%s", n, stacks)
	}
}

// TestInboundQoS2AbandonedMsgIDReused: a QoS 2 flow the gateway abandoned
// before its PUBREL does not capture the msgID. Once the gateway's counter
// has moved far past it and wrapped back, a new PUBLISH under that msgID
// is a new message: its PUBREL delivers the new payload, once, and the
// abandoned one never.
func TestInboundQoS2AbandonedMsgIDReused(t *testing.T) {
	g := startFakeGateway(t)
	c := dialClient(t, g, mqttsn.ClientConfig{})
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 16)
	if err := c.Subscribe("e/in", mqttsn.QoS2, func(_ string, payload []byte) {
		got <- string(payload)
	}); err != nil {
		t.Fatal(err)
	}
	publish := func(msgID uint16, data string) {
		g.send(t, &mqttsn.Publish{Flags: mqttsn.Flags{QoS: mqttsn.QoS2}, TopicID: subTopicID, MsgID: msgID, Data: []byte(data)})
	}
	const m = 100
	publish(m, "old") // abandoned: no PUBREL
	for step := uint16(1); step <= 15; step++ {
		publish(m+step<<12, "skipped") // abandoned too
	}
	publish(m, "new")
	rel := &mqttsn.Pubrel{}
	rel.MsgID = m
	g.send(t, rel)
	select {
	case p := <-got:
		if p != "new" {
			t.Fatalf("PUBREL delivered %q, want \"new\"", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("PUBREL delivered nothing")
	}
	select {
	case p := <-got:
		t.Errorf("delivered %q after \"new\"", p)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestInboundQoS2LateDuplicateAfterPubrel: a DUP PUBLISH that arrives
// after its PUBREL, followed by the gateway re-sending the PUBREL (its
// PUBCOMP was lost), is acknowledged again but delivered only once.
func TestInboundQoS2LateDuplicateAfterPubrel(t *testing.T) {
	g := startFakeGateway(t)
	c := dialClient(t, g, mqttsn.ClientConfig{})
	if err := c.Connect(); err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 16)
	if err := c.Subscribe("e/in", mqttsn.QoS2, func(_ string, payload []byte) {
		got <- string(payload)
	}); err != nil {
		t.Fatal(err)
	}
	const m = 7
	rel := &mqttsn.Pubrel{}
	rel.MsgID = m
	g.send(t, &mqttsn.Publish{Flags: mqttsn.Flags{QoS: mqttsn.QoS2}, TopicID: subTopicID, MsgID: m, Data: []byte("once")})
	g.send(t, rel)
	g.send(t, &mqttsn.Publish{Flags: mqttsn.Flags{QoS: mqttsn.QoS2, DUP: true}, TopicID: subTopicID, MsgID: m, Data: []byte("once")})
	g.send(t, rel)
	select {
	case p := <-got:
		if p != "once" {
			t.Fatalf("delivered %q, want \"once\"", p)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("PUBREL delivered nothing")
	}
	deadline := time.After(200 * time.Millisecond)
	for n := 1; ; {
		select {
		case <-got:
			n++
			t.Errorf("delivered %d times, want once", n)
		case <-deadline:
			return
		}
	}
}

// TestResendAndCloseInSendOrder: unanswered publishes are re-sent in the
// order they were sent, and Close fails them in that order.
func TestResendAndCloseInSendOrder(t *testing.T) {
	g := startFakeGateway(t)
	const n = 16
	c := engineClient(t, g, mqttsn.ClientConfig{InflightWindow: n})
	var mu sync.Mutex
	var failed []int
	for i := 0; i < n; i++ {
		c.PublishAsync("e/t", []byte{byte(i)}, mqttsn.QoS1, func(err error) {
			if !errors.Is(err, mqttsn.ErrClosed) {
				t.Errorf("publish %d: outcome %v, want ErrClosed", i, err)
			}
			mu.Lock()
			failed = append(failed, i)
			mu.Unlock()
		})
	}
	var pkts []gwPacket
	for deadline := time.Now().Add(5 * time.Second); len(pkts) < 2*n; pkts = g.packets() {
		if time.Now().After(deadline) {
			t.Fatalf("gateway saw %d PUBLISHes, want %d sends and as many re-sends", len(pkts), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	var sent, resent []uint16
	for _, p := range pkts[:2*n] {
		if p.dup {
			resent = append(resent, p.msgID)
		} else {
			sent = append(sent, p.msgID)
		}
	}
	if fmt.Sprint(resent) != fmt.Sprint(sent) {
		t.Errorf("re-sent %v, want the send order %v", resent, sent)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range failed {
		if p != i {
			t.Fatalf("Close failed publishes in the order %v, want send order", failed)
		}
	}
	if len(failed) != n {
		t.Fatalf("Close failed %d publishes, want %d", len(failed), n)
	}
}

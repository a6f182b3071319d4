package mqttsn_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/transport"
)

// startBroker returns a broker with fast retransmission for test pace.
func startBroker(t *testing.T) *broker.Broker {
	t.Helper()
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func connectClient(t *testing.T, cfg mqttsn.ClientConfig) *mqttsn.Client {
	t.Helper()
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = 150 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
	}
	cfg.CleanSession = true
	c, err := mqttsn.NewClient(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Connect(); err != nil {
		t.Fatalf("connect %s: %v", cfg.ClientID, err)
	}
	return c
}

// publishAsync starts a publish and returns a channel that receives its
// outcome.
func publishAsync(c *mqttsn.Client, topic string, payload []byte, qos mqttsn.QoS) <-chan error {
	errc := make(chan error, 1)
	c.PublishAsync(topic, payload, qos, func(err error) { errc <- err })
	return errc
}

// TestConcurrentPublishAsyncQoS2ExactlyOnceLossy overlaps many QoS 2
// handshakes through a lossy, duplicating link and checks that every flow
// completes, acknowledgements are matched to the right msgID, and the
// broker still delivers each message exactly once despite retransmissions.
func TestConcurrentPublishAsyncQoS2ExactlyOnceLossy(t *testing.T) {
	b := startBroker(t)

	var received sync.Map
	var dupes atomic.Int64
	var handled atomic.Int64
	sub := connectClient(t, mqttsn.ClientConfig{ClientID: "sub-async", Gateway: b.Addr()})
	if err := sub.Subscribe("eo/async", mqttsn.QoS2, func(topic string, payload []byte) {
		if _, loaded := received.LoadOrStore(string(payload), true); loaded {
			dupes.Add(1)
		}
		handled.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	lossy := netem.WrapTransport(transport.UDP{}, netem.Profile{LossRate: 0.2, DupRate: 0.2, Seed: 7})
	pub := connectClient(t, mqttsn.ClientConfig{
		ClientID:       "pub-async",
		Gateway:        b.Addr(),
		Transport:      lossy,
		RetryInterval:  100 * time.Millisecond,
		MaxRetries:     30,
		InflightWindow: 8,
	})

	const n = 40
	chans := make([]<-chan error, n)
	for i := 0; i < n; i++ {
		chans[i] = publishAsync(pub, "eo/async", []byte(fmt.Sprintf("am-%d", i)), mqttsn.QoS2)
	}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatalf("async publish %d: %v", i, err)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		count := 0
		received.Range(func(_, _ any) bool { count++; return true })
		if count == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d unique messages", count, n)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if d := dupes.Load(); d != 0 {
		t.Errorf("QoS 2 delivered %d duplicates; exactly-once violated", d)
	}
	st := pub.Stats()
	if st.Retransmissions == 0 {
		t.Errorf("expected retransmissions over a 20%% lossy link, got none")
	}
	if st.PublishesSent != n {
		t.Errorf("PublishesSent = %d, want %d", st.PublishesSent, n)
	}
}

// TestPublishAsyncWindowLimitsInflight checks the window semaphore:
// with InflightWindow=w over a delayed link, submitting far more than w
// publishes must still keep at most w handshakes in flight, and all flows
// must complete.
func TestPublishAsyncWindowLimitsInflight(t *testing.T) {
	b := startBroker(t)
	// A 20 ms one-way delay makes each QoS 2 handshake take ~40 ms, so
	// overlap (or its absence) is visible in wall-clock time.
	shaped := netem.WrapTransport(transport.UDP{}, netem.Profile{Delay: 20 * time.Millisecond})
	pub := connectClient(t, mqttsn.ClientConfig{
		ClientID:       "pub-window",
		Gateway:        b.Addr(),
		Transport:      shaped,
		RetryInterval:  time.Second,
		InflightWindow: 8,
	})
	// Pre-register so timing below covers only publish flows.
	if _, err := pub.RegisterTopic("win/topic"); err != nil {
		t.Fatal(err)
	}

	const n = 24
	start := time.Now()
	chans := make([]<-chan error, n)
	for i := 0; i < n; i++ {
		chans[i] = publishAsync(pub, "win/topic", []byte{byte(i)}, mqttsn.QoS2)
	}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// Serial stop-and-wait would need n * ~40 ms ≈ 960 ms. A window of 8
	// needs about n/8 * 40 ms ≈ 120 ms; allow generous slack for CI.
	if elapsed > 700*time.Millisecond {
		t.Errorf("24 windowed publishes took %v; window does not overlap handshakes", elapsed)
	}
}

// TestPublishAsyncQoS0And1 covers the non-QoS2 async paths.
func TestPublishAsyncQoS0And1(t *testing.T) {
	b := startBroker(t)
	var count atomic.Int64
	sub := connectClient(t, mqttsn.ClientConfig{ClientID: "sub-q01", Gateway: b.Addr()})
	if err := sub.Subscribe("q01/topic", mqttsn.QoS1, func(string, []byte) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	pub := connectClient(t, mqttsn.ClientConfig{ClientID: "pub-q01", Gateway: b.Addr()})
	if err := <-publishAsync(pub, "q01/topic", []byte("zero"), mqttsn.QoS0); err != nil {
		t.Fatal(err)
	}
	if err := <-publishAsync(pub, "q01/topic", []byte("one"), mqttsn.QoS1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for count.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/2 messages", count.Load())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPublishAsyncAfterClose fails fast instead of hanging on the window.
func TestPublishAsyncAfterClose(t *testing.T) {
	b := startBroker(t)
	pub := connectClient(t, mqttsn.ClientConfig{ClientID: "pub-closed", Gateway: b.Addr()})
	if _, err := pub.RegisterTopic("closed/topic"); err != nil {
		t.Fatal(err)
	}
	pub.Close()
	err := <-publishAsync(pub, "closed/topic", []byte("x"), mqttsn.QoS2)
	if err == nil {
		t.Fatal("publish after close succeeded")
	}
}

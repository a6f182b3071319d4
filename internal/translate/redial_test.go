package translate

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
)

type countTarget struct {
	mu sync.Mutex
	n  int
}

func (c *countTarget) Name() string { return "count" }

func (c *countTarget) DeliverFrames(frames []Frame) error {
	c.mu.Lock()
	for i := range frames {
		c.n += len(frames[i].Records)
	}
	c.mu.Unlock()
	return nil
}

func (c *countTarget) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestTranslatorRedialsDeadSession kills the translator's consumer
// session by closing its socket underneath it and verifies the supervisor
// replaces the session and consumption resumes — the failure mode that
// otherwise leaves the whole pipeline permanently deaf after an overload
// window exhausts the session's retries.
func TestTranslatorRedialsDeadSession(t *testing.T) {
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var conns []net.PacketConn
	dial := func() (net.PacketConn, error) {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		mu.Lock()
		conns = append(conns, pc)
		mu.Unlock()
		return pc, nil
	}

	tgt := &countTarget{}
	tr, err := New(context.Background(), Config{
		Broker:        b.Addr(),
		ClientID:      "redial-tr",
		Targets:       []Target{tgt},
		DialConn:      dial,
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    3,
		DisableAcks:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	publishRecords(t, b.Addr(), sampleRecords(1))
	waitFor(t, "first delivery", func() bool { return tgt.count() > 0 })
	before := tgt.count()

	// Kill the consumer session the way an overload window would: the
	// socket dies, the read loop errors out, OnDisconnect fires.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()
	waitFor(t, "session redial", func() bool { return tr.Stats().SessionRedials >= 1 })

	publishRecords(t, b.Addr(), sampleRecords(1))
	waitFor(t, "post-redial delivery", func() bool { return tgt.count() > before })
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

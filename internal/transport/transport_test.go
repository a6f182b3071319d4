package transport_test

import (
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/transport"
)

// transports under test: every entry must carry a full broker+client
// QoS 2 session indistinguishably from UDP.
func testTransports(t *testing.T) map[string]transport.Transport {
	t.Helper()
	return map[string]transport.Transport{
		"udp":      transport.UDP{},
		"loopback": transport.NewLoopback(),
	}
}

// TestBrokerClientOverTransports runs subscribe + QoS 0/1/2 publish
// through a real broker over each transport.
func TestBrokerClientOverTransports(t *testing.T) {
	for name, tr := range testTransports(t) {
		tr := tr
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := broker.New(broker.Config{Transport: tr, RetryInterval: 200 * time.Millisecond})
			if err != nil {
				t.Fatalf("broker.New: %v", err)
			}
			defer b.Close()

			sub, err := mqttsn.NewClient(mqttsn.ClientConfig{
				ClientID: "sub", Gateway: b.Addr(), Transport: tr,
				RetryInterval: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("sub client: %v", err)
			}
			defer sub.Close()
			if err := sub.Connect(); err != nil {
				t.Fatalf("sub connect: %v", err)
			}
			got := make(chan string, 16)
			if err := sub.Subscribe("prov/+/records", mqttsn.QoS2, func(topic string, payload []byte) {
				got <- topic + "=" + string(payload)
			}); err != nil {
				t.Fatalf("subscribe: %v", err)
			}

			pub, err := mqttsn.NewClient(mqttsn.ClientConfig{
				ClientID: "pub", Gateway: b.Addr(), Transport: tr,
				RetryInterval: 200 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("pub client: %v", err)
			}
			defer pub.Close()
			if err := pub.Connect(); err != nil {
				t.Fatalf("pub connect: %v", err)
			}
			for i, qos := range []mqttsn.QoS{mqttsn.QoS0, mqttsn.QoS1, mqttsn.QoS2} {
				if err := pub.Publish("prov/w1/records", []byte(fmt.Sprintf("p%d", i)), qos); err != nil {
					t.Fatalf("publish qos %d: %v", qos, err)
				}
			}
			for i := 0; i < 3; i++ {
				select {
				case m := <-got:
					want := "prov/w1/records=p" + fmt.Sprint(i)
					if m != want {
						t.Fatalf("message %d: got %q, want %q", i, m, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("timed out waiting for message %d", i)
				}
			}
		})
	}
}

// TestLoopbackSemantics pins the UDP-like behaviors the protocol
// machinery depends on: read deadlines, close unblocking reads, and
// silent drops to dead addresses.
func TestLoopbackSemantics(t *testing.T) {
	lb := transport.NewLoopback()
	srv, err := lb.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cli, gw, err := lb.Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// Deadline in the past times out instead of blocking.
	if err := cli.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatalf("set deadline: %v", err)
	}
	buf := make([]byte, 64)
	if _, _, err := cli.ReadFrom(buf); err == nil {
		t.Fatal("expected deadline error, got packet")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("expected timeout net.Error, got %v", err)
	}
	if err := cli.SetReadDeadline(time.Time{}); err != nil {
		t.Fatalf("clear deadline: %v", err)
	}

	// Round trip client -> server -> client, with source addresses intact.
	if _, err := cli.WriteTo([]byte("ping"), gw); err != nil {
		t.Fatalf("write: %v", err)
	}
	n, from, err := srv.ReadFrom(buf)
	if err != nil {
		t.Fatalf("server read: %v", err)
	}
	if string(buf[:n]) != "ping" {
		t.Fatalf("server got %q", buf[:n])
	}
	if _, err := srv.WriteTo([]byte("pong"), from); err != nil {
		t.Fatalf("server write: %v", err)
	}
	n, from, err = cli.ReadFrom(buf)
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(buf[:n]) != "pong" || from.String() != gw.String() {
		t.Fatalf("client got %q from %v (want pong from %v)", buf[:n], from, gw)
	}

	// Writing to a dead address reports success and drops, like UDP.
	srv.Close()
	if _, err := cli.WriteTo([]byte("lost"), gw); err != nil {
		t.Fatalf("write to closed listener: %v", err)
	}

	// Close unblocks a blocked reader.
	done := make(chan error, 1)
	go func() {
		_, _, err := cli.ReadFrom(buf)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cli.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error from read after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not unblock ReadFrom")
	}
}

// TestWrapTransportDelay checks netem shaping composes with a
// non-UDP transport: a dialed loopback conn sees the configured delay.
func TestWrapTransportDelay(t *testing.T) {
	if os.Getenv("CI") != "" && testing.Short() {
		t.Skip("timing-sensitive")
	}
	lb := transport.NewLoopback()
	shaped := netem.WrapTransport(lb, netem.Profile{Delay: 50 * time.Millisecond})
	srv, err := shaped.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	cli, gw, err := shaped.Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cli.Close()
	start := time.Now()
	if _, err := cli.WriteTo([]byte("x"), gw); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 8)
	if _, _, err := srv.ReadFrom(buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("delay not applied: packet arrived after %v", elapsed)
	}
}

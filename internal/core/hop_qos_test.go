package core

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// packetTally counts the MQTT-SN packets crossing a device's sockets, by
// direction and type, and the QoS of each PUBLISH the device sends.
type packetTally struct {
	mu     sync.Mutex
	sent   map[mqttsn.MsgType]int
	recv   map[mqttsn.MsgType]int
	pubQoS map[mqttsn.QoS]int
}

func newPacketTally() *packetTally {
	return &packetTally{sent: map[mqttsn.MsgType]int{}, recv: map[mqttsn.MsgType]int{}, pubQoS: map[mqttsn.QoS]int{}}
}

func (t *packetTally) note(b []byte, sent bool) {
	pkt, err := mqttsn.Unmarshal(b)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !sent {
		t.recv[pkt.Type()]++
		return
	}
	t.sent[pkt.Type()]++
	if p, ok := pkt.(*mqttsn.Publish); ok {
		t.pubQoS[p.Flags.QoS]++
	}
}

// transport returns a UDP transport whose dialed sockets count every
// datagram they carry in t.
func (t *packetTally) transport() transport.Transport {
	return transport.WrapDial(transport.UDP{}, func(conn net.PacketConn) net.PacketConn { return &tallyConn{conn, t} })
}

type tallyConn struct {
	net.PacketConn
	t *packetTally
}

func (c *tallyConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	c.t.note(b, true)
	return c.PacketConn.WriteTo(b, addr)
}

func (c *tallyConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, addr, err := c.PacketConn.ReadFrom(b)
	if err == nil {
		c.t.note(b[:n], false)
	}
	return n, addr, err
}

// TestHopQoSPerMode pins the QoS of the device hop in each mode. A
// spooled frame crosses it at QoS 1 (PUBLISH + PUBACK): its durable seq,
// the translator's ack and the store's dedup already make it exactly
// once. Memory mode keeps the paper's QoS 2: its sender packs the frames
// already queued into one PUBLISH, and each PUBLISH gets its own four
// packets.
func TestHopQoSPerMode(t *testing.T) {
	const tasks = 10 // two records each
	const frames = 2 * tasks
	for _, spooled := range []bool{false, true} {
		name := "memory"
		if spooled {
			name = "spool"
		}
		t.Run(name, func(t *testing.T) {
			mem := translate.NewMemoryTarget()
			srv, err := StartServer(context.Background(), ServerConfig{
				Addr:    "127.0.0.1:0",
				Targets: []translate.Target{mem},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			tally := newPacketTally()
			cfg := Config{Broker: srv.Addr(), ClientID: "hop-" + name, Transport: tally.transport()}
			if spooled {
				cfg.SpoolDir = t.TempDir()
			}
			client, err := NewClient(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tasks; i++ {
				captureTask(t, client, "wf", i)
			}
			if spooled {
				// The translator's acks can overtake the broker's last
				// PUBACKs; the socket closes at Shutdown.
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
					tally.mu.Lock()
					acked := tally.recv[mqttsn.PUBACK]
					tally.mu.Unlock()
					if acked >= frames {
						break
					}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if err := client.Shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			publishes := client.StatsSnapshot().Publishes
			waitRecords(t, mem, frames)

			tally.mu.Lock()
			defer tally.mu.Unlock()
			// PUBLISHes on the hop at QoS 1 and at QoS 2: one per frame in
			// spool mode, one per pack in memory mode.
			q1, q2 := 0, tally.sent[mqttsn.PUBLISH]
			if spooled {
				q1, q2 = frames, 0
			} else if q2 < 1 || q2 > frames || uint64(q2) != publishes {
				t.Errorf("memory mode sent %d PUBLISHes for %d frames, Stats.Publishes %d", q2, frames, publishes)
			}
			for _, c := range []struct {
				what      string
				got, want int
			}{
				{"PUBLISH QoS 1 sent", tally.pubQoS[mqttsn.QoS1], q1},
				{"PUBACK received", tally.recv[mqttsn.PUBACK], q1},
				{"PUBLISH QoS 2 sent", tally.pubQoS[mqttsn.QoS2], q2},
				{"PUBREC received", tally.recv[mqttsn.PUBREC], q2},
				{"PUBREL sent", tally.sent[mqttsn.PUBREL], q2},
				{"PUBCOMP received", tally.recv[mqttsn.PUBCOMP], q2},
			} {
				if c.got != c.want {
					t.Errorf("%s: %d, want %d (sent %v, received %v)", c.what, c.got, c.want, tally.sent, tally.recv)
				}
			}
		})
	}
}

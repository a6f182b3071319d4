package broker

import (
	"net"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
)

// TestPingFromExpiredSessionGetsDisconnect: a PINGREQ from an address the
// broker has no session for must be answered with DISCONNECT, not
// PINGRESP. Answering PINGRESP would keep a client whose session the
// janitor expired (its pings lost during an overload window) in a zombie
// state forever: pinging happily, subscribed to nothing.
func TestPingFromExpiredSessionGetsDisconnect(t *testing.T) {
	b, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	gw, err := net.ResolveUDPAddr("udp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// No CONNECT first: this socket is exactly what an expired session
	// looks like to the broker.
	if _, err := pc.WriteTo(mqttsn.Marshal(&mqttsn.Pingreq{}), gw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := pc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, _, err := pc.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := mqttsn.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pkt.(*mqttsn.Disconnect); !ok {
		t.Fatalf("expected DISCONNECT for unknown session's ping, got %s", pkt.Type())
	}
}

package netem

import (
	"net"

	"github.com/provlight/provlight/internal/transport"
)

// Transport wraps an inner transport.Transport so every dialed
// connection's writes are shaped by a Profile: the device/client side of
// a link sees the configured delay, bandwidth, loss, and duplication,
// whatever substrate (UDP, loopback) carries the packets.
// Listen is passed through unshaped — shaping the uplink is enough to
// model a constrained edge link, and the server side stays observable.
type Transport struct {
	inner   transport.Transport
	profile Profile
}

// WrapTransport shapes t's dialed connections with p.
func WrapTransport(t transport.Transport, p Profile) *Transport {
	return &Transport{inner: t, profile: p}
}

// Listen implements transport.Transport (unshaped pass-through).
func (t *Transport) Listen(addr string) (net.PacketConn, error) {
	return t.inner.Listen(addr)
}

// Dial implements transport.Transport, wrapping the dialed conn in the
// shaper.
func (t *Transport) Dial(addr string) (net.PacketConn, net.Addr, error) {
	pc, gw, err := t.inner.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	return WrapPacketConn(pc, t.profile), gw, nil
}

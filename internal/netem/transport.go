package netem

import (
	"net"
	"sync/atomic"

	"github.com/provlight/provlight/internal/transport"
)

// WrapTransport shapes the writes of every connection t dials with p: the
// device/client side of a link sees the configured delay, bandwidth,
// loss, and duplication, whatever substrate (UDP, loopback) carries the
// packets. Listen is passed through unshaped — shaping the uplink is
// enough to model a constrained edge link, and the server side stays
// observable.
//
// Dial n (counting from 0) is shaped with Seed+n, so the links a
// reconnecting client dials in turn drop different packets and each
// link's pattern is reproducible.
func WrapTransport(t transport.Transport, p Profile) transport.Transport {
	var dials atomic.Int64
	return transport.WrapDial(t, func(pc net.PacketConn) net.PacketConn {
		q := p
		q.Seed += dials.Add(1) - 1
		return WrapPacketConn(pc, q)
	})
}

// Package transport abstracts the packet substrate the MQTT-SN broker
// and client speak over. Both sides of the protocol are written against
// net.PacketConn, so a Transport only has to produce listening and
// dialed PacketConns plus the address book that connects them:
//
//   - UDP is the production path (one datagram per MQTT-SN packet),
//   - Loopback is an in-process channel-backed substrate for fast,
//     deterministic tests and single-binary multi-node clusters.
//
// A Transport is the only way to give internal/broker, internal/mqttsn,
// internal/core, internal/translate or internal/cluster a socket; nil
// means UDP. Shaped links (netem.WrapTransport) and injected faults
// (chaos.Fault.Transport) wrap a Transport rather than a socket, so one
// seam owns every socket the pipeline opens.
package transport

import (
	"fmt"
	"net"
)

// Transport produces the packet endpoints a broker listens on and a
// client dials. Implementations must return PacketConns whose ReadFrom
// unblocks with an error after Close (the broker's and the mqttsn
// client's Close paths depend on it).
type Transport interface {
	// Listen opens a server endpoint. An empty addr picks a transport
	// default (UDP: 127.0.0.1 with an ephemeral port; loopback: an
	// auto-generated name). The returned conn's LocalAddr().String() is
	// the address clients Dial.
	Listen(addr string) (net.PacketConn, error)

	// Dial opens a client endpoint talking to the listener at addr and
	// returns it together with the resolved gateway address packets
	// should be written to (and will appear to arrive from).
	Dial(addr string) (net.PacketConn, net.Addr, error)
}

// UDP is the default transport: plain datagrams, one per MQTT-SN
// packet. It preserves the exact pre-cluster behavior of the broker and
// client.
type UDP struct{}

// Listen implements Transport.
func (UDP) Listen(addr string) (net.PacketConn, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.ListenPacket("udp", addr)
}

// Dial implements Transport.
func (UDP) Dial(addr string) (net.PacketConn, net.Addr, error) {
	gw, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenPacket("udp", ":0")
	if err != nil {
		return nil, nil, err
	}
	return conn, gw, nil
}

// WrapDial returns t with every conn it dials passed through wrap; Listen
// is t's own. Link shaping (netem.WrapTransport) and fault injection
// (chaos.Fault.Transport) sit on the dialing side this way.
func WrapDial(t Transport, wrap func(net.PacketConn) net.PacketConn) Transport {
	return wrapDial{t, wrap}
}

type wrapDial struct {
	Transport
	wrap func(net.PacketConn) net.PacketConn
}

func (w wrapDial) Dial(addr string) (net.PacketConn, net.Addr, error) {
	pc, gw, err := w.Transport.Dial(addr)
	if err != nil {
		return nil, nil, err
	}
	return w.wrap(pc), gw, nil
}

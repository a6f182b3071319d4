// Package chaos is the fault-injection harness for robustness tests:
// runtime-togglable network faults (partition, delay, loss) wrapped
// around net.Conn, net.PacketConn or a transport.Transport,
// process-style kill grouping for in-process components, and disk-fault
// helpers that damage WAL segments the way real crashes and bad sectors
// do.
//
// Unlike internal/netem — a *stationary* traffic shaper configured once —
// a chaos.Fault is mutated while traffic flows: tests Partition() mid
// stream, assert recovery behaviour, then Heal(). All toggles are safe
// for concurrent use with live connections.
package chaos

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/transport"
)

// ErrPartitioned is the error injected into reads and writes crossing a
// partitioned Fault. It satisfies net.Error with Timeout() == false, so
// callers treat it like a hard connection failure, not a retryable
// timeout.
var ErrPartitioned = &netError{msg: "chaos: link partitioned"}

type netError struct{ msg string }

func (e *netError) Error() string   { return e.msg }
func (e *netError) Timeout() bool   { return false }
func (e *netError) Temporary() bool { return false }

// Fault is a runtime-mutable fault description shared by every
// connection wrapped with it. The zero value injects nothing.
type Fault struct {
	partitioned atomic.Bool
	delayNanos  atomic.Int64
	lossMilli   atomic.Int64 // packet loss probability in 1/1000ths

	mu  sync.Mutex
	rng *rand.Rand

	// conns tracks live wrapped connections so Partition can sever them
	// immediately rather than only failing future I/O.
	connMu sync.Mutex
	conns  map[io.Closer]struct{}
}

// NewFault returns a fault descriptor with no faults active. seed makes
// probabilistic faults (loss) deterministic; 0 uses a fixed default.
func NewFault(seed int64) *Fault {
	if seed == 0 {
		seed = 42
	}
	return &Fault{
		rng:   rand.New(rand.NewSource(seed)),
		conns: map[io.Closer]struct{}{},
	}
}

// Partition severs the link. Every current and future read or write on
// wrapped stream connections fails with ErrPartitioned, and live stream
// connections are closed so blocked I/O unblocks immediately (the
// TCP-reset view of a network partition, which is what a killed or
// unreachable peer looks like to the other side). Wrapped packet
// connections stay open and send into a blackhole until Heal.
func (f *Fault) Partition() {
	f.partitioned.Store(true)
	f.connMu.Lock()
	conns := make([]io.Closer, 0, len(f.conns))
	for c := range f.conns {
		conns = append(conns, c)
	}
	f.connMu.Unlock()
	// Close outside the lock: each wrapped Close untracks itself.
	for _, c := range conns {
		_ = c.Close()
	}
}

// Heal ends the partition: new connections succeed again, and wrapped
// packet connections carry traffic again. Stream connections severed by
// Partition stay dead — reconnection is the caller's job, which is
// exactly what the tests exercise.
func (f *Fault) Heal() { f.partitioned.Store(false) }

// Partitioned reports whether the link is currently partitioned.
func (f *Fault) Partitioned() bool { return f.partitioned.Load() }

// SetDelay adds d of one-way latency to every wrapped read.
func (f *Fault) SetDelay(d time.Duration) { f.delayNanos.Store(int64(d)) }

// SetLoss drops wrapped packets with probability p (PacketConn only;
// stream conns cannot lose bytes without corrupting the stream).
func (f *Fault) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	f.lossMilli.Store(int64(p * 1000))
}

func (f *Fault) dropPacket() bool {
	m := f.lossMilli.Load()
	if m <= 0 {
		return false
	}
	f.mu.Lock()
	drop := f.rng.Int63n(1000) < m
	f.mu.Unlock()
	return drop
}

func (f *Fault) delay() {
	if d := f.delayNanos.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func (f *Fault) track(c io.Closer) {
	f.connMu.Lock()
	f.conns[c] = struct{}{}
	f.connMu.Unlock()
}

func (f *Fault) untrack(c io.Closer) {
	f.connMu.Lock()
	delete(f.conns, c)
	f.connMu.Unlock()
}

// WrapConn wraps a stream connection with the fault. Reads and writes
// fail with ErrPartitioned while partitioned; reads are delayed by the
// configured latency.
func (f *Fault) WrapConn(c net.Conn) net.Conn {
	fc := &faultConn{Conn: c, f: f}
	f.track(fc)
	return fc
}

type faultConn struct {
	net.Conn
	f      *Fault
	closed atomic.Bool
}

func (c *faultConn) Read(p []byte) (int, error) {
	if c.f.Partitioned() {
		return 0, ErrPartitioned
	}
	n, err := c.Conn.Read(p)
	if err == nil {
		c.f.delay()
	}
	if c.f.Partitioned() {
		return 0, ErrPartitioned
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.f.Partitioned() {
		return 0, ErrPartitioned
	}
	return c.Conn.Write(p)
}

func (c *faultConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.f.untrack(c)
	}
	return c.Conn.Close()
}

// WrapPacketConn wraps a packet connection: sends are dropped with the
// configured loss probability and blackholed entirely while partitioned
// (UDP-style partitions are silent, not connection resets).
func (f *Fault) WrapPacketConn(pc net.PacketConn) net.PacketConn {
	return &faultPacketConn{PacketConn: pc, f: f}
}

type faultPacketConn struct {
	net.PacketConn
	f *Fault
}

func (c *faultPacketConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if c.f.Partitioned() || c.f.dropPacket() {
		return len(p), nil // silently dropped, like the real network
	}
	c.f.delay()
	return c.PacketConn.WriteTo(p, addr)
}

// Transport wraps t so every connection it dials carries the fault
// (WrapPacketConn). Listen passes through: like netem.WrapTransport, the
// fault sits on the dialing side's uplink.
func (f *Fault) Transport(t transport.Transport) transport.Transport {
	return transport.WrapDial(t, f.WrapPacketConn)
}

// Dialer returns a net.Dial-compatible function that fails while
// partitioned and wraps successful connections with the fault, so every
// reconnection attempt passes through the same kill switch.
func (f *Fault) Dialer(dial func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	if dial == nil {
		dial = net.Dial
	}
	return func(network, addr string) (net.Conn, error) {
		if f.Partitioned() {
			return nil, ErrPartitioned
		}
		c, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return f.WrapConn(c), nil
	}
}

// ---- process kill grouping ----

// Proc groups the teardown hooks of one logical "process" (a server, its
// listeners, its stores) so a test can SIGKILL it as a unit: every hook
// runs immediately, in registration order, with no graceful shutdown.
// Hooks are abrupt teardown functions — net.Listener.Close, wal.Log
// abandonment, server Close — NOT flushing closers.
type Proc struct {
	mu     sync.Mutex
	hooks  []func()
	killed bool
}

// NewProc returns an empty process group.
func NewProc() *Proc { return &Proc{} }

// OnKill registers an abrupt-teardown hook. If the process was already
// killed the hook runs immediately.
func (p *Proc) OnKill(hook func()) {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		hook()
		return
	}
	p.hooks = append(p.hooks, hook)
	p.mu.Unlock()
}

// Kill runs every registered hook, once. Like a real SIGKILL there is no
// ordering grace: buffered state not yet durable is lost, which is the
// point — tests assert the durable layers recover without it.
func (p *Proc) Kill() {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		return
	}
	p.killed = true
	hooks := p.hooks
	p.hooks = nil
	p.mu.Unlock()
	for _, h := range hooks {
		h()
	}
}

// Killed reports whether Kill ran.
func (p *Proc) Killed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

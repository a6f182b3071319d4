package netem

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/provlight/provlight/internal/transport"
)

func TestWireBytes(t *testing.T) {
	l := Link{OverheadBytes: 40, MTU: 1000}
	cases := []struct{ in, want int }{
		{0, 0},
		{1, 41},
		{1000, 1040},
		{1001, 1081}, // two segments
		{2500, 2620}, // three segments
	}
	for _, c := range cases {
		if got := l.WireBytes(c.in); got != c.want {
			t.Errorf("WireBytes(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestWireBytesNoMTU(t *testing.T) {
	l := Link{OverheadBytes: 28}
	if got := l.WireBytes(5000); got != 5028 {
		t.Errorf("WireBytes = %d, want 5028", got)
	}
}

func TestTxTime(t *testing.T) {
	l := Link{BandwidthBps: 8000} // 1000 bytes/sec
	// 100 bytes, no overhead: 100ms.
	if got := l.TxTime(100); got != 100*time.Millisecond {
		t.Errorf("TxTime = %v, want 100ms", got)
	}
	if got := (Link{}).TxTime(100); got != 0 {
		t.Errorf("unlimited link TxTime = %v, want 0", got)
	}
	if got := l.TxTime(0); got != 0 {
		t.Errorf("TxTime(0) = %v, want 0", got)
	}
}

func TestRTT(t *testing.T) {
	if got := GigabitEdge.RTT(); got != 23*time.Millisecond {
		t.Errorf("edge RTT = %v, want 23ms (paper's netem delay budget)", got)
	}
}

func TestShortFlowFactor(t *testing.T) {
	if f := GigabitEdge.ShortFlowFactor(1500); f != 1.0 {
		t.Errorf("fast link factor = %v, want 1.0", f)
	}
	slow := Constrained25Kbit
	if f := slow.ShortFlowFactor(1500); f != 1.45 {
		t.Errorf("short slow-flow factor = %v, want 1.45", f)
	}
	if f := slow.ShortFlowFactor(64 * 1024); f != 1.45 {
		t.Errorf("bulk slow-flow factor = %v, want 1.45 (window never opens at 25 Kbit/23 ms)", f)
	}
	if f := slow.ShortFlowFactor(0); f != 1.0 {
		t.Errorf("zero-byte flow factor = %v, want 1.0", f)
	}
}

func TestRequestResponseTimeDominatedByBandwidthWhenSlow(t *testing.T) {
	fast := GigabitEdge.RequestResponseTime(1500, 200)
	slow := Constrained25Kbit.RequestResponseTime(1500, 200)
	if fast >= slow {
		t.Errorf("fast=%v should be < slow=%v", fast, slow)
	}
	// On the fast link the exchange is ~RTT.
	if fast < GigabitEdge.RTT() || fast > GigabitEdge.RTT()+time.Millisecond {
		t.Errorf("fast exchange = %v, want ~%v", fast, GigabitEdge.RTT())
	}
	// On 25 Kbit, 1.7 KB at 1.45x inflation is ~0.85s.
	if slow < 500*time.Millisecond || slow > 2*time.Second {
		t.Errorf("slow exchange = %v, want ~0.85s", slow)
	}
}

// Property: TxTime is monotone in payload size and additive within one
// segment (no MTU crossing).
func TestTxTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		l := Link{BandwidthBps: 1e6, OverheadBytes: 40, MTU: 1460}
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return l.TxTime(x) <= l.TxTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapConnShapesWrites(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		buf := make([]byte, 1024)
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
		}
	}()
	// 8000 bps = 1000 B/s; 100 bytes should take ~100ms.
	wrapped := WrapConn(c1, Profile{BandwidthBps: 8000})
	start := time.Now()
	if _, err := wrapped.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 80*time.Millisecond {
		t.Errorf("write took %v, want >= ~100ms of pacing", elapsed)
	}
}

func TestWrapPacketConnLossIsDeterministic(t *testing.T) {
	recvCount := func(seed int64) int {
		server, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		client, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lossy := WrapPacketConn(client, Profile{LossRate: 0.5, Seed: seed})
		defer lossy.Close()

		done := make(chan int)
		go func() {
			n := 0
			buf := make([]byte, 64)
			for {
				server.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				if _, _, err := server.ReadFrom(buf); err != nil {
					done <- n
					return
				}
				n++
			}
		}()
		for i := 0; i < 40; i++ {
			if _, err := lossy.WriteTo([]byte{byte(i)}, server.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		return <-done
	}
	a := recvCount(7)
	b := recvCount(7)
	if a != b {
		t.Errorf("same seed produced different delivery counts: %d vs %d", a, b)
	}
	if a == 0 || a == 40 {
		t.Errorf("50%% loss delivered %d/40 packets; expected some but not all", a)
	}
}

func TestWrapPacketConnDuplication(t *testing.T) {
	server, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dup := WrapPacketConn(client, Profile{DupRate: 1.0, Seed: 3})
	defer dup.Close()

	if _, err := dup.WriteTo([]byte("x"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	got := 0
	buf := make([]byte, 16)
	for {
		server.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if _, _, err := server.ReadFrom(buf); err != nil {
			break
		}
		got++
	}
	if got != 2 {
		t.Errorf("DupRate=1 delivered %d copies, want 2", got)
	}
}

// TestWrapTransportSeedsEachDial: the conns a shaped transport dials in
// turn drop different packets (dial n is seeded Seed+n), and a fresh
// transport with the same profile reproduces each dial's pattern.
func TestWrapTransportSeedsEachDial(t *testing.T) {
	delivered := func() [2]string {
		lb := transport.NewLoopback()
		ln, err := lb.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		shaped := WrapTransport(lb, Profile{LossRate: 0.5, Seed: 7})
		var got [2]string
		for d := range got {
			conn, gw, err := shaped.Dial(ln.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if _, err := conn.WriteTo([]byte{byte(i)}, gw); err != nil {
					t.Fatal(err)
				}
			}
			conn.Close()
			buf := make([]byte, 8)
			for {
				ln.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
				n, _, err := ln.ReadFrom(buf)
				if err != nil {
					break
				}
				got[d] += fmt.Sprintf("%d,", buf[:n])
			}
		}
		return got
	}
	first, second := delivered(), delivered()
	if first != second {
		t.Errorf("same profile, different drop patterns:\n%v\n%v", first, second)
	}
	if first[0] == first[1] {
		t.Errorf("two dials dropped the same packets: %s", first[0])
	}
	for d, pattern := range first {
		if n := strings.Count(pattern, ","); n == 0 || n == 64 {
			t.Errorf("dial %d: 50%% loss delivered %d/64 packets", d, n)
		}
	}
}

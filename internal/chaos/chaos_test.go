package chaos

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wal"
)

// echoServer accepts connections and echoes bytes until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				for {
					n, err := c.Read(buf)
					if err != nil {
						return
					}
					if _, err := c.Write(buf[:n]); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return lis
}

func TestFaultPartitionSeversLiveConnsAndHeals(t *testing.T) {
	lis := echoServer(t)
	defer lis.Close()

	f := NewFault(1)
	dial := f.Dialer(nil)
	conn, err := dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo before partition: %q, %v", buf[:n], err)
	}

	// Partition while a read is blocked: it must unblock with an error
	// promptly, not hang until a timeout.
	readErr := make(chan error, 1)
	go func() {
		_, err := conn.Read(buf)
		readErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block
	f.Partition()
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatal("blocked read returned nil error across a partition")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked read did not unblock on Partition")
	}

	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("write while partitioned: %v, want ErrPartitioned", err)
	}
	if _, err := dial("tcp", lis.Addr().String()); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dial while partitioned: %v, want ErrPartitioned", err)
	}
	var ne net.Error
	if !errors.As(error(ErrPartitioned), &ne) || ne.Timeout() {
		t.Fatal("ErrPartitioned must be a non-timeout net.Error")
	}

	f.Heal()
	c2, err := dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if n, err := c2.Read(buf); err != nil || string(buf[:n]) != "pong" {
		t.Fatalf("echo after heal: %q, %v", buf[:n], err)
	}
}

// TestPacketConnLossAndPartitionAreSilent: every conn the fault's
// transport dials loses packets and blackholes them while partitioned,
// with sends still reporting success, and carries traffic again after
// Heal.
func TestPacketConnLossAndPartitionAreSilent(t *testing.T) {
	rx, err := transport.UDP{}.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	f := NewFault(1)
	tr := f.Transport(transport.UDP{})
	var conns []net.PacketConn
	var gw net.Addr
	for i := 0; i < 2; i++ {
		conn, addr, err := tr.Dial(rx.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns, gw = append(conns, conn), addr
	}

	recv := func(timeout time.Duration) (string, bool) {
		rx.SetReadDeadline(time.Now().Add(timeout))
		buf := make([]byte, 64)
		n, _, err := rx.ReadFrom(buf)
		if err != nil {
			return "", false
		}
		return string(buf[:n]), true
	}
	// sendAll sends msg on every conn and counts the copies that arrive.
	sendAll := func(msg string, timeout time.Duration) int {
		arrived := 0
		for i, conn := range conns {
			m := fmt.Sprintf("%s-%d", msg, i)
			if n, err := conn.WriteTo([]byte(m), gw); err != nil || n != len(m) {
				t.Fatalf("send %q must report success: n=%d err=%v", m, n, err)
			}
			if got, ok := recv(timeout); ok {
				if got != m {
					t.Fatalf("sent %q, received %q", m, got)
				}
				arrived++
			}
		}
		return arrived
	}

	if n := sendAll("hello", 2*time.Second); n != len(conns) {
		t.Fatalf("clean send: %d of %d arrived", n, len(conns))
	}

	// Total loss: sends report success but nothing arrives.
	f.SetLoss(1.0)
	if n := sendAll("lost", 100*time.Millisecond); n != 0 {
		t.Fatalf("%d dropped packets arrived", n)
	}
	f.SetLoss(0)

	// UDP partitions blackhole silently rather than erroring.
	f.Partition()
	if n := sendAll("void", 100*time.Millisecond); n != 0 {
		t.Fatalf("%d packets crossed the partition", n)
	}

	// Heal restores the same conns: a packet partition closes nothing.
	f.Heal()
	if n := sendAll("healed", 2*time.Second); n != len(conns) {
		t.Fatalf("after heal: %d of %d arrived", n, len(conns))
	}
}

func TestProcKillRunsHooksOnceAndImmediatelyAfter(t *testing.T) {
	p := NewProc()
	var order []string
	p.OnKill(func() { order = append(order, "a") })
	p.OnKill(func() { order = append(order, "b") })
	if p.Killed() {
		t.Fatal("Killed before Kill")
	}
	p.Kill()
	p.Kill() // idempotent
	if !p.Killed() || len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("hooks after Kill: %v (killed=%v)", order, p.Killed())
	}
	// Late registration on a dead proc runs immediately.
	p.OnKill(func() { order = append(order, "late") })
	if len(order) != 3 || order[2] != "late" {
		t.Fatalf("late hook: %v", order)
	}
}

// TestDiskFaultsAgainstWAL damages real WAL segments the way the disk
// helpers are meant to be used: a torn tail is truncated away on reopen,
// and a flipped byte in a sealed segment is quarantined — in both cases
// the log stays open for business.
func TestDiskFaultsAgainstWAL(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(dir, "*.wal")
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}

	// Tear the active segment's tail: the last record is lost, the rest
	// replay.
	if err := TearTail(segs[len(segs)-1], 3); err != nil {
		t.Fatal(err)
	}
	l2, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 256})
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	if l2.TruncatedBytes() == 0 {
		t.Fatal("torn tail not detected")
	}
	if last := l2.LastSeq(); last != 59 {
		t.Fatalf("LastSeq after torn tail = %d, want 59", last)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the first (sealed) segment: that segment is
	// quarantined, but the log still opens and appends.
	if err := FlipByte(segs[0], 12); err != nil {
		t.Fatal(err)
	}
	l3, err := wal.Open(dir, wal.Options{Sync: wal.SyncOff, SegmentSize: 256})
	if err != nil {
		t.Fatalf("open after flipped byte: %v", err)
	}
	defer l3.Close()
	if l3.Quarantined() == 0 {
		t.Fatal("corrupt sealed segment not quarantined")
	}
	if _, err := l3.Append([]byte("after-damage")); err != nil {
		t.Fatalf("append after quarantine: %v", err)
	}
}

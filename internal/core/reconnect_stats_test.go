package core

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// TestReconnectCountersSurface: while the broker is down, the drainer's
// retry state is visible in StatsSnapshot — attempts climb, consecutive
// failures climb, and the next-retry deadline is published; a successful
// reconnect clears the failure streak. Run with -race: the counters are
// read here while the drainer goroutine writes them.
func TestReconnectCountersSurface(t *testing.T) {
	// No broker listens on loopAddr yet, and its host refuses the
	// drainer's dials.
	lb := &refuseDial{Transport: transport.NewLoopback()}
	lb.down.Store(true)
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "retry-stats-device",
		SpoolDir:          t.TempDir(),
		RedeliverAfter:    500 * time.Millisecond,
		ReconnectMinDelay: 20 * time.Millisecond,
		ReconnectMaxDelay: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient must succeed with the broker down: %v", err)
	}
	captureTask(t, client, "wf", 0)

	deadline := time.Now().Add(10 * time.Second)
	var sawDeadline bool
	for {
		st := client.StatsSnapshot()
		if st.NextRetryUnixNano > 0 {
			sawDeadline = true
		}
		if st.ReconnectAttempts >= 2 && st.ReconnectConsecFailures >= 2 && sawDeadline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry state never surfaced: %+v (sawDeadline=%v)", st, sawDeadline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv := startLoopServer(t, lb.Transport.(*transport.Loopback), translate.NewMemoryTarget())
	defer srv.Close()
	lb.down.Store(false)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, client.StatsSnapshot())
	}
	st := client.StatsSnapshot()
	if st.SpoolReconnects == 0 {
		t.Fatalf("no successful reconnect counted: %+v", st)
	}
	if st.ReconnectConsecFailures != 0 {
		t.Fatalf("failure streak not cleared by successful session: %+v", st)
	}
	if st.ReconnectAttempts < 2 {
		t.Fatalf("attempt counter regressed: %+v", st)
	}
}

// refuseDial fails every dial while down is set, as a host with no
// listener on the port does, so each failure comes at once rather than
// after a silent broker's 6 s give-up budget.
type refuseDial struct {
	transport.Transport
	down atomic.Bool
}

func (r *refuseDial) Dial(addr string) (net.PacketConn, net.Addr, error) {
	if r.down.Load() {
		return nil, nil, errors.New("connection refused")
	}
	return r.Transport.Dial(addr)
}

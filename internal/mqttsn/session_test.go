package mqttsn_test

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/resilience"
	"github.com/provlight/provlight/internal/transport"
)

// dialLog wraps a transport and records the gateway of every dial. A dial
// to a gateway in refuse fails at once, as to a host that answers with
// port unreachable, where a silent one would fail the CONNECT only after
// the 6 s give-up budget.
type dialLog struct {
	transport.Transport
	refuse map[string]bool
	mu     sync.Mutex
	addrs  []string
}

func (d *dialLog) Dial(addr string) (net.PacketConn, net.Addr, error) {
	d.mu.Lock()
	d.addrs = append(d.addrs, addr)
	d.mu.Unlock()
	if d.refuse[addr] {
		return nil, nil, errors.New("refused")
	}
	return d.Transport.Dial(addr)
}

func (d *dialLog) dialed() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.addrs...)
}

func loopBroker(t *testing.T, lb *transport.Loopback, addr string, maxSessions int) *broker.Broker {
	t.Helper()
	b, err := broker.New(broker.Config{Addr: addr, Transport: lb, MaxSessions: maxSessions})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

// fastClient notices a silent gateway within ~300 ms.
func fastClient(tr transport.Transport, id string) mqttsn.ClientConfig {
	return mqttsn.ClientConfig{
		ClientID:     id,
		Gateway:      "gw",
		Transport:    tr,
		KeepAlive:    200 * time.Millisecond,
		CleanSession: true,
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// closesPromptly fails the test when s.Close takes longer than 500 ms.
func closesPromptly(t *testing.T, s *mqttsn.Session) {
	t.Helper()
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("Close took %v", took)
	}
}

func TestSession(t *testing.T) {
	fast := resilience.Backoff{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	cases := []struct {
		name string
		run  func(t *testing.T, lb *transport.Loopback)
	}{
		{"redials after broker restart and reruns Setup", func(t *testing.T, lb *transport.Loopback) {
			b := loopBroker(t, lb, "gw", 0)
			var setups atomic.Int32
			s := mqttsn.NewSession(mqttsn.SessionConfig{
				Client: fastClient(lb, "restart"),
				Setup: func(mc *mqttsn.Client) error {
					setups.Add(1)
					return mc.Subscribe("t/+", mqttsn.QoS1, func(string, []byte) {})
				},
				Backoff: fast,
			})
			s.Start()
			defer s.Close()
			waitFor(t, "first connect", func() bool { return s.Client() != nil && setups.Load() == 1 })
			b.Close()
			waitFor(t, "session down", func() bool { return s.Client() == nil })
			loopBroker(t, lb, "gw", 0)
			waitFor(t, "redial", func() bool { return s.Stats().Connects == 2 && s.Client() != nil })
			if got := setups.Load(); got != 2 {
				t.Fatalf("Setup ran %d times, want 2", got)
			}
			if st := s.Stats(); st.Redials() != 1 || st.ConsecFailures != 0 {
				t.Fatalf("stats after redial: %+v", st)
			}
		}},
		{"stop during backoff returns promptly", func(t *testing.T, lb *transport.Loopback) {
			s := mqttsn.NewSession(mqttsn.SessionConfig{
				Client:  fastClient(&dialLog{Transport: lb, refuse: map[string]bool{"gw": true}}, "backoff"),
				Backoff: resilience.Backoff{Min: 10 * time.Second, Max: 10 * time.Second},
			})
			s.Start()
			waitFor(t, "backoff sleep", func() bool { return s.Stats().NextRetryUnixNano > 0 })
			closesPromptly(t, s)
		}},
		{"stop during blocked Connect returns promptly", func(t *testing.T, lb *transport.Loopback) {
			s := mqttsn.NewSession(mqttsn.SessionConfig{Client: fastClient(lb, "blocked"), Backoff: fast})
			s.Start()
			waitFor(t, "dial", func() bool { return s.Stats().Attempts == 1 })
			time.Sleep(50 * time.Millisecond)
			closesPromptly(t, s)
		}},
		{"permanent error ends the session", func(t *testing.T, lb *transport.Loopback) {
			var failures atomic.Int32
			s := mqttsn.NewSession(mqttsn.SessionConfig{
				Client:  fastClient(&dialLog{Transport: lb, refuse: map[string]bool{"gw": true}}, "permanent"),
				Backoff: fast,
				OnDialError: func(_ int, err error) error {
					failures.Add(1)
					return resilience.Permanent(err)
				},
			})
			s.Start()
			waitFor(t, "first failure", func() bool { return failures.Load() == 1 })
			time.Sleep(200 * time.Millisecond)
			if got := s.Stats().Attempts; got != 1 {
				t.Fatalf("%d dials after a permanent error, want 1", got)
			}
			closesPromptly(t, s)
		}},
		{"congestion rejection waits at least 1s", func(t *testing.T, lb *transport.Loopback) {
			loopBroker(t, lb, "gw", 1)
			hog, err := mqttsn.NewClient(fastClient(lb, "hog"))
			if err != nil {
				t.Fatal(err)
			}
			defer hog.Close()
			if err := hog.Connect(); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var starts []time.Time
			var congested atomic.Int32
			s := mqttsn.NewSession(mqttsn.SessionConfig{
				Client: fastClient(lb, "x"),
				ClientID: func() string {
					mu.Lock()
					starts = append(starts, time.Now())
					mu.Unlock()
					return "congested"
				},
				Backoff: fast,
				OnDialError: func(_ int, err error) error {
					if errors.Is(err, mqttsn.ErrCongestion) {
						congested.Add(1)
					}
					return err
				},
			})
			s.Start()
			defer s.Close()
			waitFor(t, "second dial", func() bool { return s.Stats().Attempts >= 2 })
			if congested.Load() == 0 {
				t.Fatal("first dial was not rejected for congestion")
			}
			mu.Lock()
			gap := starts[1].Sub(starts[0])
			mu.Unlock()
			if gap < mqttsn.CongestionRetryAfter {
				t.Fatalf("redialed %v after a congestion rejection, want >= %v", gap, mqttsn.CongestionRetryAfter)
			}
		}},
		{"gateways rotate home first", func(t *testing.T, lb *transport.Loopback) {
			log := &dialLog{Transport: lb, refuse: map[string]bool{"gw-a": true, "gw-b": true}}
			c := loopBroker(t, lb, "gw-c", 0)
			s := mqttsn.NewSession(mqttsn.SessionConfig{
				Client:   fastClient(log, "rotate"),
				Gateways: []string{"gw-a", "gw-b", "gw-c"},
				Home:     1,
				Backoff:  fast,
			})
			s.Start()
			defer s.Close()
			waitFor(t, "connect on gw-c", func() bool { return s.Client() != nil })
			c.Close()
			waitFor(t, "redial after gw-c died", func() bool { return len(log.dialed()) >= 3 })
			got := log.dialed()[:3]
			want := []string{"gw-b", "gw-c", "gw-b"}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dial order %v, want %v", got, want)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.run(t, transport.NewLoopback())
		})
	}
}

package broker

import (
	"errors"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
)

func dialRaw(t *testing.T, b *Broker, id string) *mqttsn.Client {
	t.Helper()
	c, err := mqttsn.NewClient(mqttsn.ClientConfig{
		ClientID:     id,
		Gateway:      b.Addr(),
		KeepAlive:    5 * time.Second,
		CleanSession: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestAdmissionSessionCap(t *testing.T) {
	b, err := New(Config{Addr: "127.0.0.1:0", MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	for i, id := range []string{"cap-a", "cap-b"} {
		if err := dialRaw(t, b, id).Connect(); err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	// A third, new client id is over the cap: congestion rejection.
	if err := dialRaw(t, b, "cap-c").Connect(); !errors.Is(err, mqttsn.ErrCongestion) {
		t.Fatalf("over-cap connect err = %v, want ErrCongestion", err)
	}
	// A reconnect of an existing id replaces its session and must be
	// admitted even at the cap.
	if err := dialRaw(t, b, "cap-a").Connect(); err != nil {
		t.Fatalf("reconnect at cap: %v", err)
	}
	if got := b.Stats().CongestionRejected; got != 1 {
		t.Fatalf("CongestionRejected = %d, want 1", got)
	}
}

func TestAdmissionConnectRate(t *testing.T) {
	// Burst of 2, refilling far too slowly to matter inside the test.
	b, err := New(Config{Addr: "127.0.0.1:0", ConnectRate: 0.001, ConnectBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	accepted, rejected := 0, 0
	for i := 0; i < 5; i++ {
		err := dialRaw(t, b, "rate-"+string(rune('a'+i))).Connect()
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, mqttsn.ErrCongestion):
			rejected++
		default:
			t.Fatalf("connect %d: %v", i, err)
		}
	}
	if accepted != 2 || rejected != 3 {
		t.Fatalf("accepted=%d rejected=%d, want 2/3", accepted, rejected)
	}
	if got := b.Stats().CongestionRejected; got != 3 {
		t.Fatalf("CongestionRejected = %d, want 3", got)
	}
}

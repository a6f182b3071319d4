package core

import (
	"context"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/resilience"
	"github.com/provlight/provlight/internal/wire"
)

// TestReconnectJitterBounds pins the reconnect jitter contract the
// drainer inherits from the shared resilience schedule: sleeps are
// spread uniformly over [d/2, d] so a fleet's backoffs decorrelate after
// a shared outage, and the per-client worst case never exceeds d.
func TestReconnectJitterBounds(t *testing.T) {
	const d = 800 * time.Millisecond
	for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		bo := resilience.Backoff{Min: d, Max: d, Rand: func() float64 { return u }}
		got := bo.Delay(0)
		if got < d/2 || got > d {
			t.Fatalf("Delay with u=%v = %v, outside [%v, %v]", u, got, d/2, d)
		}
	}
	bo := resilience.Backoff{Min: d, Max: d, Rand: func() float64 { return 0 }}
	if got := bo.Delay(0); got != d/2 {
		t.Fatalf("Delay(u=0) = %v, want %v", got, d/2)
	}
}

// TestStaleAckTermFencing drives the ack handler directly with crafted
// payloads: term-stamped acks from the highest seen term (and unfenced
// version-1 acks) advance the spool floor, while acks from a lower term
// — a zombie translator still feeding a deposed primary — are dropped
// whole and counted.
func TestStaleAckTermFencing(t *testing.T) {
	client, err := NewClient(context.Background(), Config{
		Broker:            "127.0.0.1:9", // no broker: spool only
		ClientID:          "fence-device",
		SpoolDir:          t.TempDir(),
		ReconnectMinDelay: time.Hour, // keep the drainer out of the way
		ReconnectMaxDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Abort()

	for i := 0; i < 2; i++ {
		captureTask(t, client, "wf", i) // 2 frames each: seqs 1..4
	}
	deadline := time.Now().Add(5 * time.Second)
	for client.StatsSnapshot().FramesSpooled < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("frames not spooled: %+v", client.StatsSnapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ack := func(term uint64, seqs ...uint64) {
		client.onAck("", wire.AppendAckPayload(nil, term, seqs))
	}

	ack(5, 1)
	st := client.StatsSnapshot()
	if st.SpoolAcked != 1 || st.AckTerm != 5 || st.StaleAcks != 0 {
		t.Fatalf("after term-5 ack: %+v", st)
	}

	// A late lower-term copy of an ack already applied is no stale ack.
	ack(3, 1)
	st = client.StatsSnapshot()
	if st.SpoolAcked != 1 || st.StaleAcks != 0 || st.AckTerm != 5 {
		t.Fatalf("after a term-3 copy of the applied ack: %+v", st)
	}

	// Lower term: the whole ack is ignored, floor stays put.
	ack(3, 2)
	st = client.StatsSnapshot()
	if st.SpoolAcked != 1 || st.StaleAcks != 1 || st.AckTerm != 5 {
		t.Fatalf("after stale term-3 ack: %+v", st)
	}

	// Unfenced version-1 ack (term 0) is always accepted.
	ack(0, 2)
	if st = client.StatsSnapshot(); st.SpoolAcked != 2 || st.AckTerm != 5 {
		t.Fatalf("after unfenced ack: %+v", st)
	}

	// Higher term advances the fence and acks normally.
	ack(7, 3, 4)
	st = client.StatsSnapshot()
	if st.SpoolAcked != 4 || st.AckTerm != 7 || st.StaleAcks != 1 {
		t.Fatalf("after term-7 ack: %+v", st)
	}
}

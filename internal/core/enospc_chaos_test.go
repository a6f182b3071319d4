package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/chaos"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/spool"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wal"
)

// loopAddr names the broker on a test's in-process loopback network. No
// broker listens there until a test starts one, so a client's drainer
// spools everything locally meanwhile; and a broker stopped there can be
// started again under the same name, where a closed UDP port could be
// taken by another socket before the relisten.
const loopAddr = "broker"

// loopServer is a broker plus one translator on a loopback network.
type loopServer struct {
	b  *broker.Broker
	tr *translate.Translator
}

func startLoopServer(t *testing.T, lb *transport.Loopback, targets ...translate.Target) *loopServer {
	t.Helper()
	b, err := broker.New(broker.Config{Addr: loopAddr, Transport: lb, RetryInterval: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translate.New(context.Background(), translate.Config{
		Broker:        loopAddr,
		Transport:     lb,
		Targets:       targets,
		RetryInterval: 150 * time.Millisecond,
	})
	if err != nil {
		b.Close()
		t.Fatal(err)
	}
	return &loopServer{b: b, tr: tr}
}

// Close stops the translator, then the broker.
func (s *loopServer) Close() {
	s.tr.Close()
	s.b.Close()
}

func enospcClient(t *testing.T, lb *transport.Loopback, policy spool.DegradePolicy) *Client {
	t.Helper()
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "enospc-" + policy.String(),
		SpoolDir:          t.TempDir(),
		SpoolSegmentSize:  256, // several sealed segments from a small stream
		SpoolPolicy:       policy,
		RetryInterval:     100 * time.Millisecond,
		MaxRetries:        3,
		RedeliverAfter:    500 * time.Millisecond,
		ReconnectMinDelay: 20 * time.Millisecond,
		ReconnectMaxDelay: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return client
}

// captureOne sends a single workflow-begin record (one spool frame).
func captureOne(c *Client, i int) error {
	return c.Capture(&provdm.Record{
		Event:      provdm.EventWorkflowBegin,
		WorkflowID: fmt.Sprintf("wf%d", i),
		Time:       time.Now(),
	})
}

// drainAndCount brings a broker+translator up on lb, shuts the client
// down (draining the spool), and returns the record count that reached
// the target.
func drainAndCount(t *testing.T, client *Client, lb *transport.Loopback) (Stats, int) {
	t.Helper()
	mem := translate.NewMemoryTarget()
	srv := startLoopServer(t, lb, mem)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v (stats %+v)", err, client.StatsSnapshot())
	}
	srv.tr.Drain()
	return client.StatsSnapshot(), mem.Len()
}

// TestENOSPCBlockStallsThenDrains: with the Block policy, exhausting the
// spool quota mid-stream makes Capture fail with a retryable full error
// — no frame is shed — and freeing space lets capture resume and the
// spool drain cleanly with every admitted frame delivered exactly once.
func TestENOSPCBlockStallsThenDrains(t *testing.T) {
	lb := transport.NewLoopback()
	client := enospcClient(t, lb, spool.Block)

	const before = 20
	for i := 0; i < before; i++ {
		if err := captureOne(client, i); err != nil {
			t.Fatalf("capture %d with space: %v", i, err)
		}
	}

	dq := chaos.NewDiskQuota(client.spool)
	dq.Fill()
	var stalled int
	for i := 0; i < 5; i++ {
		err := captureOne(client, before+i)
		if err == nil {
			t.Fatalf("capture %d succeeded with the quota exhausted", before+i)
		}
		if !errors.Is(err, wal.ErrNoSpace) {
			t.Fatalf("capture under ENOSPC: %v, want wal.ErrNoSpace", err)
		}
		stalled++
	}
	st := client.StatsSnapshot()
	if st.SpoolBlockedAppends == 0 || st.FramesShed != 0 {
		t.Fatalf("blocked=%d shed=%d, want blocked>0 shed=0", st.SpoolBlockedAppends, st.FramesShed)
	}

	dq.Free()
	if err := captureOne(client, 99); err != nil {
		t.Fatalf("capture after freeing space: %v", err)
	}

	st, got := drainAndCount(t, client, lb)
	want := before + 1 // the stalled captures were rejected, not queued
	if got != want {
		t.Fatalf("target has %d records, want %d", got, want)
	}
	if st.SpoolAcked != uint64(want) {
		t.Fatalf("acked %d frames, want %d", st.SpoolAcked, want)
	}
}

// TestENOSPCMetricsSurfaceSpoolFailures: the registry must turn the
// spool's quiet failure counters — blocked appends under ENOSPC and
// ack-mark persist failures — into non-zero scrapeable series, because a
// client embedded in a soak or daemon has no other way to page on them.
// Detection must not break recovery: after the faults heal, every
// admitted frame still drains exactly once.
func TestENOSPCMetricsSurfaceSpoolFailures(t *testing.T) {
	lb := transport.NewLoopback()
	reg := obs.NewRegistry()
	dir := t.TempDir()
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "enospc-metrics",
		SpoolDir:          dir,
		SpoolSegmentSize:  256,
		SpoolPolicy:       spool.Block,
		RetryInterval:     100 * time.Millisecond,
		MaxRetries:        3,
		RedeliverAfter:    500 * time.Millisecond,
		ReconnectMinDelay: 20 * time.Millisecond,
		ReconnectMaxDelay: 100 * time.Millisecond,
		Metrics:           reg,
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	const before = 20
	for i := 0; i < before; i++ {
		if err := captureOne(client, i); err != nil {
			t.Fatalf("capture %d with space: %v", i, err)
		}
	}

	// Fault 1: disk full. Block-policy captures fail and are counted.
	dq := chaos.NewDiskQuota(client.spool)
	dq.Fill()
	for i := 0; i < 3; i++ {
		if err := captureOne(client, before+i); err == nil {
			t.Fatalf("capture %d succeeded with the quota exhausted", before+i)
		}
	}

	// Fault 2: the ack-mark path becomes unwritable — a directory sits
	// where the mark file goes, so the atomic rename fails the way a
	// corrupted or permission-broken state directory would.
	markPath := filepath.Join(dir, "ack.mark")
	if err := os.RemoveAll(markPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(markPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := client.spool.SyncMark(); err == nil {
		t.Fatalf("SyncMark succeeded with a directory squatting on the mark path")
	}

	scrape := func() *obs.Scrape {
		t.Helper()
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		sc, err := obs.ParseText(&buf)
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		return sc
	}
	sc := scrape()
	if v, ok := sc.Value("provlight_client_spool_blocked_appends_total", "client", "enospc-metrics"); !ok || v <= 0 {
		t.Errorf("spool_blocked_appends_total = %v (present=%v), want > 0", v, ok)
	}
	if v, ok := sc.Value("provlight_client_spool_mark_persist_errors_total", "client", "enospc-metrics"); !ok || v <= 0 {
		t.Errorf("spool_mark_persist_errors_total = %v (present=%v), want > 0", v, ok)
	}
	// The fsync-failure alarm must be exported even while zero — an
	// absent series can't be alerted on.
	if _, ok := sc.Value("provlight_client_spool_wal_sync_errors_total", "client", "enospc-metrics"); !ok {
		t.Errorf("spool_wal_sync_errors_total missing from exposition")
	}

	// Heal both faults; the stream must still drain exactly once.
	dq.Free()
	if err := os.Remove(markPath); err != nil {
		t.Fatal(err)
	}
	st, got := drainAndCount(t, client, lb)
	if got != before {
		t.Fatalf("target has %d records, want %d", got, before)
	}
	if st.SpoolAcked != before {
		t.Fatalf("acked %d frames, want %d", st.SpoolAcked, before)
	}
}

// TestENOSPCDropNewShedsAndCounts: with the DropNew policy a full spool
// sheds arriving frames (Capture reports success; the policy chose the
// loss) and counts them; surviving frames drain exactly once.
func TestENOSPCDropNewShedsAndCounts(t *testing.T) {
	lb := transport.NewLoopback()
	client := enospcClient(t, lb, spool.DropNew)

	const before = 20
	for i := 0; i < before; i++ {
		if err := captureOne(client, i); err != nil {
			t.Fatalf("capture %d with space: %v", i, err)
		}
	}

	dq := chaos.NewDiskQuota(client.spool)
	dq.Fill()
	const during = 5
	for i := 0; i < during; i++ {
		if err := captureOne(client, before+i); err != nil {
			t.Fatalf("capture %d under DropNew: %v (want silent shed)", before+i, err)
		}
	}
	st := client.StatsSnapshot()
	if st.FramesShed != during {
		t.Fatalf("FramesShed = %d, want %d", st.FramesShed, during)
	}

	dq.Free()
	if err := captureOne(client, 99); err != nil {
		t.Fatalf("capture after freeing space: %v", err)
	}

	st, got := drainAndCount(t, client, lb)
	want := before + 1
	if got != want {
		t.Fatalf("target has %d records, want %d (shed frames must not reappear)", got, want)
	}
	if st.SpoolAcked != uint64(want) {
		t.Fatalf("acked %d frames, want %d", st.SpoolAcked, want)
	}
}

// TestENOSPCDropOldestShedsPrefix: with the DropOldestUnacked policy a
// full spool sheds its oldest sealed segments to admit new frames: the
// floor only ever advances, sheds are counted by class, and after space
// returns the surviving tail drains cleanly.
func TestENOSPCDropOldestShedsPrefix(t *testing.T) {
	lb := transport.NewLoopback()
	client := enospcClient(t, lb, spool.DropOldestUnacked)

	const before = 60 // enough to seal several 2 KiB segments
	for i := 0; i < before; i++ {
		if err := captureOne(client, i); err != nil {
			t.Fatalf("capture %d with space: %v", i, err)
		}
	}

	dq := chaos.NewDiskQuota(client.spool)
	dq.Fill()
	if err := captureOne(client, before); err != nil {
		t.Fatalf("capture under DropOldestUnacked: %v (want shed-to-admit)", err)
	}
	st := client.StatsSnapshot()
	shed := st.SpoolShedHigher + st.SpoolShedQoS0
	if shed == 0 {
		t.Fatalf("nothing shed: %+v", st)
	}
	floorAfterShed := client.spool.Floor()
	if floorAfterShed != shed {
		// Nothing was acked yet, so the advanced floor must equal the shed
		// count exactly — anything else means acked bookkeeping drifted.
		t.Fatalf("floor %d != shed %d with nothing acked", floorAfterShed, shed)
	}

	dq.Free()
	st, got := drainAndCount(t, client, lb)
	if client.spool.Floor() < floorAfterShed {
		t.Fatalf("floor regressed %d -> %d", floorAfterShed, client.spool.Floor())
	}
	want := int(st.FramesSpooled - shed)
	if got != want {
		t.Fatalf("target has %d records, want %d (spooled %d - shed %d)",
			got, want, st.FramesSpooled, shed)
	}
	// The floor covers acked *or shed* frames; after a clean drain it
	// reaches the last spooled sequence.
	if st.SpoolAcked != st.FramesSpooled {
		t.Fatalf("floor at %d after drain, want %d", st.SpoolAcked, st.FramesSpooled)
	}
}

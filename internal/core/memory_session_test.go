package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// TestMemoryClientResumesAfterBrokerRestart: a memory-mode client whose
// broker restarts keeps the PUBLISH the new broker refuses (it holds no
// session for the client), redials, and re-sends it: the probe's records
// arrive, every record captured once the new session is up arrives, in
// capture order, and nothing counts as an AsyncError.
func TestMemoryClientResumesAfterBrokerRestart(t *testing.T) {
	mem := translate.NewMemoryTarget()
	lb := transport.NewLoopback()
	srv := startLoopServer(t, lb, mem)
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "restart-device",
		RetryInterval:     100 * time.Millisecond,
		MaxRetries:        3,
		ReconnectMinDelay: 20 * time.Millisecond,
		ReconnectMaxDelay: 100 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		captureTask(t, client, "before", i)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2 := startLoopServer(t, lb, mem)
	defer srv2.Close()

	captureTask(t, client, "probe", 0) // the new broker may refuse this pack
	deadline := time.Now().Add(10 * time.Second)
	for client.StatsSnapshot().SpoolReconnects < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no redial after the broker restart: %+v", client.StatsSnapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}

	const tasks = 20
	var want []string
	for i := 0; i < tasks; i++ {
		captureTask(t, client, "after", i)
		task := fmt.Sprintf("t%d", i)
		want = append(want, provdm.EventTaskBegin.String()+"/"+task, provdm.EventTaskEnd.String()+"/"+task)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for time.Now().Before(deadline) {
		got = got[:0]
		for _, r := range mem.Records() {
			if r.WorkflowID == "after" {
				got = append(got, r.Event.String()+"/"+r.TaskID)
			}
		}
		if len(got) >= len(want) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(got) != len(want) {
		t.Fatalf("%d of %d records captured after the redial arrived (stats %+v)", len(got), len(want), client.StatsSnapshot())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d is %s, want %s (capture order)", i, got[i], want[i])
		}
	}
	probe := 0
	for _, r := range mem.Records() {
		if r.WorkflowID == "probe" {
			probe++
		}
	}
	if probe != 2 {
		t.Errorf("%d of the probe task's 2 records arrived", probe)
	}
	if st := client.StatsSnapshot(); st.AsyncErrors != 0 {
		t.Errorf("async errors = %d, want 0 (stats %+v)", st.AsyncErrors, st)
	}
}

// TestMemoryShutdownReleasesQueueWhileSessionDown: Shutdown with a short
// deadline while the broker is gone and every redial fails returns the
// context error promptly, counts each frame that never arrived as one
// AsyncError and the failed redials as none, and leaves no client
// goroutine behind.
func TestMemoryShutdownReleasesQueueWhileSessionDown(t *testing.T) {
	base := runtime.NumGoroutine()
	mem := translate.NewMemoryTarget()
	lb := transport.NewLoopback()
	srv := startLoopServer(t, lb, mem)
	client, err := NewClient(context.Background(), Config{
		Broker:            loopAddr,
		Transport:         lb,
		ClientID:          "down-device",
		KeepAlive:         time.Second,
		RetryInterval:     50 * time.Millisecond,
		MaxRetries:        2,
		ReconnectMinDelay: 20 * time.Millisecond,
		ReconnectMaxDelay: 50 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		captureTask(t, client, "delivered", i)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	waitRecords(t, mem, 6)
	srv.Close()
	// The keep-alive declares the silent broker dead; redials then fail.
	deadline := time.Now().Add(10 * time.Second)
	for client.StatsSnapshot().ReconnectConsecFailures < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("session never went down: %+v", client.StatsSnapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		captureTask(t, client, "stranded", i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = client.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v, deadline was 200ms", elapsed)
	}
	st := client.StatsSnapshot()
	if lost := st.FramesPublished - uint64(mem.Len()); st.AsyncErrors != lost {
		t.Fatalf("async errors = %d, want the %d frames that never arrived (%d dials failed)", st.AsyncErrors, lost, st.ReconnectAttempts-st.SpoolReconnects)
	}
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/spool"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/wire"
)

// bigRecord is a task-begin record whose 100 KB attribute does not
// compress, so its frame cannot fit one datagram.
func bigRecord() *provdm.Record {
	blob := make([]byte, 100<<10)
	rand.New(rand.NewSource(1)).Read(blob)
	return &provdm.Record{
		Event: provdm.EventTaskBegin, WorkflowID: "wf", TaskID: "big", Time: time.Now(),
		Data: []provdm.DataRef{{ID: "blob", Attributes: []provdm.Attribute{{Name: "b", Value: blob}}}},
	}
}

// smallRecord is the record captured after the big one.
func smallRecord() *provdm.Record {
	return &provdm.Record{Event: provdm.EventTaskBegin, WorkflowID: "wf", TaskID: "small", Time: time.Now()}
}

// TestOversizedFrameDoesNotWedge: a frame too large for one datagram is
// refused or lost, alone, in every mode, and the small record behind it
// arrives once, on the same session. In spool mode Capture refuses it
// before the WAL append; in memory mode it is counted lost; a spool that
// already holds one (written by a build that did not refuse it) counts
// it lost and acks it locally.
func TestOversizedFrameDoesNotWedge(t *testing.T) {
	start := func(t *testing.T) (*translate.MemoryTarget, *Server) {
		mem := translate.NewMemoryTarget()
		srv, err := StartServer(context.Background(), ServerConfig{
			Addr:    "127.0.0.1:0",
			Targets: []translate.Target{mem},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return mem, srv
	}
	client := func(t *testing.T, srv *Server, spoolDir string) *Client {
		c, err := NewClient(context.Background(), Config{
			Broker:            srv.Addr(),
			ClientID:          "big-device",
			SpoolDir:          spoolDir,
			RedeliverAfter:    time.Second,
			ReconnectMinDelay: 10 * time.Millisecond,
			ReconnectMaxDelay: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Abort() })
		return c
	}
	// finish shuts the client down and checks that only the small record
	// arrived, once, on the first session, with wantLost frames lost.
	finish := func(t *testing.T, c *Client, mem *translate.MemoryTarget, srv *Server, wantLost uint64) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v (stats %+v)", err, c.StatsSnapshot())
		}
		srv.Drain()
		deadline := time.Now().Add(5 * time.Second)
		for mem.Len() < 1 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(100 * time.Millisecond) // let a duplicate show
		if recs := mem.Records(); len(recs) != 1 || recs[0].TaskID != "small" {
			t.Fatalf("target holds %d records (%v), want the small one once", len(recs), recs)
		}
		st := c.StatsSnapshot()
		if st.AsyncErrors != wantLost || st.SpoolPending != 0 || st.SpoolReconnects != 1 {
			t.Errorf("async errors %d, pending %d, sessions %d; want %d, 0, 1", st.AsyncErrors, st.SpoolPending, st.SpoolReconnects, wantLost)
		}
	}

	t.Run("memory", func(t *testing.T) {
		mem, srv := start(t)
		c := client(t, srv, "")
		for _, r := range []*provdm.Record{bigRecord(), smallRecord()} {
			if err := c.Capture(r); err != nil {
				t.Fatal(err)
			}
		}
		finish(t, c, mem, srv, 1)
	})

	t.Run("spool", func(t *testing.T) {
		mem, srv := start(t)
		c := client(t, srv, t.TempDir())
		if err := c.Capture(bigRecord()); !errors.Is(err, mqttsn.ErrTooLarge) {
			t.Fatalf("capture of the big record: %v, want ErrTooLarge", err)
		}
		if err := c.Capture(smallRecord()); err != nil {
			t.Fatal(err)
		}
		if st := c.StatsSnapshot(); st.FramesSpooled != 1 {
			t.Fatalf("%d frames spooled, want 1", st.FramesSpooled)
		}
		finish(t, c, mem, srv, 0)
	})

	t.Run("spooled", func(t *testing.T) {
		dir := t.TempDir()
		sp, err := spool.Open(spool.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var enc wire.Encoder
		for _, r := range []*provdm.Record{bigRecord(), smallRecord()} {
			if _, err := sp.AppendFrame(false, func(seq uint64) ([]byte, error) {
				return enc.AppendFrameSeqCapture(nil, seq, 0, r)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		mem, srv := start(t)
		finish(t, client(t, srv, dir), mem, srv, 1)
	})
}

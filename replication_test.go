// Failover end-to-end test for the replication subsystem: a spooling
// capture client over a lossy netem link feeds a primary store that ships
// its WAL to two followers; the primary process is SIGKILLed mid-stream,
// the most-caught-up follower is promoted under a fenced term, and the
// drained pipeline must hold every record exactly once on the promoted
// store — with the deposed primary's zombie writes rejected on rejoin.
package provlight_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/chaos"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/replica"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/wal"
)

// openReplStore opens a durable store tuned for replication tests.
func openReplStore(t testing.TB, dir string) *dfanalyzer.Store {
	t.Helper()
	store, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
		Dir:           dir,
		Sync:          wal.SyncInterval,
		SnapshotEvery: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func startTestFollower(t testing.TB, store *dfanalyzer.Store, primary, id string) *replica.Follower {
	t.Helper()
	f, err := replica.StartFollower(store, replica.FollowerOptions{
		Primary:      primary,
		ID:           id,
		ReconnectMin: 25 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
		AckInterval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func lastSeq(store *dfanalyzer.Store) uint64 {
	_, last := store.WALSeqs()
	return last
}

func waitCondition(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// zombieFrame builds a direct-ingest frame distinct from the client's
// capture stream (its own origin), for exercising deposed-primary writes.
func zombieFrame(seq uint64) []dfanalyzer.FrameMsg {
	return []dfanalyzer.FrameMsg{{
		Origin: "provlight/zombie/records", Seq: seq,
		Tasks: []*dfanalyzer.TaskMsg{{
			Dataflow: "provlight", Transformation: "train",
			ID: fmt.Sprintf("z%d", seq), Status: dfanalyzer.StatusFinished,
			Sets: []dfanalyzer.SetData{{Tag: "train_output", Elements: []dfanalyzer.Element{{float64(seq)}}}},
		}},
	}}
}

// TestFailoverExactlyOnce is the headline replication test. Topology:
// one spooling client over a 25%-loss link, one broker, a translator
// feeding the primary store, the primary shipping WAL to two followers
// with MinSync=1 semi-sync acks. Mid-stream the whole primary process
// (translator, replication server, store) is SIGKILLed; zombie writes
// land on the deposed primary after its followers are gone; the
// most-caught-up follower is promoted under term 2; the survivor
// re-points; a new translator (term-stamped) resumes; and the client
// drains. The promoted store must hold every client record exactly once,
// stale-term writes must be rejected in both directions, and the deposed
// primary must be refused on rejoin as diverged.
func TestFailoverExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("failover e2e in -short mode")
	}
	spoolDir := t.TempDir()
	dirA, dirB, dirC := t.TempDir(), t.TempDir(), t.TempDir()
	b, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// ---- primary process: store A + replication server + translator ----
	storeA := openReplStore(t, dirA)
	replA, err := replica.NewServer(storeA, replica.Options{
		MinSync:           1,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := replA.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	termA := storeA.CurrentTerm()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	targetA := translate.NewStoreTarget(storeA, "provlight")
	targetA.SetTerm(termA)
	trA, err := translate.New(ctx, translate.Config{
		Broker:        b.Addr(),
		ClientID:      "translator-a",
		Targets:       []translate.Target{targetA},
		Term:          termA,
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    10,
		OnError:       func(err error) { t.Logf("translator-a: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// The primary "process": one SIGKILL takes down translator, WAL
	// shipping, and the store together, with no graceful flush.
	primaryProc := chaos.NewProc()
	primaryProc.OnKill(func() { trA.Abort() })
	primaryProc.OnKill(func() { replA.Close() })

	// ---- two followers ----
	storeB, storeC := openReplStore(t, dirB), openReplStore(t, dirC)
	fB := startTestFollower(t, storeB, replA.Addr(), "replica-b")
	fC := startTestFollower(t, storeC, replA.Addr(), "replica-c")

	// ---- phase 1: capture over the lossy link, let it replicate ----
	const n = 36
	client := newSpoolingClient(t, b.Addr(), spoolDir)
	captureRange(t, client, 0, n/2)
	waitCondition(t, "followers caught up with phase 1", func() bool {
		// The whole phase-1 capture must be on the primary (not just the
		// term record) and fully replicated before the plug gets pulled.
		if storeA.TaskCount("provlight") < n/2 {
			return false
		}
		_, last := storeA.WALSeqs()
		return fB.AppliedSeq() == last && fC.AppliedSeq() == last
	})
	t.Logf("phase1: client %+v", client.StatsSnapshot())

	// Hold follower C back so promotion has a real choice: stop its
	// replication, keep B live.
	fC.Stop()

	captureRange(t, client, n/2, 3*n/4)
	waitCondition(t, "follower B ahead of stopped C", func() bool {
		return fB.AppliedSeq() > lastSeq(storeC)
	})

	// ---- SIGKILL the primary process mid-stream ----
	primaryProc.Kill()

	// Zombie writes: the deposed primary's store is still open in-process
	// and still believes it is the term-1 primary; writes land on it but
	// can never reach the promoted lineage.
	for seq := uint64(1); seq <= 3; seq++ {
		if _, err := storeA.IngestFramesTerm(termA, zombieFrame(seq)); err != nil {
			t.Fatalf("zombie write %d on deposed primary: %v", seq, err)
		}
	}

	// The client keeps capturing into dead air; the spool holds it.
	captureRange(t, client, 3*n/4, n)

	// ---- promote the most-caught-up follower ----
	if bSeq, cSeq := fB.AppliedSeq(), lastSeq(storeC); bSeq <= cSeq {
		t.Fatalf("setup: B (%d) should be ahead of C (%d)", bSeq, cSeq)
	}
	fB.Stop()
	termB, err := storeB.Promote()
	if err != nil {
		t.Fatalf("promote B: %v", err)
	}
	if termB <= termA {
		t.Fatalf("promoted term %d not beyond deposed term %d", termB, termA)
	}

	// Fencing, both directions, at the store layer:
	// the promoted store rejects writes stamped with the deposed term...
	if _, err := storeB.IngestFramesTerm(termA, zombieFrame(100)); !errors.Is(err, dfanalyzer.ErrStaleTerm) {
		t.Fatalf("stale-term write on promoted store: %v, want ErrStaleTerm", err)
	}
	// ...and the deposed primary rejects writes stamped with the new term
	// (it cannot masquerade as the new lineage).
	if _, err := storeA.IngestFramesTerm(termB, zombieFrame(101)); !errors.Is(err, dfanalyzer.ErrStaleTerm) {
		t.Fatalf("new-term write on deposed store: %v, want ErrStaleTerm", err)
	}

	replB, err := replica.NewServer(storeB, replica.Options{
		MinSync:           1,
		HeartbeatInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := replB.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Survivor C re-points at the promoted primary and catches up; it
	// learns term 2 through the replicated term record.
	fC2 := startTestFollower(t, storeC, replB.Addr(), "replica-c")
	defer fC2.Stop()
	waitCondition(t, "survivor C resynced to promoted primary", func() bool {
		_, last := storeB.WALSeqs()
		return fC2.AppliedSeq() == last && storeC.CurrentTerm() == termB
	})

	// New translator against the promoted store, acks fenced to term 2.
	targetB := translate.NewStoreTarget(storeB, "provlight")
	targetB.SetTerm(termB)
	trB, err := translate.New(ctx, translate.Config{
		Broker:        b.Addr(),
		ClientID:      "translator-b",
		Targets:       []translate.Target{targetB},
		Term:          termB,
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    10,
		OnError:       func(err error) { t.Logf("translator-b: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// ---- drain and verify exactly-once on the promoted lineage ----
	if err := client.Shutdown(ctx); err != nil {
		t.Fatalf("drain after failover: %v\nclient %+v\ntrB %+v\nbroker %+v\nreplB %+v",
			err, client.StatsSnapshot(), trB.Stats(), b.Stats(), replB.Stats())
	}
	trB.Drain()
	st := client.StatsSnapshot()
	if st.SpoolPending != 0 {
		t.Fatalf("spool still pending %d frames after failover", st.SpoolPending)
	}
	if st.AckTerm != termB {
		t.Fatalf("client ack term = %d, want promoted term %d", st.AckTerm, termB)
	}
	assertExactlyOnce(t, storeB, n)

	// The resynced replica serves the same rows.
	waitCondition(t, "replica C holding the drained stream", func() bool {
		_, last := storeB.WALSeqs()
		return fC2.AppliedSeq() == last
	})
	assertExactlyOnce(t, storeC, n)

	// ---- deposed primary rejoin: rejected as diverged ----
	// Crash A (no snapshot) and bring it back as a follower of B. Its
	// zombie records sit beyond the promoted term's start, so the
	// handshake must refuse it rather than silently merge two histories.
	if err := storeA.Close(); err != nil {
		t.Fatal(err)
	}
	storeA2 := openReplStore(t, dirA)
	defer storeA2.Close()
	fA, err := replica.StartFollower(storeA2, replica.FollowerOptions{
		Primary:      replB.Addr(),
		ID:           "deposed-a",
		ReconnectMin: 25 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
		AckInterval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fA.Stop()
	waitCondition(t, "deposed primary refused as diverged", func() bool {
		return fA.Err() != nil
	})
	if !errors.Is(fA.Err(), replica.ErrDiverged) {
		t.Fatalf("deposed rejoin error = %v, want ErrDiverged", fA.Err())
	}

	// Clean teardown of the promoted side.
	if err := trB.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := replB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := storeB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := storeC.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("failover exactly-once: %d tasks on promoted store, term %d, client stats %+v", n, termB, st)
}

// BenchmarkReplicaLag measures how far a live follower trails a primary
// ingesting frames at a paced 10k frames/s (each iteration is one frame).
// The reported lag_ms is how long the follower needs to drain the
// residual gap once ingest stops — the real-world answer to "how much do
// I lose if I promote right now".
func BenchmarkReplicaLag(b *testing.B) {
	dirP, dirF := b.TempDir(), b.TempDir()
	primary, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
		Dir: dirP, Sync: wal.SyncOff, SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer primary.Close()
	srv, err := replica.NewServer(primary, replica.Options{HeartbeatInterval: 100 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	followerStore, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
		Dir: dirF, Sync: wal.SyncOff, SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer followerStore.Close()
	f, err := replica.StartFollower(followerStore, replica.FollowerOptions{
		Primary:     srv.Addr(),
		ID:          "bench-replica",
		AckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Stop()

	spec := &dfanalyzer.Dataflow{Tag: "provlight", Transformations: []dfanalyzer.Transformation{{
		Tag: "train",
		Output: []dfanalyzer.SetSchema{{Tag: "train_output",
			Attributes: []dfanalyzer.Attribute{{Name: "accuracy", Type: dfanalyzer.Numeric}}}},
	}}}
	if err := primary.RegisterDataflow(spec); err != nil {
		b.Fatal(err)
	}

	const rate = 10000 // frames per second
	var maxLagRecords uint64
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		frame := []dfanalyzer.FrameMsg{{
			Origin: "provlight/bench/records", Seq: uint64(i + 1),
			Tasks: []*dfanalyzer.TaskMsg{{
				Dataflow: "provlight", Transformation: "train",
				ID: fmt.Sprintf("t%d", i), Status: dfanalyzer.StatusFinished,
				Sets: []dfanalyzer.SetData{{Tag: "train_output", Elements: []dfanalyzer.Element{{float64(i)}}}},
			}},
		}}
		if _, err := primary.IngestFrames(frame); err != nil {
			b.Fatalf("ingest %d: %v", i, err)
		}
		// Pace to the target rate; sample lag while running.
		if i%100 == 99 {
			if lag := f.Health().LagRecords; lag > maxLagRecords {
				maxLagRecords = lag
			}
			if ahead := time.Duration(i+1)*time.Second/rate - time.Since(start); ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
	ingestDone := time.Now()
	_, last := primary.WALSeqs()
	for f.AppliedSeq() < last {
		if time.Since(ingestDone) > 30*time.Second {
			b.Fatalf("follower stalled at %d/%d", f.AppliedSeq(), last)
		}
		time.Sleep(200 * time.Microsecond)
	}
	lag := time.Since(ingestDone)
	b.StopTimer()

	achieved := float64(b.N) / ingestDone.Sub(start).Seconds()
	b.ReportMetric(float64(lag.Microseconds())/1000, "lag_ms")
	b.ReportMetric(float64(maxLagRecords), "max_lag_records")
	b.ReportMetric(achieved, "frames/s")

	if b.N >= 1000 && lag >= 100*time.Millisecond {
		b.Fatalf("replica lag %v >= 100ms at %d frames (%.0f frames/s)", lag, b.N, achieved)
	}
}

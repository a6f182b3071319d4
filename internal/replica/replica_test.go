package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/chaos"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/source"
	"github.com/provlight/provlight/internal/wal"
)

func testSpec(tag string) *dfanalyzer.Dataflow {
	return &dfanalyzer.Dataflow{
		Tag: tag,
		Transformations: []dfanalyzer.Transformation{{
			Tag: "train",
			Input: []dfanalyzer.SetSchema{{Tag: "train_input", Attributes: []dfanalyzer.Attribute{
				{Name: "lr", Type: dfanalyzer.Numeric},
			}}},
			Output: []dfanalyzer.SetSchema{{Tag: "train_output", Attributes: []dfanalyzer.Attribute{
				{Name: "accuracy", Type: dfanalyzer.Numeric}, {Name: "model", Type: dfanalyzer.Text},
			}}},
		}},
	}
}

// frameBatch builds one identified frame carrying a begin+end task pair.
func frameBatch(dataflow, origin string, i int) []dfanalyzer.FrameMsg {
	start := time.Unix(int64(1700000000+i), 0).UTC()
	end := start.Add(time.Second)
	return []dfanalyzer.FrameMsg{{
		Origin: origin,
		Seq:    uint64(i + 1),
		Tasks: []*dfanalyzer.TaskMsg{
			{
				Dataflow: dataflow, Transformation: "train", ID: fmt.Sprintf("t%d", i),
				Status: dfanalyzer.StatusRunning, StartTime: &start,
				Sets: []dfanalyzer.SetData{{Tag: "train_input", Elements: []dfanalyzer.Element{{float64(i) / 100}}}},
			},
			{
				Dataflow: dataflow, Transformation: "train", ID: fmt.Sprintf("t%d", i),
				Status: dfanalyzer.StatusFinished, EndTime: &end,
				Sets: []dfanalyzer.SetData{{Tag: "train_output", Elements: []dfanalyzer.Element{{float64(i), fmt.Sprintf("m%d", i)}}}},
			},
		},
	}}
}

func openStore(t testing.TB, dir string, segment int64) *dfanalyzer.Store {
	t.Helper()
	s, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
		Dir: dir, Sync: wal.SyncOff, SnapshotEvery: -1, SegmentSize: segment,
	})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

func startPrimary(t testing.TB, store *dfanalyzer.Store, opts Options) *Server {
	t.Helper()
	srv, err := NewServer(store, opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func startFollower(t testing.TB, store *dfanalyzer.Store, opts FollowerOptions) *Follower {
	t.Helper()
	if opts.ReconnectMin == 0 {
		opts.ReconnectMin = 10 * time.Millisecond
	}
	if opts.AckInterval == 0 {
		opts.AckInterval = 10 * time.Millisecond
	}
	f, err := StartFollower(store, opts)
	if err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	t.Cleanup(f.Stop)
	return f
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func ingestN(t testing.TB, s *dfanalyzer.Store, origin string, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := s.IngestFrames(frameBatch("df", origin, i)); err != nil {
			t.Fatalf("ingest frame %d: %v", i, err)
		}
	}
}

// cannedQueries is the suite replicas must answer byte-identically to
// the primary.
func cannedQueries() []source.Query {
	return []source.Query{
		{Dataflow: "df", Set: "train_input"},
		{Dataflow: "df", Set: "train_output", Where: []source.Pred{{Attr: "accuracy", Op: source.Gt, Value: 5.0}}},
		{Dataflow: "df", Set: "train_output", OrderBy: "accuracy", Desc: true, Limit: 3},
		{Dataflow: "df", Set: "train_output", Project: []string{"model"}, OrderBy: "model"},
	}
}

// assertSameReads fails unless replica answers the canned query suite,
// the task catalog, and the workflow listing byte-identically to primary.
func assertSameReads(t testing.TB, primary, replica source.Source) {
	t.Helper()
	ctx := context.Background()
	for i, q := range cannedQueries() {
		a, err := primary.Select(ctx, q)
		if err != nil {
			t.Fatalf("primary query %d: %v", i, err)
		}
		b, err := replica.Select(ctx, q)
		if err != nil {
			t.Fatalf("replica query %d: %v", i, err)
		}
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("query %d diverges:\nprimary: %s\nreplica: %s", i, aj, bj)
		}
	}
	aw, _ := primary.Workflows(ctx)
	bw, _ := replica.Workflows(ctx)
	if fmt.Sprint(aw) != fmt.Sprint(bw) {
		t.Fatalf("workflows diverge: %v vs %v", aw, bw)
	}
	at, err := primary.Tasks(ctx, "df")
	if err != nil {
		t.Fatal(err)
	}
	bt, err := replica.Tasks(ctx, "df")
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(at)
	bj, _ := json.Marshal(bt)
	if string(aj) != string(bj) {
		t.Fatalf("task catalogs diverge:\nprimary: %s\nreplica: %s", aj, bj)
	}
}

func caughtUp(p *dfanalyzer.Store, f *Follower) func() bool {
	return func() bool {
		_, last := p.WALSeqs()
		return f.AppliedSeq() == last
	}
}

// TestReplicationCatchUpAndLiveTail replicates sealed-segment history to
// a late-joining follower, then the live tail, and checks the replica
// answers reads identically to the primary.
func TestReplicationCatchUpAndLiveTail(t *testing.T) {
	primary := openStore(t, t.TempDir(), 512) // small segments: history seals
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	ingestN(t, primary, "dev-1", 0, 10)
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})

	replica := openStore(t, t.TempDir(), 512)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})

	waitFor(t, "catch-up", caughtUp(primary, f))
	assertSameReads(t, primary, replica)
	if replica.Role() != dfanalyzer.RoleReplica {
		t.Fatalf("replica role = %v", replica.Role())
	}
	if replica.CurrentTerm() != primary.CurrentTerm() {
		t.Fatalf("terms diverge: %d vs %d", replica.CurrentTerm(), primary.CurrentTerm())
	}

	// Live tail: new writes stream without reconnect.
	ingestN(t, primary, "dev-1", 10, 10)
	waitFor(t, "live tail", caughtUp(primary, f))
	assertSameReads(t, primary, replica)

	// Writes to the replica are fenced off.
	if _, err := replica.IngestFrames(frameBatch("df", "dev-1", 99)); !errors.Is(err, dfanalyzer.ErrNotPrimary) {
		t.Fatalf("replica accepted a write: %v", err)
	}
}

// TestFollowerResumesAfterPartition partitions the replication link mid
// stream, keeps writing, heals, and expects the follower to resume from
// its durable offset without loss.
func TestFollowerResumesAfterPartition(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})

	fault := chaos.NewFault(1)
	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{
		Primary: srv.Addr(), ID: "r1", Dial: fault.Dialer(nil),
	})
	ingestN(t, primary, "dev-1", 0, 5)
	waitFor(t, "initial catch-up", caughtUp(primary, f))

	fault.Partition()
	ingestN(t, primary, "dev-1", 5, 10)
	if f.AppliedSeq() == func() uint64 { _, l := primary.WALSeqs(); return l }() {
		t.Fatal("follower caught up through a partition")
	}
	fault.Heal()
	waitFor(t, "resume after heal", caughtUp(primary, f))
	assertSameReads(t, primary, replica)
}

// TestSnapshotCatchUp connects a fresh follower after the primary
// truncated its WAL behind a snapshot: catch-up must go through the
// snapshot transfer, and the stream must continue past it.
func TestSnapshotCatchUp(t *testing.T) {
	primary := openStore(t, t.TempDir(), 256) // rotate often so truncation bites
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	ingestN(t, primary, "dev-1", 0, 20)
	if err := primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	ingestN(t, primary, "dev-1", 20, 5)
	first, _ := primary.WALSeqs()
	if first <= 1 {
		t.Fatalf("WAL not truncated (first=%d); snapshot path not exercised", first)
	}
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})

	replica := openStore(t, t.TempDir(), 256)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	waitFor(t, "snapshot catch-up", caughtUp(primary, f))
	assertSameReads(t, primary, replica)

	// And the live stream continues past the snapshot point.
	ingestN(t, primary, "dev-1", 25, 5)
	waitFor(t, "tail after snapshot", caughtUp(primary, f))
	assertSameReads(t, primary, replica)
}

// TestSemiSyncWaitCommitted verifies MinSync gating: no follower means
// writes never commit; a follower releases the wait.
func TestSemiSyncWaitCommitted(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	// Written before the server installs its commit wait, so they return.
	ingestN(t, primary, "dev-1", 0, 3)
	srv := startPrimary(t, primary, Options{MinSync: 1, HeartbeatInterval: 20 * time.Millisecond})
	_, last := primary.WALSeqs()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.WaitCommitted(ctx, last); err == nil {
		t.Fatal("WaitCommitted succeeded with no follower")
	}

	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.WaitCommitted(ctx2, last); err != nil {
		t.Fatalf("WaitCommitted with follower: %v", err)
	}
}

// TestFencedFailover promotes a follower and verifies the term fences
// every side: stale-term writes rejected on both stores, the deposed
// primary's rejoin refused as diverged, and an in-sync follower resuming
// under the new primary.
func TestFencedFailover(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})
	oldTerm := primary.CurrentTerm()

	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	ingestN(t, primary, "dev-1", 0, 10)
	waitFor(t, "catch-up", caughtUp(primary, f))

	// Partition-equivalent: stop replication, then write unreplicated
	// records into the soon-to-be-deposed primary.
	f.Stop()
	ingestN(t, primary, "dev-1", 10, 3)

	newTerm, err := replica.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if newTerm != oldTerm+1 {
		t.Fatalf("promoted term = %d, want %d", newTerm, oldTerm+1)
	}
	if replica.Role() != dfanalyzer.RolePrimary {
		t.Fatalf("promoted role = %v", replica.Role())
	}

	// Writers that learned the new term are accepted by the new primary
	// and rejected by the deposed one.
	if _, _, err := replica.IngestFramesTerm(newTerm, frameBatch("df", "dev-2", 1)); err != nil {
		t.Fatalf("new primary rejected current-term write: %v", err)
	}
	if _, _, err := primary.IngestFramesTerm(newTerm, frameBatch("df", "dev-2", 2)); !errors.Is(err, dfanalyzer.ErrStaleTerm) {
		t.Fatalf("deposed primary accepted new-term write: %v", err)
	}
	// And a zombie writer still on the old term is rejected by the new
	// primary.
	if _, _, err := replica.IngestFramesTerm(oldTerm, frameBatch("df", "dev-2", 3)); !errors.Is(err, dfanalyzer.ErrStaleTerm) {
		t.Fatalf("new primary accepted stale-term write: %v", err)
	}

	// The deposed primary tries to rejoin as a follower of the new
	// primary: its unreplicated tail extends past the promotion point, so
	// the handshake must reject it as diverged.
	newSrv := startPrimary(t, replica, Options{HeartbeatInterval: 20 * time.Millisecond})
	srv.Close()
	rejoined, err := StartFollower(primary, FollowerOptions{
		Primary: newSrv.Addr(), ID: "deposed",
		ReconnectMin: 10 * time.Millisecond, AckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Stop()
	waitFor(t, "divergence rejection", func() bool { return rejoined.Err() != nil })
	if !errors.Is(rejoined.Err(), nil) && rejoined.AppliedSeq() != func() uint64 { _, l := primary.WALSeqs(); return l }() {
		t.Fatalf("deposed primary state changed during rejected rejoin")
	}
}

// TestDivergedRejoinAtTermBoundary: the deposed primary writes exactly
// ONE unreplicated record before the failover, so its last applied seq
// lands exactly on the new primary's TermStartSeq (the term record
// occupies the same slot its divergent record does). The handshake must
// still refuse it — a > instead of >= here silently resumes the stream
// past the conflicting record, leaving the rejoined node with an extra
// row and the old term.
func TestDivergedRejoinAtTermBoundary(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})

	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	ingestN(t, primary, "dev-1", 0, 10)
	waitFor(t, "catch-up", caughtUp(primary, f))

	// Exactly one unreplicated record: the deposed primary's tail ends at
	// the seq the promotion's term record will claim.
	f.Stop()
	ingestN(t, primary, "dev-1", 10, 1)

	if _, err := replica.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if got, want := primary.AppliedSeq(), replica.TermStartSeq(); got != want {
		t.Fatalf("test setup drifted: deposed applied %d, term start %d — the boundary case needs them equal", got, want)
	}

	newSrv := startPrimary(t, replica, Options{HeartbeatInterval: 20 * time.Millisecond})
	srv.Close()
	rejoined, err := StartFollower(primary, FollowerOptions{
		Primary: newSrv.Addr(), ID: "deposed",
		ReconnectMin: 10 * time.Millisecond, AckInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Stop()
	waitFor(t, "boundary divergence rejection", func() bool { return rejoined.Err() != nil })
	if !errors.Is(rejoined.Err(), ErrDiverged) {
		t.Fatalf("rejoin error = %v, want ErrDiverged", rejoined.Err())
	}
}

// TestLaggedFollowerResumesAcrossPromotion: a follower that stopped in
// sync (its log a prefix of the promotion point) must resume cleanly
// under the new primary and learn the new term through the stream.
func TestLaggedFollowerResumesAcrossPromotion(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})

	r1 := openStore(t, t.TempDir(), 0)
	defer r1.Close()
	r2 := openStore(t, t.TempDir(), 0)
	defer r2.Close()
	f1 := startFollower(t, r1, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	f2 := startFollower(t, r2, FollowerOptions{Primary: srv.Addr(), ID: "r2"})
	ingestN(t, primary, "dev-1", 0, 8)
	waitFor(t, "both caught up", func() bool { return caughtUp(primary, f1)() && caughtUp(primary, f2)() })

	// r2 stops first; r1 keeps replicating a little longer, making r1 the
	// most-caught-up candidate.
	f2.Stop()
	ingestN(t, primary, "dev-1", 8, 4)
	waitFor(t, "r1 ahead", caughtUp(primary, f1))
	if f1.AppliedSeq() <= f2.AppliedSeq() {
		t.Fatalf("expected r1 (%d) ahead of r2 (%d)", f1.AppliedSeq(), f2.AppliedSeq())
	}

	// Promotion picks the most-caught-up follower: r1.
	srv.Close()
	newTerm, err := f1.Promote()
	if err != nil {
		t.Fatal(err)
	}
	newSrv := startPrimary(t, r1, Options{HeartbeatInterval: 20 * time.Millisecond})

	// r2, whose log is a strict prefix of the new lineage, re-points at
	// the promoted primary and resumes — no snapshot, no divergence.
	f2b := startFollower(t, r2, FollowerOptions{Primary: newSrv.Addr(), ID: "r2"})
	waitFor(t, "r2 resumes under new primary", caughtUp(r1, f2b))
	if f2b.Err() != nil {
		t.Fatalf("in-sync follower rejected: %v", f2b.Err())
	}
	if r2.CurrentTerm() != newTerm {
		t.Fatalf("r2 term = %d, want %d (term record not replicated)", r2.CurrentTerm(), newTerm)
	}
	assertSameReads(t, r1, r2)
}

// TestReplicationStats checks both halves of the replication health
// view in process, and the series each half exports to /metrics.
func TestReplicationStats(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	srv := startPrimary(t, primary, Options{MinSync: 1, HeartbeatInterval: 20 * time.Millisecond})
	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	ingestN(t, primary, "dev-1", 0, 5)
	waitFor(t, "catch-up", caughtUp(primary, f))
	_, last := primary.WALSeqs()
	waitFor(t, "acks drain", func() bool {
		st := srv.Stats()
		return len(st.Followers) == 1 && st.Followers[0].AckedSeq == last
	})

	st := srv.Stats()
	if st.MinSync != 1 || st.Followers[0].ID != "r1" {
		t.Fatalf("unexpected primary stats: %+v", st)
	}
	if st.Followers[0].LagRecords != 0 || st.Followers[0].LagBytes != 0 {
		t.Fatalf("caught-up follower shows lag: %+v", st.Followers[0])
	}

	h := f.Health()
	if !h.Connected || f.AppliedSeq() != last || h.LagRecords != 0 {
		t.Fatalf("unexpected replica health: %+v at applied %d, want %d", h, f.AppliedSeq(), last)
	}
	if h.Staleness < 0 || h.Staleness > 5*time.Second {
		t.Fatalf("implausible staleness: %v", h.Staleness)
	}

	ss := primary.Stats()
	if ss.Role != "primary" || ss.Term == 0 || ss.WALLastSeq != last {
		t.Fatalf("unexpected store stats: %+v", ss)
	}

	// Each half exports its own series through its collect method.
	scrape := func(collect func(*obs.Emitter)) *obs.Scrape {
		t.Helper()
		reg := obs.NewRegistry()
		reg.Collect(collect)
		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		sc, err := obs.ParseText(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		return sc
	}
	ps := scrape(srv.Collect)
	if v, ok := ps.Value("provlight_store_min_sync_followers"); !ok || v != 1 {
		t.Errorf("primary min_sync_followers = %v (present %v), want 1", v, ok)
	}
	for name, want := range map[string]float64{
		"provlight_store_follower_acked_seq":   float64(last),
		"provlight_store_follower_lag_records": 0,
		"provlight_store_follower_lag_bytes":   0,
	} {
		if v, ok := ps.Value(name, "follower", "r1"); !ok || v != want {
			t.Errorf("primary %s{follower=r1} = %v (present %v), want %v", name, v, ok, want)
		}
	}
	rs := scrape(f.Collect)
	for name, want := range map[string]float64{
		"provlight_store_replica_connected":   1,
		"provlight_store_replica_applied_seq": float64(last),
		"provlight_store_replica_lag_records": 0,
	} {
		if v, ok := rs.Value(name); !ok || v != want {
			t.Errorf("replica %s = %v (present %v), want %v", name, v, ok, want)
		}
	}
	if v, ok := rs.Value("provlight_store_replica_staleness_seconds"); !ok || v < 0 || v > 5 {
		t.Errorf("replica staleness = %v (present %v)", v, ok)
	}
}

// TestStalenessOmittedBeforeFirstContact: a replica that has never heard
// from its primary exports no staleness sample (Health keeps its "never"
// value for routing), and its other series are there.
func TestStalenessOmittedBeforeFirstContact(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: dead, ID: "r1"})
	time.Sleep(50 * time.Millisecond) // a few refused dials

	reg := obs.NewRegistry()
	reg.Collect(f.Collect)
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v, ok := sc.Value("provlight_store_replica_staleness_seconds"); ok {
		t.Errorf("staleness exported as %v before any contact with the primary", v)
	}
	if v, ok := sc.Value("provlight_store_replica_connected"); !ok || v != 0 {
		t.Errorf("replica connected = %v (present %v), want 0", v, ok)
	}
	if h := f.Health(); h.Connected || h.Staleness != time.Duration(1<<63-1) {
		t.Errorf("health before first contact = %+v, want disconnected and never heard from", h)
	}
}

// TestReplicaReadiness checks the readiness rule Health produces, and
// that a replica store's /readyz follows its live stream through
// dfanalyzer.Server.Ready.
func TestReplicaReadiness(t *testing.T) {
	for _, tc := range []struct {
		h      ReplicaHealth
		maxLag uint64
		ready  bool
	}{
		{ReplicaHealth{Connected: true, LagRecords: 3}, 10, true},
		{ReplicaHealth{Connected: true, LagRecords: 10}, 10, true},
		{ReplicaHealth{Connected: true, LagRecords: 11}, 10, false},
		{ReplicaHealth{Connected: true, LagRecords: 1 << 40}, 0, true},
		{ReplicaHealth{Connected: false}, 0, false},
	} {
		if err := tc.h.Ready(tc.maxLag); (err == nil) != tc.ready {
			t.Errorf("%+v.Ready(%d) = %v, want ready %v", tc.h, tc.maxLag, err, tc.ready)
		}
	}

	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})
	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})

	hs := dfanalyzer.NewServer(replica)
	hs.Ready = func() error { return f.Health().Ready(10) }
	if err := hs.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	readyz := func() int {
		resp, err := http.Get("http://" + hs.Addr() + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	waitFor(t, "replica ready", func() bool { return readyz() == http.StatusOK })
	f.Stop()
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("stopped replica: /readyz = %d, want 503", code)
	}
}

// TestRoutingSource verifies staleness-bounded read fan-out with primary
// fallback.
func TestRoutingSource(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	ingestN(t, primary, "dev-1", 0, 5)
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})
	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	waitFor(t, "catch-up", caughtUp(primary, f))

	rs := NewRoutingSource(primary, RoutingOptions{MaxStaleness: 5 * time.Second})
	rs.AddReplica(replica, f.Health)
	for i := 0; i < 4; i++ {
		if _, err := rs.Select(context.Background(), cannedQueries()[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := rs.Stats(); got.ReplicaReads != 4 || got.PrimaryReads != 0 {
		t.Fatalf("healthy replica not preferred: %+v", got)
	}

	// An unhealthy replica (simulated via an always-stale health probe)
	// falls back to the primary.
	rs2 := NewRoutingSource(primary, RoutingOptions{MaxStaleness: time.Millisecond})
	rs2.AddReplica(replica, func() ReplicaHealth {
		return ReplicaHealth{Connected: true, Staleness: time.Hour}
	})
	if _, err := rs2.Workflows(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := rs2.Stats(); got.PrimaryReads != 1 || got.ReplicaReads != 0 {
		t.Fatalf("stale replica served a read: %+v", got)
	}
}

// TestReplicaSurvivesRestart restarts a follower store from disk and
// resumes replication from the recovered offset.
func TestReplicaSurvivesRestart(t *testing.T) {
	primary := openStore(t, t.TempDir(), 0)
	defer primary.Close()
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	srv := startPrimary(t, primary, Options{HeartbeatInterval: 20 * time.Millisecond})

	dir := t.TempDir()
	replica := openStore(t, dir, 0)
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	ingestN(t, primary, "dev-1", 0, 6)
	waitFor(t, "catch-up", caughtUp(primary, f))
	f.Stop()
	replica.Close()

	ingestN(t, primary, "dev-1", 6, 6)
	replica2 := openStore(t, dir, 0)
	defer replica2.Close()
	f2 := startFollower(t, replica2, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	waitFor(t, "resume from recovered offset", caughtUp(primary, f2))
	assertSameReads(t, primary, replica2)
}

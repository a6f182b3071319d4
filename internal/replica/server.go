package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/wal"
)

// Options configures the primary side of replication.
type Options struct {
	// MinSync is how many followers must confirm a WAL position durable
	// before WaitCommitted releases it — the semi-synchronous replication
	// knob. At >= 1 NewServer installs the store's commit wait, so a write
	// holding a durable frame id returns, and is acked, only once it is on
	// MinSync followers. 0 (the default) makes replication asynchronous: a
	// primary crash can lose frames acked but not yet shipped.
	MinSync int
	// HeartbeatInterval is how often an idle stream sends its tail
	// position (the follower's staleness clock). Default 500 ms.
	HeartbeatInterval time.Duration
	// OnError receives asynchronous per-follower stream errors.
	OnError func(error)
}

// Server ships a primary store's WAL to followers. One goroutine per
// follower streams records (sealed segments for catch-up, then the live
// tail via the WAL's append notification); a second reads acks.
type Server struct {
	store *dfanalyzer.Store
	log   *wal.Log
	opts  Options

	lis net.Listener

	mu        sync.Mutex
	followers map[string]*followerConn
	commitCh  chan struct{} // closed+replaced whenever an ack advances
	closed    bool
	stop      chan struct{}

	wg sync.WaitGroup
}

// followerConn is the server's per-follower state.
type followerConn struct {
	id   string
	conn net.Conn
	// wake (1-buffered) is this follower's fan-out of the WAL's append
	// notification: the log's own Notify channel is single-consumer, so
	// the pump goroutine re-broadcasts it to every streaming session.
	wake chan struct{}

	mu          sync.Mutex
	ackedSeq    uint64
	lagBytes    uint64
	outstanding []recMeta // sent, unacked records (pruned on ack)
}

type recMeta struct {
	seq   uint64
	bytes uint64
}

// commitTimeout bounds the store's commit wait (dfanalyzer.ErrUncommitted).
const commitTimeout = 10 * time.Second

// NewServer wraps a durable primary store. The store is marked primary
// (adopting term 1 if it never had one) so its term is stamped into the
// WAL before any follower connects.
func NewServer(store *dfanalyzer.Store, opts Options) (*Server, error) {
	log := store.ReplicationWAL()
	if log == nil {
		return nil, fmt.Errorf("replica: store is in-memory; replication needs a durable store (dfanalyzer.OpenStore)")
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if err := store.BecomePrimary(); err != nil {
		return nil, err
	}
	s := &Server{
		store:     store,
		log:       log,
		opts:      opts,
		followers: map[string]*followerConn{},
		commitCh:  make(chan struct{}),
		stop:      make(chan struct{}),
	}
	if opts.MinSync > 0 {
		// The store calls the wait after appending the write, so the WAL
		// tail read here covers it.
		store.SetCommitWait(func() error {
			ctx, cancel := context.WithTimeout(context.Background(), commitTimeout)
			defer cancel()
			return s.WaitCommitted(ctx, log.LastSeq())
		})
	}
	return s, nil
}

// Start listens for follower connections on addr (e.g. "127.0.0.1:0").
func (s *Server) Start(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("replica: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.wg.Add(2)
	go s.acceptLoop()
	go s.notifyPump()
	return nil
}

// notifyPump re-broadcasts the WAL's (single-consumer) append
// notification to every streaming session, so all followers tail the
// live log with append-latency wakeups instead of one lucky follower
// per append and heartbeat-latency for the rest.
func (s *Server) notifyPump() {
	defer s.wg.Done()
	for {
		select {
		case <-s.log.Notify():
		case <-s.stop:
			return
		}
		s.mu.Lock()
		for _, f := range s.followers {
			select {
			case f.wake <- struct{}{}:
			default:
			}
		}
		s.mu.Unlock()
	}
}

// Addr returns the replication listen address.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops accepting, severs every follower stream, and removes the
// store's commit wait: waiting writes fail, later ones no longer wait.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stop)
	conns := make([]net.Conn, 0, len(s.followers))
	for _, f := range s.followers {
		conns = append(conns, f.conn)
	}
	s.mu.Unlock()
	s.store.SetCommitWait(nil)
	if s.lis != nil {
		_ = s.lis.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.serveFollower(conn); err != nil && s.opts.OnError != nil {
				s.opts.OnError(err)
			}
		}()
	}
}

// serveFollower runs one replication session: handshake, optional
// snapshot, then the record stream until the connection drops.
func (s *Server) serveFollower(conn net.Conn) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	typ, payload, err := readMsg(br)
	if err != nil {
		return fmt.Errorf("replica: read hello: %w", err)
	}
	if typ != msgHello {
		return fmt.Errorf("replica: expected hello, got message type %d", typ)
	}
	var hello helloMsg
	if err := json.Unmarshal(payload, &hello); err != nil {
		return fmt.Errorf("replica: decode hello: %w", err)
	}
	if hello.ID == "" {
		hello.ID = conn.RemoteAddr().String()
	}
	if err := s.checkLineage(&hello); err != nil {
		_ = writeMsg(conn, msgError, []byte(err.Error()))
		return fmt.Errorf("replica: reject follower %s: %w", hello.ID, err)
	}

	f := s.register(hello.ID, conn)
	if f == nil {
		return nil // server closing
	}
	defer s.unregister(f)

	start := hello.From
	if start == 0 {
		start = 1
	}
	first := s.log.FirstSeq()
	welcome := welcomeMsg{
		Term:     s.store.CurrentTerm(),
		FirstSeq: first,
		LastSeq:  s.log.LastSeq(),
		// A follower asking for records older than the retained WAL can
		// only be caught up through a snapshot (the primary reclaimed
		// those segments behind its own snapshot).
		Snapshot: first > 0 && start < first,
	}
	if err := writeJSONMsg(conn, msgWelcome, &welcome); err != nil {
		return fmt.Errorf("replica: write welcome: %w", err)
	}
	if welcome.Snapshot {
		data, snapSeq, err := s.store.SnapshotBytes()
		if err != nil {
			return fmt.Errorf("replica: snapshot for %s: %w", hello.ID, err)
		}
		if err := writeMsg(conn, msgSnapshot, seqPayload(snapSeq, data)); err != nil {
			return fmt.Errorf("replica: ship snapshot: %w", err)
		}
		if snapSeq+1 > start {
			start = snapSeq + 1
		}
	}

	// Ack reader: the only follower→primary traffic after the hello.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		for {
			typ, payload, err := readMsg(br)
			if err != nil {
				_ = conn.Close() // unblock the stream loop
				return
			}
			if typ != msgAck {
				continue
			}
			if seq, _, err := splitSeqPayload(payload); err == nil {
				s.recordAck(f, seq)
			}
		}
	}()
	err = s.streamRecords(f, conn, start)
	<-ackDone
	return err
}

// checkLineage rejects followers that cannot safely resume from this
// primary's WAL.
func (s *Server) checkLineage(hello *helloMsg) error {
	term := s.store.CurrentTerm()
	if hello.Term > term {
		// The follower has seen a newer term than ours: *we* are the
		// deposed node here and must not feed it anything.
		return fmt.Errorf("%w: follower at term %d, primary at %d",
			dfanalyzer.ErrStaleTerm, hello.Term, term)
	}
	if hello.Term < term && hello.LastApplied >= s.store.TermStartSeq() {
		// The follower's log reaches the seq where our term began, under
		// an older term: its record at that seq cannot be our term record
		// (applying it would have taught it our term), so its tail was
		// never replicated into this lineage (the classic
		// deposed-primary-rejoins case). >= because the term record
		// itself occupies TermStartSeq — an in-sync follower stops at
		// TermStartSeq-1.
		return fmt.Errorf("%w: follower term %d applied through %d, but term %d began at %d",
			dfanalyzer.ErrDiverged, hello.Term, hello.LastApplied, term, s.store.TermStartSeq())
	}
	if last := s.log.LastSeq(); hello.LastApplied > last {
		return fmt.Errorf("%w: follower applied through %d, primary log ends at %d",
			dfanalyzer.ErrDiverged, hello.LastApplied, last)
	}
	return nil
}

// streamRecords ships WAL records from start until the connection fails,
// tailing the live log via its append notification and heartbeating when
// idle. Outbound records go through a buffered writer flushed only at the
// caught-up boundary: while the follower is behind, records coalesce into
// large TCP segments (one syscall per buffer-full instead of per record),
// and the flush right before blocking keeps the live-tail latency at one
// loop iteration.
func (s *Server) streamRecords(f *followerConn, conn net.Conn, start uint64) error {
	bw := bufio.NewWriterSize(conn, 64<<10)
	r := s.log.ReadFrom(start)
	defer r.Close()
	heartbeat := time.NewTicker(s.opts.HeartbeatInterval)
	defer heartbeat.Stop()
	expected := start
	var buf []byte
	for {
		seq, payload, ok, err := r.Next(buf[:0])
		if err != nil {
			// Permanent read error at this position (corrupt retained
			// record): tell the follower to resync and drop the session.
			if writeMsg(bw, msgError, []byte("primary WAL read error: "+err.Error())) == nil {
				_ = bw.Flush()
			}
			return fmt.Errorf("replica: stream to %s: %w", f.id, err)
		}
		if ok {
			buf = payload
			if seq > expected && s.log.FirstSeq() > expected {
				// The reader skipped forward because the records at
				// `expected` were truncated away (snapshot reclaim racing a
				// slow follower) — not a benign quarantine gap. The follower
				// must restart the handshake to receive a snapshot.
				if writeMsg(bw, msgError, []byte("log truncated behind stream; reconnect for snapshot")) == nil {
					_ = bw.Flush()
				}
				return nil
			}
			if err := writeMsg(bw, msgRecord, seqPayload(seq, payload)); err != nil {
				return nil // connection dropped; follower will reconnect
			}
			f.noteSent(seq, uint64(len(payload)))
			expected = seq + 1
			continue
		}
		// Caught up: push everything batched so far to the wire, then wait
		// for an append, a heartbeat tick, or EOF.
		if err := bw.Flush(); err != nil {
			return nil
		}
		select {
		case <-f.wake:
		case <-s.stop:
			return nil
		case <-heartbeat.C:
			if writeMsg(bw, msgHeartbeat, seqPayload(s.log.LastSeq(), nil)) != nil {
				return nil
			}
			if err := bw.Flush(); err != nil {
				return nil
			}
		}
	}
}

func (s *Server) register(id string, conn net.Conn) *followerConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if old, ok := s.followers[id]; ok {
		_ = old.conn.Close() // a reconnect replaces the stale session
	}
	f := &followerConn{id: id, conn: conn, wake: make(chan struct{}, 1)}
	s.followers[id] = f
	return f
}

func (s *Server) unregister(f *followerConn) {
	s.mu.Lock()
	if s.followers[f.id] == f {
		delete(s.followers, f.id)
	}
	s.mu.Unlock()
}

func (f *followerConn) noteSent(seq, bytes uint64) {
	f.mu.Lock()
	f.lagBytes += bytes
	f.outstanding = append(f.outstanding, recMeta{seq: seq, bytes: bytes})
	f.mu.Unlock()
}

// recordAck advances a follower's durable position and wakes semi-sync
// waiters.
func (s *Server) recordAck(f *followerConn, seq uint64) {
	f.mu.Lock()
	if seq <= f.ackedSeq {
		f.mu.Unlock()
		return
	}
	f.ackedSeq = seq
	drop := 0
	for drop < len(f.outstanding) && f.outstanding[drop].seq <= seq {
		f.lagBytes -= f.outstanding[drop].bytes
		drop++
	}
	f.outstanding = f.outstanding[drop:]
	f.mu.Unlock()

	s.mu.Lock()
	close(s.commitCh)
	s.commitCh = make(chan struct{})
	s.mu.Unlock()
}

// committedSeq returns the highest WAL position confirmed durable on at
// least MinSync followers (the MinSync-th largest follower ack). With
// MinSync == 0 everything counts as committed.
func (s *Server) committedSeq() uint64 {
	if s.opts.MinSync <= 0 {
		return ^uint64(0)
	}
	s.mu.Lock()
	acks := make([]uint64, 0, len(s.followers))
	for _, f := range s.followers {
		f.mu.Lock()
		acks = append(acks, f.ackedSeq)
		f.mu.Unlock()
	}
	s.mu.Unlock()
	if len(acks) < s.opts.MinSync {
		return 0
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[s.opts.MinSync-1]
}

// WaitCommitted blocks until seq is durable on at least MinSync
// followers, or ctx expires. It returns immediately when MinSync == 0.
func (s *Server) WaitCommitted(ctx context.Context, seq uint64) error {
	for {
		if s.committedSeq() >= seq {
			return nil
		}
		s.mu.Lock()
		ch := s.commitCh
		s.mu.Unlock()
		select {
		case <-ch:
		case <-s.stop:
			return errors.New("replica: server closed while waiting for replication")
		case <-ctx.Done():
			return fmt.Errorf("replica: %d not replicated to %d follower(s): %w",
				seq, s.opts.MinSync, ctx.Err())
		}
	}
}

// ReplicationStats is the primary's view of its followers.
type ReplicationStats struct {
	MinSync   int
	Followers []FollowerStats
}

// FollowerStats is one follower's replication health as seen from the
// primary.
type FollowerStats struct {
	ID string
	// AckedSeq is the highest WAL sequence the follower has confirmed
	// durable.
	AckedSeq uint64
	// LagRecords/LagBytes measure how far the follower trails the
	// primary's WAL tail: records behind the last appended sequence, and
	// bytes sent but not yet acknowledged.
	LagRecords uint64
	LagBytes   uint64
}

// Stats reports per-follower replication lag (records behind the primary
// tail, bytes sent but unacked).
func (s *Server) Stats() ReplicationStats {
	last := s.log.LastSeq()
	st := ReplicationStats{MinSync: s.opts.MinSync}
	s.mu.Lock()
	ids := make([]string, 0, len(s.followers))
	for id := range s.followers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		f := s.followers[id]
		f.mu.Lock()
		fs := FollowerStats{
			ID:       f.id,
			AckedSeq: f.ackedSeq,
			LagBytes: f.lagBytes,
		}
		if last > f.ackedSeq {
			fs.LagRecords = last - f.ackedSeq
		}
		f.mu.Unlock()
		st.Followers = append(st.Followers, fs)
	}
	s.mu.Unlock()
	return st
}

// Collect exports the primary's replication health: the semi-sync
// requirement and per-follower lag labeled follower=<id>. Pass it to
// obs.Registry.Collect.
func (s *Server) Collect(e *obs.Emitter) {
	st := s.Stats()
	e.Gauge("provlight_store_min_sync_followers", "Followers required durable before acks release.", float64(st.MinSync))
	for _, f := range st.Followers {
		lbl := []string{"follower", f.ID}
		e.Gauge("provlight_store_follower_acked_seq", "Highest WAL sequence the follower confirmed durable.", float64(f.AckedSeq), lbl...)
		e.Gauge("provlight_store_follower_lag_records", "Records the follower trails the primary's WAL tail.", float64(f.LagRecords), lbl...)
		e.Gauge("provlight_store_follower_lag_bytes", "Bytes sent to the follower but not yet acknowledged.", float64(f.LagBytes), lbl...)
	}
}

package replica

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/resilience"
)

// FollowerOptions configures one read replica.
type FollowerOptions struct {
	// Primary is the primary's replication listen address.
	Primary string
	// ID names this follower to the primary (stable across reconnects).
	// Default: the local store's data directory is not known here, so an
	// empty ID falls back to the connection's local address.
	ID string
	// Dial, when set, replaces net.Dial — the fault-injection hook
	// (chaos.Fault.Dialer).
	Dial func(network, addr string) (net.Conn, error)
	// ReconnectMin/ReconnectMax bound the exponential reconnect backoff.
	// Defaults 50 ms / 2 s.
	ReconnectMin, ReconnectMax time.Duration
	// AckInterval is how often the follower reports its applied position.
	// Default 50 ms.
	AckInterval time.Duration
	// OnError receives asynchronous session errors.
	OnError func(error)
}

// ErrDiverged re-exports the store's divergence error for callers that
// only import replica.
var ErrDiverged = dfanalyzer.ErrDiverged

// Follower replays a primary's WAL into a local durable store, making it
// a read replica: the store serves Source queries while every external
// write path is fenced off. The replication session reconnects with
// backoff until Stop or Promote.
type Follower struct {
	store *dfanalyzer.Store
	opts  FollowerOptions

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn

	connected  atomic.Bool
	primarySeq atomic.Uint64
	// lastContact is the monotonic-ish wall clock of the last record or
	// heartbeat, the staleness input for read routing.
	lastContact atomic.Int64

	// fatal is set when the primary permanently rejected this follower
	// (divergence, stale term); the reconnect loop stops.
	fatalMu  sync.Mutex
	fatalErr error
}

// StartFollower marks store a read replica and begins replicating from
// opts.Primary. The store must be durable (dfanalyzer.OpenStore): the
// follower mirrors the primary's WAL into it so a promoted follower has
// the full recovery lineage.
func StartFollower(store *dfanalyzer.Store, opts FollowerOptions) (*Follower, error) {
	if store.ReplicationWAL() == nil {
		return nil, fmt.Errorf("replica: follower store is in-memory; use dfanalyzer.OpenStore")
	}
	if opts.Primary == "" {
		return nil, fmt.Errorf("replica: FollowerOptions.Primary required")
	}
	if opts.Dial == nil {
		opts.Dial = net.Dial
	}
	if opts.ReconnectMin <= 0 {
		opts.ReconnectMin = 50 * time.Millisecond
	}
	if opts.ReconnectMax <= 0 {
		opts.ReconnectMax = 2 * time.Second
	}
	if opts.AckInterval <= 0 {
		opts.AckInterval = 50 * time.Millisecond
	}
	store.BeginFollowing()
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{store: store, opts: opts, ctx: ctx, cancel: cancel}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// run is the reconnect loop: dial, replicate until the session drops,
// back off, repeat — until Stop/Promote or a permanent rejection. The
// backoff schedule is the shared resilience policy (jittered exponential
// between ReconnectMin and ReconnectMax); a working session resets it.
func (f *Follower) run() {
	defer f.wg.Done()
	bo := resilience.Backoff{Min: f.opts.ReconnectMin, Max: f.opts.ReconnectMax}
	attempt := 0
	for f.ctx.Err() == nil && f.Err() == nil {
		conn, err := f.opts.Dial("tcp", f.opts.Primary)
		if err == nil {
			if f.session(conn) {
				attempt = 0 // a working session resets backoff
			}
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(bo.Delay(attempt)):
		}
		attempt++
	}
}

// session runs one replication session; ok reports whether the handshake
// succeeded (used to reset the reconnect backoff).
func (f *Follower) session(conn net.Conn) (ok bool) {
	defer conn.Close()
	f.mu.Lock()
	f.conn = conn
	f.mu.Unlock()
	defer func() {
		f.connected.Store(false)
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
	}()

	_, lastApplied := f.store.WALSeqs()
	hello := helloMsg{
		ID:          f.followerID(conn),
		From:        lastApplied + 1,
		Term:        f.store.CurrentTerm(),
		LastApplied: lastApplied,
	}
	if err := writeJSONMsg(conn, msgHello, &hello); err != nil {
		return false
	}
	// A deep read buffer is what feeds record coalescing below: each
	// syscall pulls a long run of the stream, applied as one batch.
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, payload, err := readMsg(br)
	if err != nil {
		return false
	}
	if typ == msgError {
		f.handleRejection(string(payload))
		return false
	}
	if typ != msgWelcome {
		f.report(fmt.Errorf("replica: expected welcome, got message type %d", typ))
		return false
	}
	var welcome welcomeMsg
	if err := json.Unmarshal(payload, &welcome); err != nil {
		f.report(fmt.Errorf("replica: decode welcome: %w", err))
		return false
	}
	if welcome.Term < f.store.CurrentTerm() {
		// The dialed primary is on an older term than we are: it was
		// deposed (we may have been promoted, or learned the new term from
		// elsewhere). Never accept its records.
		f.report(fmt.Errorf("replica: refusing primary on stale term %d (local term %d)",
			welcome.Term, f.store.CurrentTerm()))
		return false
	}
	f.connected.Store(true)
	f.primarySeq.Store(welcome.LastSeq)
	f.touch()

	// Ack writer: the follower's only outbound traffic after the hello.
	ackCtx, stopAcks := context.WithCancel(f.ctx)
	var ackWg sync.WaitGroup
	ackWg.Add(1)
	go func() {
		defer ackWg.Done()
		ticker := time.NewTicker(f.opts.AckInterval)
		defer ticker.Stop()
		var lastSent uint64
		for {
			select {
			case <-ackCtx.Done():
				return
			case <-ticker.C:
				applied := f.store.AppliedSeq()
				if applied == lastSent {
					continue
				}
				if err := writeMsg(conn, msgAck, seqPayload(applied, nil)); err != nil {
					return
				}
				lastSent = applied
			}
		}
	}()
	defer func() {
		stopAcks()
		ackWg.Wait()
	}()

	// Records are coalesced: one message is read, then everything already
	// sitting in the read buffer is drained into the same batch, which the
	// store applies under a single commit-lock acquisition with one
	// batched WAL write. On a quiet stream the batch is a single record
	// and behavior matches record-at-a-time apply; under a firehose the
	// follower's per-record syscall cost — the thing that makes a replica
	// fall behind a primary it must keep up with — collapses.
	var batch []dfanalyzer.ReplRecord
	applyBatch := func() bool {
		if len(batch) == 0 {
			return true
		}
		if err := f.store.ApplyReplicatedBatch(batch); err != nil {
			f.report(fmt.Errorf("replica: apply records %d..%d: %w",
				batch[0].Seq, batch[len(batch)-1].Seq, err))
			return false
		}
		f.primarySeq.Store(maxU64(f.primarySeq.Load(), batch[len(batch)-1].Seq))
		f.touch()
		batch = batch[:0]
		return true
	}
	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			return true // connection dropped; reconnect
		}
		switch typ {
		case msgSnapshot:
			if !applyBatch() {
				return true
			}
			snapSeq, data, err := splitSeqPayload(payload)
			if err != nil {
				f.report(err)
				return true
			}
			if _, err := f.store.InstallSnapshot(data); err != nil {
				wrapped := fmt.Errorf("replica: install snapshot: %w", err)
				f.report(wrapped)
				if errors.Is(err, dfanalyzer.ErrDiverged) {
					f.setFatal(resilience.Permanent(wrapped))
				}
				return true
			}
			f.primarySeq.Store(maxU64(f.primarySeq.Load(), snapSeq))
			f.touch()
		case msgRecord:
			seq, body, err := splitSeqPayload(payload)
			if err != nil {
				f.report(err)
				return true
			}
			batch = append(batch, dfanalyzer.ReplRecord{Seq: seq, Payload: body})
			if len(batch) < maxApplyBatch && br.Buffered() > 0 {
				continue // more of the stream already arrived; keep batching
			}
			if !applyBatch() {
				return true
			}
		case msgHeartbeat:
			if !applyBatch() {
				return true
			}
			seq, _, err := splitSeqPayload(payload)
			if err == nil {
				f.primarySeq.Store(maxU64(f.primarySeq.Load(), seq))
			}
			f.touch()
		case msgError:
			applyBatch()
			f.handleRejection(string(payload))
			return true
		}
	}
}

// maxApplyBatch bounds how many coalesced records one ApplyReplicatedBatch
// call may carry, keeping commit-lock hold times (and the reader-visible
// apply granularity) modest.
const maxApplyBatch = 256

// handleRejection classifies a primary-sent error: divergence and
// stale-term rejections are permanent in the resilience sense (the
// reconnect loop stops — an operator must reset or re-point this
// replica); everything else (e.g. "log truncated, reconnect for
// snapshot") is retried.
func (f *Follower) handleRejection(reason string) {
	err := fmt.Errorf("replica: primary rejected session: %s", reason)
	switch {
	case strings.Contains(reason, "diverged"):
		err = resilience.Permanent(fmt.Errorf("replica: primary rejected session: %s: %w", reason, ErrDiverged))
		f.setFatal(err)
	case strings.Contains(reason, "term"):
		err = resilience.Permanent(fmt.Errorf("replica: primary rejected session: %s: %w", reason, dfanalyzer.ErrStaleTerm))
		f.setFatal(err)
	}
	f.report(err)
}

func (f *Follower) followerID(conn net.Conn) string {
	if f.opts.ID != "" {
		return f.opts.ID
	}
	return conn.LocalAddr().String()
}

func (f *Follower) touch() {
	f.lastContact.Store(time.Now().UnixNano())
}

func (f *Follower) report(err error) {
	if f.opts.OnError != nil {
		f.opts.OnError(err)
	}
}

func (f *Follower) setFatal(err error) {
	f.fatalMu.Lock()
	if f.fatalErr == nil {
		f.fatalErr = err
	}
	f.fatalMu.Unlock()
}

// Err returns the permanent rejection that stopped the reconnect loop,
// if any (divergence, stale term).
func (f *Follower) Err() error {
	f.fatalMu.Lock()
	defer f.fatalMu.Unlock()
	return f.fatalErr
}

// Stop ends replication; the store stays a read replica.
func (f *Follower) Stop() {
	f.cancel()
	f.mu.Lock()
	if f.conn != nil {
		_ = f.conn.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// Promote stops replication and promotes the local store to primary of a
// new term (term+1, WAL-logged as the promotion point). Returns the new
// term. The caller is responsible for promoting the *most caught-up*
// follower — compare AppliedSeq across candidates first; with semi-sync
// acks (Server.MinSync >= 1) that follower is guaranteed to hold every
// acknowledged frame.
func (f *Follower) Promote() (uint64, error) {
	f.Stop()
	return f.store.Promote()
}

// AppliedSeq returns the last WAL sequence replayed into the local
// store and visible to queries — the promotion fitness metric. (The
// local WAL tail can run ahead of it momentarily inside a batched
// apply; acks and read routing use this, the conservative cursor.)
func (f *Follower) AppliedSeq() uint64 {
	return f.store.AppliedSeq()
}

// Store returns the local replica store (a source.Source for reads).
func (f *Follower) Store() *dfanalyzer.Store { return f.store }

// Health returns the routing view of this replica: how far it trails the
// primary and how fresh its stream is.
func (f *Follower) Health() ReplicaHealth {
	applied := f.AppliedSeq()
	primary := f.primarySeq.Load()
	h := ReplicaHealth{Connected: f.connected.Load()}
	if primary > applied {
		h.LagRecords = primary - applied
	}
	if last := f.lastContact.Load(); last > 0 {
		h.Staleness = time.Since(time.Unix(0, last))
	} else {
		h.Staleness = time.Duration(1<<63 - 1) // never heard from the primary
	}
	return h
}

// Collect exports the replica's replication health: stream state,
// applied position, lag and staleness. Pass it to obs.Registry.Collect.
// Staleness is left out until the replica first hears from its primary:
// Health's "never" value is for routing, not a number of seconds.
func (f *Follower) Collect(e *obs.Emitter) {
	h := f.Health()
	connected := 0.0
	if h.Connected {
		connected = 1
	}
	e.Gauge("provlight_store_replica_connected", "1 while the replication stream to the primary is live.", connected)
	e.Gauge("provlight_store_replica_applied_seq", "Last WAL sequence replayed locally.", float64(f.AppliedSeq()))
	e.Gauge("provlight_store_replica_lag_records", "Records this replica trails its primary.", float64(h.LagRecords))
	if f.lastContact.Load() > 0 {
		e.Gauge("provlight_store_replica_staleness_seconds", "Time since the last record or heartbeat from the primary.", float64(h.Staleness.Milliseconds())/1000)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

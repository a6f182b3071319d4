package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/source"
)

// ReplicaHealth is the routing and readiness view of one replica.
type ReplicaHealth struct {
	// LagRecords is how many WAL records the replica trails the primary.
	LagRecords uint64
	// Staleness is how long ago the replica last heard from the primary
	// (record or heartbeat).
	Staleness time.Duration
	// Connected reports a live replication session.
	Connected bool
}

// Ready reports whether the replica should receive traffic: connected,
// and trailing by no more than maxLag records (0: any lag). It backs
// dfanalyzer.Server.Ready.
func (h ReplicaHealth) Ready(maxLag uint64) error {
	switch {
	case !h.Connected:
		return errors.New("disconnected from primary")
	case maxLag > 0 && h.LagRecords > maxLag:
		return fmt.Errorf("replica lag %d records exceeds threshold %d", h.LagRecords, maxLag)
	}
	return nil
}

// RoutingOptions bound how stale a replica may be and still serve reads.
type RoutingOptions struct {
	// MaxLagRecords is the largest acceptable record lag; 0 means
	// "any lag", which on a connected replica is usually what staleness
	// alone should govern.
	MaxLagRecords uint64
	// MaxStaleness is the oldest acceptable last-contact age.
	// Default 2 s.
	MaxStaleness time.Duration
}

// RoutingStats counts where reads went.
type RoutingStats struct {
	ReplicaReads uint64
	PrimaryReads uint64
}

// RoutingSource fans reads across read replicas, falling back to the
// primary when no replica is within the staleness bounds. It implements
// source.Source, so anything written against the Source API — the query
// CLI, live subscriptions' initial catch-up, user code — scales across
// replicas without change.
type RoutingSource struct {
	primary source.Source
	opts    RoutingOptions

	mu       sync.RWMutex
	replicas []routedReplica

	rr           atomic.Uint64
	replicaReads atomic.Uint64
	primaryReads atomic.Uint64
}

type routedReplica struct {
	src    source.Source
	health func() ReplicaHealth
}

// NewRoutingSource routes reads across replicas with primary as the
// always-correct fallback.
func NewRoutingSource(primary source.Source, opts RoutingOptions) *RoutingSource {
	if opts.MaxStaleness <= 0 {
		opts.MaxStaleness = 2 * time.Second
	}
	return &RoutingSource{primary: primary, opts: opts}
}

// AddReplica registers a replica and its health probe (typically
// Follower.Store and Follower.Health, or a remote dfanalyzer.Client
// paired with a poll of the replica's /metrics).
func (r *RoutingSource) AddReplica(src source.Source, health func() ReplicaHealth) {
	r.mu.Lock()
	r.replicas = append(r.replicas, routedReplica{src: src, health: health})
	r.mu.Unlock()
}

// pick chooses the serving source for one read: round-robin over the
// replicas currently within bounds, else the primary.
func (r *RoutingSource) pick() source.Source {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.replicas)
	if n > 0 {
		start := int(r.rr.Add(1)) % n
		for i := 0; i < n; i++ {
			cand := r.replicas[(start+i)%n]
			h := cand.health()
			if !h.Connected || h.Staleness > r.opts.MaxStaleness {
				continue
			}
			if r.opts.MaxLagRecords > 0 && h.LagRecords > r.opts.MaxLagRecords {
				continue
			}
			r.replicaReads.Add(1)
			return cand.src
		}
	}
	r.primaryReads.Add(1)
	return r.primary
}

// Stats reports how many reads each side served.
func (r *RoutingSource) Stats() RoutingStats {
	return RoutingStats{
		ReplicaReads: r.replicaReads.Load(),
		PrimaryReads: r.primaryReads.Load(),
	}
}

var _ source.Source = (*RoutingSource)(nil)

// Select implements source.Source.
func (r *RoutingSource) Select(ctx context.Context, q source.Query) ([]source.Row, error) {
	return r.pick().Select(ctx, q)
}

// Task implements source.Source.
func (r *RoutingSource) Task(ctx context.Context, workflow, id string) (*source.TaskInfo, error) {
	return r.pick().Task(ctx, workflow, id)
}

// Tasks implements source.Source.
func (r *RoutingSource) Tasks(ctx context.Context, workflow string) ([]source.TaskInfo, error) {
	return r.pick().Tasks(ctx, workflow)
}

// Workflows implements source.Source.
func (r *RoutingSource) Workflows(ctx context.Context) ([]string, error) {
	return r.pick().Workflows(ctx)
}

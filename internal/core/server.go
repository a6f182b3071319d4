package core

import (
	"context"
	"fmt"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
)

// ServerConfig configures a ProvLight server: the broker plus one or more
// provenance data translators (paper Fig. 3: "The ProvLight server is
// composed of a broker and a provenance data translator. Both may be
// parallelized to scale the data capture").
type ServerConfig struct {
	// Addr is the UDP address the broker listens on ("127.0.0.1:0" picks
	// a free port).
	Addr string
	// Targets receive translated records.
	Targets []translate.Target
	// Translators is how many parallel translator sessions to run; each
	// consumes the full topic space unless TopicFilters is set. Default 1.
	Translators int
	// TopicFilters optionally pins each translator to its own filter
	// (e.g. one per device topic, as in the Table IX scalability setup).
	// When set, it overrides Translators.
	TopicFilters []string
	// Sessions is how many broker sessions each translator opens in one
	// shared-subscription consumer group: the broker partitions the
	// device topic space across them (per-workflow order preserved), so
	// the fan-in path scales horizontally instead of squeezing through
	// one session's outbound window. Default 1.
	Sessions int
	// Workers per translator. Default 1.
	Workers int
	// BatchSize caps the translator delivery micro-batch (frames drained
	// from the queue per delivery round). Default 64; 1 disables batching.
	BatchSize int
	// BatchLinger is how long a translator worker waits for more frames
	// before delivering an underfull batch. Default 0 (no wait).
	BatchLinger time.Duration
	// RetryInterval tunes broker and translator retransmissions.
	RetryInterval time.Duration
	// MaxSessions, ConnectRate and ConnectBurst pass through to the
	// broker's overload admission control (see broker.Config): past either
	// limit new CONNECTs get a congestion CONNACK instead of a session.
	MaxSessions  int
	ConnectRate  float64
	ConnectBurst int
	// OnError receives asynchronous translator errors.
	OnError func(error)
	// Metrics, when set, exports broker counters, translator counters and
	// pipeline stage latencies into the registry. Scrape-time cost only.
	Metrics *obs.Registry
}

// Server bundles the broker and translators.
type Server struct {
	Broker      *broker.Broker
	Translators []*translate.Translator

	hub *translate.Hub
}

// StartServer launches the broker and its translators. ctx bounds the
// translators' connect/subscribe handshakes; it does not govern the
// server's lifetime — use Shutdown/Close for that.
func StartServer(ctx context.Context, cfg ServerConfig) (*Server, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("provlight: server requires at least one target")
	}
	b, err := broker.New(broker.Config{
		Addr:          cfg.Addr,
		RetryInterval: cfg.RetryInterval,
		MaxSessions:   cfg.MaxSessions,
		ConnectRate:   cfg.ConnectRate,
		ConnectBurst:  cfg.ConnectBurst,
		Metrics:       cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		broker.CollectStats(cfg.Metrics, "", b.Stats)
	}
	filters := cfg.TopicFilters
	if len(filters) == 0 {
		n := cfg.Translators
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			filters = append(filters, "provlight/+/records")
		}
	}
	srv := &Server{Broker: b, hub: translate.NewHub()}
	for i, filter := range filters {
		tr, err := translate.New(ctx, translate.Config{
			Broker:        b.Addr(),
			ClientID:      fmt.Sprintf("translator-%d", i+1),
			TopicFilter:   filter,
			Targets:       cfg.Targets,
			Sessions:      cfg.Sessions,
			Workers:       cfg.Workers,
			BatchSize:     cfg.BatchSize,
			BatchLinger:   cfg.BatchLinger,
			RetryInterval: cfg.RetryInterval,
			OnError:       cfg.OnError,
			Hub:           srv.hub,
			Metrics:       cfg.Metrics,
		})
		if err != nil {
			srv.Close()
			return nil, err
		}
		srv.Translators = append(srv.Translators, tr)
	}
	return srv, nil
}

// Addr returns the broker's UDP address for clients.
func (s *Server) Addr() string { return s.Broker.Addr() }

// Subscribe opens a live provenance stream: every record decoded by the
// server's translators (any of them) that matches filter is delivered on
// the returned channel, after target delivery. The channel is closed when
// the subscription ends — cancel is called, ctx is cancelled, or the
// server shuts down.
//
// Delivery is non-blocking with a bounded per-subscriber buffer
// (Filter.Buffer, default translate.DefaultSubscribeBuffer): a slow
// consumer loses records rather than backpressuring ingestion, and every
// such drop is counted in SubscriptionStats().Dropped.
func (s *Server) Subscribe(ctx context.Context, filter translate.Filter) (<-chan provdm.Record, func()) {
	return s.hub.Subscribe(ctx, filter)
}

// SubscriptionStats returns a snapshot of live-subscription counters
// (active subscribers, records delivered, slow-consumer drops).
func (s *Server) SubscriptionStats() translate.HubStats { return s.hub.Stats() }

// Drain waits until every translator has delivered all received frames.
func (s *Server) Drain() {
	for _, t := range s.Translators {
		t.Drain()
	}
}

// Shutdown stops the server gracefully under ctx: each translator stops
// consuming and drains its already-received frames, live subscriptions are
// ended (their channels closed), and the broker is stopped last. If ctx
// expires mid-drain the first context error is returned and the remaining
// teardown is forced.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	for _, t := range s.Translators {
		if e := t.Shutdown(ctx); e != nil && err == nil {
			err = e
		}
	}
	s.hub.Close()
	if s.Broker != nil {
		s.Broker.Close()
	}
	return err
}

// Close stops translators and the broker, draining without a deadline.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

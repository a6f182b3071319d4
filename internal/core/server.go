package core

import (
	"context"
	"fmt"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
)

// ServerConfig configures a ProvLight server: the broker plus one
// provenance data translator (paper Fig. 3: "The ProvLight server is
// composed of a broker and a provenance data translator. Both may be
// parallelized to scale the data capture"). The translator delivers
// through one ordered loop; its fan-in scales with Sessions, and delivery
// scales with more translator processes sharing a consumer group
// (translate.Config.Group).
type ServerConfig struct {
	// Addr is the UDP address the broker listens on ("127.0.0.1:0" picks
	// a free port).
	Addr string
	// Targets receive translated records.
	Targets []translate.Target
	// Sessions is how many broker sessions the translator opens in one
	// shared-subscription consumer group: the broker partitions the
	// device topic space across them (per-workflow order preserved), so
	// the fan-in path scales horizontally instead of squeezing through
	// one session's outbound window. Default 1.
	Sessions int
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

// Server bundles the broker and its translator.
type Server struct {
	Broker     *broker.Broker
	Translator *translate.Translator
}

// StartServer launches the broker and its translator. ctx bounds the
// translator's connect/subscribe handshakes; it does not govern the
// server's lifetime — use Shutdown/Close for that.
func StartServer(ctx context.Context, cfg ServerConfig) (*Server, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("provlight: server requires at least one target")
	}
	b, err := broker.New(broker.Config{
		Addr:         cfg.Addr,
		MaxSessions:  cfg.MaxSessions,
		ConnectRate:  cfg.ConnectRate,
		ConnectBurst: cfg.ConnectBurst,
		Metrics:      cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		broker.CollectStats(cfg.Metrics, "", b.Stats)
	}
	tr, err := translate.New(ctx, translate.Config{
		Broker:   b.Addr(),
		Targets:  cfg.Targets,
		Sessions: cfg.Sessions,
		OnError:  cfg.OnError,
		Metrics:  cfg.Metrics,
	})
	if err != nil {
		b.Close()
		return nil, err
	}
	return &Server{Broker: b, Translator: tr}, nil
}

// Addr returns the broker's UDP address for clients.
func (s *Server) Addr() string { return s.Broker.Addr() }

// Subscribe opens a live provenance stream of the records the server's
// translator delivers (see translate.Translator.Subscribe). The channel
// is closed when cancel is called, ctx is cancelled, or the server shuts
// down.
func (s *Server) Subscribe(ctx context.Context, filter translate.Filter) (<-chan provdm.Record, func()) {
	return s.Translator.Subscribe(ctx, filter)
}

// SubscriptionStats returns a snapshot of live-subscription counters
// (active subscribers, records delivered, slow-consumer drops).
func (s *Server) SubscriptionStats() translate.HubStats { return s.Translator.SubscriptionStats() }

// Drain waits until the translator has delivered all received frames.
func (s *Server) Drain() { s.Translator.Drain() }

// Shutdown stops the server gracefully under ctx: the translator stops
// consuming, drains its already-received frames and ends the live
// subscriptions (their channels closed), and the broker is stopped last.
// If ctx expires mid-drain the context error is returned and the broker
// is stopped anyway.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Translator.Shutdown(ctx)
	s.Broker.Close()
	return err
}

// Close stops the translator and the broker, draining without a deadline.
func (s *Server) Close() { _ = s.Shutdown(context.Background()) }

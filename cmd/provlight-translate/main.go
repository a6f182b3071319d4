// Command provlight-translate runs the ProvLight provenance data
// translator: it subscribes to device topics on the broker, decodes the
// binary frames, and forwards records to the selected provenance systems.
//
// Usage:
//
//	provlight-translate -broker 127.0.0.1:1883 \
//	    [-brokers node0:1883,node1:1883,...] \
//	    [-topic 'provlight/+/records'] \
//	    [-sessions 4] [-group translators] [-batch 64] \
//	    [-data-dir ./translator-data] [-fsync interval] \
//	    [-dfanalyzer http://host:port -dataflow tag] \
//	    [-provlake http://host:port] \
//	    [-provjson out.json] [-output-interval 30s] \
//	    [-stats-listen 127.0.0.1:9201] [-pprof]
//
// -stats-listen serves Prometheus text exposition (including the
// end-to-end stage latency histograms) on GET /metrics and a liveness
// probe on GET /healthz; -pprof additionally mounts net/http/pprof.
//
// With -sessions > 1 (or an explicit -group) the translator consumes
// through a shared-subscription consumer group ($share/<group>/<topic>):
// the broker partitions the device topics across the sessions, scaling
// the fan-in path while keeping each device's stream ordered. Each
// process delivers through one ordered loop; several provlight-translate
// processes sharing one -group split the stream the same way across
// processes, which is how delivery is parallelized.
//
// With -brokers (a comma-separated list of clustered broker node
// addresses) the translator spreads its consumer-group sessions across
// the nodes — one home node per session, round-robin — so every node
// has a local group member and forwarded frames never need a second
// hop. Sessions are raised to at least the node count, and a session
// whose home node leaves the cluster fails over to the next address.
//
// With -data-dir the translator embeds a WAL-backed, snapshotting
// DfAnalyzer store: every delivered frame is persisted and deduplicated
// by its durable id before it is acknowledged back to the device, so a
// spooling client gets exactly-once capture across crashes of either
// process. The PROV-JSON document (-provjson) is written via temp-file +
// atomic rename — a crash mid-write can never leave a truncated document
// — and refreshed every -output-interval as well as on shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provlake"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/wal"
)

// writeAtomic writes the PROV-JSON document via temp-file + fsync +
// rename, so readers (and restarts) only ever see a complete document.
func writeAtomic(path string, mem *translate.MemoryTarget) error {
	err := wal.WriteFileAtomic(path, func(w io.Writer) error {
		_, werr := mem.WriteTo(w)
		return werr
	})
	if err != nil {
		return fmt.Errorf("write PROV-JSON: %w", err)
	}
	return nil
}

func main() {
	brokerAddr := flag.String("broker", "127.0.0.1:1883", "MQTT-SN broker address")
	brokerList := flag.String("brokers", "", "comma-separated clustered broker node addresses (spreads sessions across nodes; overrides -broker)")
	topic := flag.String("topic", "provlight/+/records", "topic filter to consume")
	clientID := flag.String("client-id", "translator", "broker client id (must differ between processes sharing a -group)")
	sessions := flag.Int("sessions", 1, "broker sessions in one consumer group (scales fan-in)")
	group := flag.String("group", "", "consumer-group name (default: the client id; implies a shared subscription)")
	batch := flag.Int("batch", 64, "delivery micro-batch size (1 disables batching)")
	dataDir := flag.String("data-dir", "", "embed a durable (WAL + snapshot) store in this directory; enables exactly-once acks for spooling clients")
	fsync := flag.String("fsync", "interval", "embedded store WAL fsync policy: each|interval|off")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period for -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 4096, "embedded store snapshot period in operations (negative disables)")
	dfaURL := flag.String("dfanalyzer", "", "DfAnalyzer base URL (enables DfAnalyzer target)")
	dfaRetries := flag.Int("dfanalyzer-retries", 5, "total HTTP attempts per DfAnalyzer delivery before the error surfaces (1 disables retries)")
	dataflow := flag.String("dataflow", "provlight", "dataflow tag (DfAnalyzer and embedded store)")
	plURL := flag.String("provlake", "", "ProvLake base URL (enables ProvLake target)")
	provjson := flag.String("provjson", "", "write a PROV-JSON document to this file (atomically)")
	outputInterval := flag.Duration("output-interval", 30*time.Second, "refresh the PROV-JSON document this often (0: only on exit)")
	keepAlive := flag.Duration("keepalive", 0, "broker session keep-alive; a silent broker is declared dead after 1.5x this (0: library default). Lower it to fail over faster when a cluster node crashes")
	connectTimeout := flag.Duration("connect-timeout", 30*time.Second, "broker connect/subscribe deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain deadline")
	statsListen := flag.String("stats-listen", "", "serve translator metrics on this HTTP address (GET /metrics, /healthz)")
	enablePProf := flag.Bool("pprof", false, "also mount net/http/pprof on the -stats-listen mux")
	flag.Parse()

	reg := obs.NewRegistry()

	var targets []translate.Target
	var durable *dfanalyzer.Store
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("provlight-translate: %v", err)
		}
		start := time.Now()
		durable, err = dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
			Dir:           *dataDir,
			Sync:          policy,
			SyncInterval:  *fsyncInterval,
			SnapshotEvery: *snapshotEvery,
		})
		if err != nil {
			log.Fatalf("provlight-translate: open store: %v", err)
		}
		log.Printf("provlight-translate: recovered %s in %v (%d tasks in %q)",
			*dataDir, time.Since(start).Round(time.Millisecond), durable.TaskCount(*dataflow), *dataflow)
		targets = append(targets, translate.NewStoreTarget(durable, *dataflow))
	}
	// The in-memory target holds every record of a run without a durable
	// store, and is what the -provjson document is written from.
	var mem *translate.MemoryTarget
	if *dataDir == "" || *provjson != "" {
		mem = translate.NewMemoryTarget()
		targets = append(targets, mem)
	}
	if *dfaURL != "" {
		cl := dfanalyzer.NewClient(*dfaURL)
		if *dfaRetries > 1 {
			cl.WithRetry(*dfaRetries, 100*time.Millisecond, 5*time.Second)
		}
		targets = append(targets, translate.NewDfAnalyzerTarget(cl, *dataflow))
	}
	if *plURL != "" {
		targets = append(targets, translate.NewProvLakeTarget(provlake.NewClient(*plURL)))
	}

	// End-to-end acks tell spooling clients their frames are durable and
	// may be reclaimed from disk. Only say so when some target actually
	// is durable (-data-dir, or an external DfAnalyzer the operator
	// vouches for) — acking from a purely in-memory pipeline would let
	// clients discard frames this process loses on its next crash.
	disableAcks := *dataDir == "" && *dfaURL == ""
	if disableAcks {
		log.Printf("provlight-translate: no durable target (-data-dir / -dfanalyzer): end-to-end acks disabled, spooling clients will retain their frames")
	}

	var clusterAddrs []string
	if *brokerList != "" {
		for _, a := range strings.Split(*brokerList, ",") {
			clusterAddrs = append(clusterAddrs, strings.TrimSpace(a))
		}
	}

	connectCtx, cancelConnect := context.WithTimeout(context.Background(), *connectTimeout)
	tr, err := translate.New(connectCtx, translate.Config{
		Broker:       *brokerAddr,
		ClusterAddrs: clusterAddrs,
		ClientID:     *clientID,
		TopicFilter:  *topic,
		Sessions:     *sessions,
		Group:        *group,
		BatchSize:    *batch,
		KeepAlive:    *keepAlive,
		Targets:      targets,
		DisableAcks:  disableAcks,
		OnError:      func(err error) { log.Printf("provlight-translate: %v", err) },
		Metrics:      reg,
	})
	cancelConnect()
	if err != nil {
		log.Fatalf("provlight-translate: %v", err)
	}
	from := *brokerAddr
	if len(clusterAddrs) > 0 {
		from = strings.Join(clusterAddrs, ",")
	}
	log.Printf("provlight-translate: consuming %q from %s with %d targets (%d sessions)",
		*topic, from, len(targets), tr.Sessions())

	if *statsListen != "" {
		addr, stop, err := obs.Serve(*statsListen, obs.NewMux(obs.MuxOptions{
			Registry: reg,
			PProf:    *enablePProf,
		}))
		if err != nil {
			log.Fatalf("provlight-translate: stats listener: %v", err)
		}
		defer stop()
		log.Printf("provlight-translate: serving metrics on http://%s/metrics", addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	var output <-chan time.Time
	if *provjson != "" && *outputInterval > 0 {
		outputTicker := time.NewTicker(*outputInterval)
		defer outputTicker.Stop()
		output = outputTicker.C
	}
	for {
		select {
		case <-ticker.C:
			st := tr.Stats()
			log.Printf("provlight-translate: frames=%d records=%d batches=%d acks=%d decode_errs=%d delivery_errs=%d redials=%d",
				st.FramesReceived, st.RecordsTranslated, st.BatchesDelivered, st.AcksPublished, st.DecodeErrors, st.DeliveryErrors, st.SessionRedials)
		case <-output:
			if err := writeAtomic(*provjson, mem); err != nil {
				log.Printf("provlight-translate: %v", err)
			}
		case <-sig:
			shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			if err := tr.Shutdown(shutdownCtx); err != nil {
				log.Printf("provlight-translate: shutdown: %v", err)
			}
			cancel()
			if *provjson != "" {
				if err := writeAtomic(*provjson, mem); err != nil {
					log.Fatalf("provlight-translate: %v", err)
				}
				log.Printf("provlight-translate: wrote %s", *provjson)
			}
			if durable != nil {
				if err := durable.Snapshot(); err != nil {
					log.Printf("provlight-translate: final snapshot: %v", err)
				}
				if err := durable.Close(); err != nil {
					log.Printf("provlight-translate: close store: %v", err)
				}
			}
			return
		}
	}
}

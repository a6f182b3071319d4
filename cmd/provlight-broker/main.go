// Command provlight-broker runs the ProvLight MQTT-SN broker (the Go
// equivalent of Eclipse RSMB) on a UDP address — either a single broker
// or, with -cluster/-cluster-addrs, N nodes acting as one logical
// broker.
//
// Usage:
//
//	provlight-broker -addr 0.0.0.0:1883 [-retry 1s] [-max-retries 5] \
//	    [-send-window 32] [-shards 16] \
//	    [-max-sessions 0] [-connect-rate 0] \
//	    [-cluster 1] [-cluster-addrs host:port,host:port,...] \
//	    [-partitions 64] [-heartbeat 1s] [-suspect-timeout 5s] \
//	    [-stats-listen 127.0.0.1:1884] [-v]
//
// -max-sessions and -connect-rate enable overload admission control:
// past either limit, new CONNECTs are rejected with a congestion CONNACK
// that well-behaved clients back off from (reconnects of existing
// sessions always pass the session cap).
//
// With -cluster N (or an explicit -cluster-addrs list) the process runs
// N broker nodes that partition the topic space by rendezvous hashing
// and forward frames between each other; clients may connect to any
// node. The default -cluster 1 is byte-for-byte the single broker: no
// forwarding, no links, zero extra configuration.
//
// -stats-listen serves Prometheus text exposition on GET /metrics and a
// liveness probe on GET /healthz (-pprof additionally mounts
// net/http/pprof). In cluster mode the broker counters carry a node
// label, and the cluster series give per node its owned partitions, the
// forwarded/migrated/link-lost counters, the membership epoch, and
// per-peer link health.
//
// In cluster mode a failure detector runs between the nodes: every
// -heartbeat each node pings its peers over its forwarding links, and a
// node those links have not heard for -suspect-timeout (confirmed by a
// second peer when one exists) is removed and its partitions reassigned
// to survivors, with the frames retained on its links redelivered to the
// new owners.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/cluster"
	"github.com/provlight/provlight/internal/obs"
)

// serveStats starts the shared stats listener: /metrics the registry,
// /healthz a liveness probe, and -pprof mounts net/http/pprof. Returns a
// shutdown func.
func serveStats(listen string, reg *obs.Registry, pprofOn bool) func() {
	addr, stop, err := obs.Serve(listen, obs.NewMux(obs.MuxOptions{
		Registry: reg,
		PProf:    pprofOn,
	}))
	if err != nil {
		log.Fatalf("provlight-broker: stats listener: %v", err)
	}
	log.Printf("provlight-broker: serving metrics on http://%s/metrics", addr)
	return stop
}

func main() {
	addr := flag.String("addr", "127.0.0.1:1883", "UDP listen address")
	retry := flag.Duration("retry", time.Second, "retransmission interval")
	maxRetries := flag.Int("max-retries", 5, "outbound retransmissions before giving a frame up (group frames re-route instead)")
	sendWindow := flag.Int("send-window", 32, "in-flight QoS 1/2 messages per subscriber session")
	shards := flag.Int("shards", 16, "session-table stripes (each with its own handler goroutine)")
	maxSessions := flag.Int("max-sessions", 0, "admission control: reject new CONNECTs past this many live sessions (0: unlimited)")
	connectRate := flag.Float64("connect-rate", 0, "admission control: sustained CONNECTs accepted per second (0: unlimited)")
	connectBurst := flag.Int("connect-burst", 0, "CONNECT burst allowance for -connect-rate (0: 2x the rate)")
	clusterN := flag.Int("cluster", 1, "run this many broker nodes as one logical broker (1: plain single broker, no clustering)")
	clusterAddrs := flag.String("cluster-addrs", "", "comma-separated UDP listen addresses, one per cluster node (overrides -cluster and -addr)")
	partitions := flag.Int("partitions", 64, "cluster topic hash-space size (fixed for the cluster's lifetime)")
	heartbeat := flag.Duration("heartbeat", time.Second, "cluster link probe (PINGREQ) and failure-detector sweep interval (<0: disable detection)")
	suspectTimeout := flag.Duration("suspect-timeout", 0, "link silence before a cluster node is suspected dead, also the links' keepalive (0: 5x -heartbeat)")
	statsListen := flag.String("stats-listen", "", "serve broker metrics on this HTTP address (GET /metrics, /healthz)")
	enablePProf := flag.Bool("pprof", false, "also mount net/http/pprof on the -stats-listen mux")
	verbose := flag.Bool("v", false, "verbose protocol logging")
	flag.Parse()

	reg := obs.NewRegistry()

	var nodeAddrs []string
	if *clusterAddrs != "" {
		for _, a := range strings.Split(*clusterAddrs, ",") {
			nodeAddrs = append(nodeAddrs, strings.TrimSpace(a))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *clusterN > 1 || len(nodeAddrs) > 0 {
		ccfg := cluster.Config{
			Nodes:               *clusterN,
			Addrs:               nodeAddrs,
			Partitions:          *partitions,
			BrokerRetryInterval: *retry,
			BrokerMaxRetries:    *maxRetries,
			HeartbeatInterval:   *heartbeat,
			SuspectTimeout:      *suspectTimeout,
			Metrics:             reg,
		}
		if *verbose {
			ccfg.Logf = log.Printf
		}
		cl, err := cluster.New(ccfg)
		if err != nil {
			log.Fatalf("provlight-broker: %v", err)
		}
		defer cl.Close()
		ids := cl.NodeIDs()
		for i, a := range cl.Addrs() {
			log.Printf("provlight-broker: node %s serving MQTT-SN on udp://%s", ids[i], a)
		}
		if *statsListen != "" {
			stop := serveStats(*statsListen, reg, *enablePProf)
			defer stop()
		}
		<-sig
		for _, ns := range cl.Stats() {
			log.Printf("provlight-broker: shutting down %s (publishes=%d routed=%d forwarded_out=%d migrated=%d link_lost=%d takeover_redelivered=%d epoch_refused=%d)",
				ns.ID, ns.Broker.PublishesReceived, ns.Broker.MessagesRouted,
				ns.ForwardedOut, ns.Migrated, ns.LinkLost,
				ns.TakeoverRedelivered, ns.EpochRefused)
		}
		// Graceful-ish teardown: nodes leave one by one so in-flight
		// frames migrate to survivors before the last broker closes.
		for len(cl.NodeIDs()) > 1 {
			ids := cl.NodeIDs()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := cl.Leave(ctx, ids[len(ids)-1]); err != nil {
				log.Printf("provlight-broker: leave %s: %v", ids[len(ids)-1], err)
				cancel()
				break
			}
			cancel()
		}
		return
	}

	cfg := broker.Config{
		Addr:          *addr,
		RetryInterval: *retry,
		MaxRetries:    *maxRetries,
		SendWindow:    *sendWindow,
		Shards:        *shards,
		MaxSessions:   *maxSessions,
		ConnectRate:   *connectRate,
		ConnectBurst:  *connectBurst,
		Metrics:       reg,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	b, err := broker.New(cfg)
	if err != nil {
		log.Fatalf("provlight-broker: %v", err)
	}
	defer b.Close()
	broker.CollectStats(reg, "", b.Stats)
	log.Printf("provlight-broker: serving MQTT-SN on udp://%s", b.Addr())

	if *statsListen != "" {
		stop := serveStats(*statsListen, reg, *enablePProf)
		defer stop()
	}

	<-sig
	st := b.Stats()
	log.Printf("provlight-broker: shutting down (publishes=%d routed=%d retransmissions=%d groups=%d rerouted=%d giveups=%d congestion_rejected=%d)",
		st.PublishesReceived, st.MessagesRouted, st.Retransmissions,
		st.Groups, st.GroupRerouted, st.DeliveryGiveUps, st.CongestionRejected)
}

// Command dfanalyzer-server runs the DfAnalyzer-compatible provenance
// storage and query service (HTTP 1.1, in-memory column store), with
// optional crash durability: -data-dir write-ahead logs every mutation,
// snapshots periodically (atomic temp+rename), and recovers on start by
// loading the latest snapshot and replaying the WAL tail.
//
// Replication: -replication-listen makes a durable store the primary of
// a replication group, shipping its WAL to followers; with -min-sync N
// every write holding a durable frame id (POST /frames from a spooling
// pipeline) is answered only once N followers hold it, and with 503 if
// they do not within 10 s. -replicate-from runs this process as a read
// replica of a primary; -promote lifts a (stopped) replica's data
// directory into a new primary under a fresh term. No writer is told the
// term: every write answer names it (X-Provlight-Term), writers stamp the
// highest one they have seen, and devices drop acks from older terms.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/replica"
	"github.com/provlight/provlight/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:22000", "HTTP listen address")
	dataDir := flag.String("data-dir", "", "durability directory (WAL + snapshots); empty = in-memory only")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: each|interval|off")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync period for -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 4096, "snapshot after this many logged operations (negative disables)")
	replListen := flag.String("replication-listen", "", "serve WAL replication to followers on this address (primary role; requires -data-dir)")
	replFrom := flag.String("replicate-from", "", "follow the primary's replication address as a read replica (requires -data-dir)")
	replID := flag.String("replica-id", "", "stable follower identity for resumable replication (default: hostname)")
	minSync := flag.Int("min-sync", 0, "followers that must hold a write with a durable frame id before it is answered (0 = async replication)")
	promote := flag.Bool("promote", false, "promote this data directory to primary under a new term, then serve (run against the most caught-up replica after primary loss)")
	readyMaxLag := flag.Uint64("ready-max-lag", 0, "replica lag (records) beyond which /readyz reports not ready (0: any connected replica is ready)")
	enablePProf := flag.Bool("pprof", false, "mount net/http/pprof on the API mux")
	flag.Parse()

	if (*replListen != "" || *replFrom != "" || *promote) && *dataDir == "" {
		log.Fatalf("dfanalyzer-server: replication requires -data-dir (the WAL is what gets shipped)")
	}
	if *replFrom != "" && *replListen != "" {
		log.Fatalf("dfanalyzer-server: -replicate-from and -replication-listen are mutually exclusive (chained replication is not supported)")
	}
	if *replFrom != "" && *promote {
		log.Fatalf("dfanalyzer-server: -promote conflicts with -replicate-from; restart without -replicate-from to promote")
	}

	var store *dfanalyzer.Store
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("dfanalyzer-server: %v", err)
		}
		start := time.Now()
		store, err = dfanalyzer.OpenStore(dfanalyzer.StoreOptions{
			Dir:           *dataDir,
			Sync:          policy,
			SyncInterval:  *fsyncInterval,
			SnapshotEvery: *snapshotEvery,
		})
		if err != nil {
			log.Fatalf("dfanalyzer-server: open store: %v", err)
		}
		log.Printf("dfanalyzer-server: recovered %s in %v (dataflows: %v)",
			*dataDir, time.Since(start).Round(time.Millisecond), store.Dataflows())
	}

	if *promote {
		term, err := store.Promote()
		if err != nil {
			log.Fatalf("dfanalyzer-server: promote: %v", err)
		}
		log.Printf("dfanalyzer-server: promoted to primary, term %d (writers learn it from this server's answers; devices that saw it drop the deposed primary's acks)", term)
	}

	srv := dfanalyzer.NewServer(store)
	srv.Metrics = obs.NewRegistry()
	srv.EnablePProf = *enablePProf

	var repl *replica.Server
	var follower *replica.Follower
	switch {
	case *replListen != "":
		var err error
		repl, err = replica.NewServer(store, replica.Options{
			MinSync: *minSync,
			OnError: func(err error) { log.Printf("dfanalyzer-server: replication: %v", err) },
		})
		if err != nil {
			log.Fatalf("dfanalyzer-server: replication: %v", err)
		}
		if err := repl.Start(*replListen); err != nil {
			log.Fatalf("dfanalyzer-server: replication listen: %v", err)
		}
		srv.Metrics.Collect(repl.Collect)
		log.Printf("dfanalyzer-server: primary, term %d, shipping WAL on %s (min-sync %d)",
			store.CurrentTerm(), repl.Addr(), *minSync)
	case *replFrom != "":
		id := *replID
		if id == "" {
			id, _ = os.Hostname()
		}
		var err error
		follower, err = replica.StartFollower(store, replica.FollowerOptions{
			Primary: *replFrom,
			ID:      id,
			OnError: func(err error) { log.Printf("dfanalyzer-server: replica: %v", err) },
		})
		if err != nil {
			log.Fatalf("dfanalyzer-server: replica: %v", err)
		}
		srv.Metrics.Collect(follower.Collect)
		srv.Ready = func() error { return follower.Health().Ready(*readyMaxLag) }
		log.Printf("dfanalyzer-server: read replica %q following %s (writes rejected; reads served)", id, *replFrom)
	}

	if err := srv.Start(*addr); err != nil {
		log.Fatalf("dfanalyzer-server: %v", err)
	}
	log.Printf("dfanalyzer-server: serving on http://%s", srv.Addr())
	log.Printf("dfanalyzer-server: endpoints: POST /dataflow, POST /task, POST /tasks (batch), POST /frames (exactly-once), POST /query, GET /dataflow/{tag}, GET /metrics, GET /healthz, GET /readyz")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Stop taking writes before replication stops: a closed replication
	// server removes the store's commit wait, so a later write would be
	// answered unreplicated.
	if err := srv.Close(); err != nil {
		log.Printf("dfanalyzer-server: close API: %v", err)
	}
	log.Printf("dfanalyzer-server: served %d requests", srv.Requests())
	// Stop replication before the store: followers see a clean EOF, and a
	// follower must not apply into a closing store.
	if follower != nil {
		follower.Stop()
		if err := follower.Err(); err != nil {
			log.Printf("dfanalyzer-server: replica stopped with: %v", err)
		}
	}
	if repl != nil {
		if err := repl.Close(); err != nil {
			log.Printf("dfanalyzer-server: close replication: %v", err)
		}
	}
	if *dataDir != "" {
		// A final snapshot makes the next recovery instant; Close syncs
		// the WAL either way.
		if err := srv.Store().Snapshot(); err != nil {
			log.Printf("dfanalyzer-server: final snapshot: %v", err)
		}
		if err := srv.Store().Close(); err != nil {
			log.Printf("dfanalyzer-server: close store: %v", err)
		}
	}
}

// Command provbench regenerates every table and figure of the paper's
// evaluation (Tables II, III, VII, VIII, IX, X; Figure 6a-d) plus the
// §VII-A design-choice ablations, printing the same rows the paper
// reports.
//
// Usage:
//
//	provbench -all
//	provbench -table II            # one table: II, III, VII, VIII, IX, X
//	provbench -figure 6            # Figure 6 (CPU/memory/network/power)
//	provbench -ablations
//	provbench -sessions 1,2,4      # Table IX fan-in on the real pipeline,
//	                               # sweeping consumer-group sessions
//	provbench -brokers 1,2,4       # cluster fan-in: sweep broker node
//	                               # counts over a 25 ms netem link, with a
//	                               # live node leave mid-run (N >= 2)
//	provbench -soak -devices 2000 -duration 2m -churn-mtbf 20s \
//	          -loss 0.25 -quota 1048576   # churn soak with exactly-once check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/cluster"
	"github.com/provlight/provlight/internal/core"
	"github.com/provlight/provlight/internal/experiment"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/soak"
	"github.com/provlight/provlight/internal/spool"
	"github.com/provlight/provlight/internal/stats"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

func main() {
	all := flag.Bool("all", false, "regenerate every table and figure")
	table := flag.String("table", "", "regenerate one table: II, III, VII, VIII, IX, X")
	figure := flag.String("figure", "", "regenerate Figure 6 (accepts 6, 6a..6d)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	sessions := flag.String("sessions", "", "comma-separated consumer-group session counts for the real-pipeline Table IX fan-in sweep (e.g. 1,2,4)")
	brokers := flag.String("brokers", "", "comma-separated broker node counts for the cluster fan-in sweep (e.g. 1,2,4)")
	devices := flag.Int("devices", 16, "parallel devices for the -sessions / -brokers sweeps and -soak")
	tasks := flag.Int("tasks", 50, "tasks per device for the -sessions / -brokers sweeps")
	netemDelay := flag.Duration("netem-delay", 25*time.Millisecond, "one-way translator link delay for the -brokers sweep")
	runSoak := flag.Bool("soak", false, "run the churn soak harness and verify exactly-once delivery")
	soakDuration := flag.Duration("duration", time.Minute, "soak capture-phase length")
	soakSeed := flag.Int64("seed", 1, "soak churn/loss seed (same seed replays the same run)")
	soakMTBF := flag.Duration("churn-mtbf", 15*time.Second, "soak mean device uptime between crashes (0 disables churn)")
	soakDowntime := flag.Duration("churn-downtime", 0, "soak mean device outage length (default mtbf/10)")
	soakLoss := flag.Float64("loss", 0, "soak uplink packet-loss fraction, e.g. 0.25")
	soakQuota := flag.Int64("quota", 0, "soak per-device spool byte quota (0 = unlimited)")
	soakPolicy := flag.String("policy", "block", "soak spool degradation policy: block, drop-new, drop-oldest")
	soakMaxSessions := flag.Int("max-sessions", 0, "soak broker session cap (0 = unlimited)")
	soakConnectRate := flag.Float64("connect-rate", 0, "soak broker CONNECT admissions per second (0 = unlimited)")
	soakDrainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "soak post-run spool drain deadline")
	soakDrainConc := flag.Int("drain-concurrency", 64, "soak devices draining concurrently in the post-run phase")
	soakOut := flag.String("out", "BENCH_soak.json", "soak report output path")
	statsListen := flag.String("stats-listen", "", "serve /metrics and /healthz on this address during -soak (e.g. 127.0.0.1:9300)")
	enablePProf := flag.Bool("pprof", false, "also mount net/http/pprof on the -stats-listen mux")
	flag.Parse()

	switch {
	case *runSoak:
		policy, err := spool.ParseDegradePolicy(*soakPolicy)
		if err != nil {
			log.Fatalf("provbench: %v", err)
		}
		var reg *obs.Registry
		if *statsListen != "" {
			reg = obs.NewRegistry()
			addr, stop, err := obs.Serve(*statsListen, obs.NewMux(obs.MuxOptions{
				Registry: reg,
				PProf:    *enablePProf,
			}))
			if err != nil {
				log.Fatalf("provbench: stats listener: %v", err)
			}
			defer stop()
			log.Printf("provbench: metrics on http://%s/metrics", addr)
		}
		rep, err := soak.Run(context.Background(), soak.Options{
			Devices:          *devices,
			Duration:         *soakDuration,
			Seed:             *soakSeed,
			MTBF:             *soakMTBF,
			Downtime:         *soakDowntime,
			Loss:             *soakLoss,
			Quota:            *soakQuota,
			Policy:           policy,
			MaxSessions:      *soakMaxSessions,
			ConnectRate:      *soakConnectRate,
			DrainTimeout:     *soakDrainTimeout,
			DrainConcurrency: *soakDrainConc,
			Logf:             log.Printf,
			Metrics:          reg,
		})
		if err != nil {
			log.Fatalf("provbench: soak: %v", err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("provbench: soak report: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*soakOut, data, 0o644); err != nil {
			log.Fatalf("provbench: soak report: %v", err)
		}
		fmt.Printf("soak: %d devices, %d churn events, %d frames applied, report %s\n",
			rep.Devices, rep.ChurnEvents, rep.FramesApplied, *soakOut)
		if !rep.ExactlyOnce {
			for _, v := range rep.Violations {
				fmt.Fprintf(os.Stderr, "soak violation: %s\n", v)
			}
			log.Fatalf("provbench: soak: exactly-once contract violated (%d violations)", len(rep.Violations))
		}
		fmt.Println("soak: exactly-once verified")
	case *sessions != "":
		counts, err := parseCounts("-sessions", *sessions)
		if err != nil {
			log.Fatalf("provbench: %v", err)
		}
		fmt.Println(sessionsSweep(counts, *devices, *tasks).String())
	case *brokers != "":
		counts, err := parseCounts("-brokers", *brokers)
		if err != nil {
			log.Fatalf("provbench: %v", err)
		}
		fmt.Println(clusterSweep(counts, *devices, *tasks, *netemDelay).String())
	case *all:
		for _, tr := range experiment.AllTables() {
			fmt.Println(tr.Table.String())
		}
	case *table != "":
		var tr experiment.TableResult
		switch strings.ToUpper(*table) {
		case "II", "2":
			tr = experiment.TableII()
		case "III", "3":
			tr = experiment.TableIII()
		case "VII", "7":
			tr = experiment.TableVII()
		case "VIII", "8":
			tr = experiment.TableVIII()
		case "IX", "9":
			tr = experiment.TableIX()
		case "X", "10":
			tr = experiment.TableX()
		default:
			log.Fatalf("provbench: unknown table %q (want II, III, VII, VIII, IX, X)", *table)
		}
		fmt.Println(tr.Table.String())
	case *figure != "":
		if !strings.HasPrefix(*figure, "6") {
			log.Fatalf("provbench: unknown figure %q (the paper's evaluation figure is 6)", *figure)
		}
		fmt.Println(experiment.Figure6().Table.String())
	case *ablations:
		fmt.Println(experiment.Ablations().Table.String())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// parseCounts parses the comma-separated positive integers given to the
// named flag (-sessions or -brokers).
func parseCounts(name, list string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid %s entry %q (want positive integers)", name, part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// sessionsSweep reproduces the Table IX fan-in scenario on the real
// pipeline — many devices publishing concurrently into one server — while
// sweeping how many shared-subscription consumer-group sessions the
// translator holds. The reported frames/s is the aggregate ingest rate
// (capture start to last record delivered to the target); allocs/record
// is the allocation cost of moving the frames.
func sessionsSweep(counts []int, devices, tasks int) *stats.Table {
	tbl := stats.NewTable(
		fmt.Sprintf("Table IX (real pipeline): %d devices x %d tasks, consumer-group fan-in", devices, tasks),
		"sessions", "elapsed", "frames/s", "records", "allocs/record")
	for _, n := range counts {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		elapsed, frames, records := runFanIn(n, devices, tasks)
		runtime.ReadMemStats(&after)
		tbl.AddRow(fmt.Sprint(n),
			elapsed.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(frames)/elapsed.Seconds()),
			fmt.Sprint(records),
			fmt.Sprintf("%.1f", float64(after.Mallocs-before.Mallocs)/float64(records)))
	}
	return tbl
}

func runFanIn(sessions, devices, tasks int) (time.Duration, uint64, int) {
	mem := provlight.NewMemoryTarget()
	server, err := provlight.StartServer(context.Background(), provlight.ServerConfig{
		Addr:     "127.0.0.1:0",
		Targets:  []provlight.Target{mem},
		Sessions: sessions,
	})
	if err != nil {
		log.Fatalf("provbench: start server: %v", err)
	}
	defer server.Close()

	start := time.Now()
	errs := make(chan error, devices)
	for d := 0; d < devices; d++ {
		go func(d int) {
			client, err := provlight.NewClient(context.Background(), provlight.Config{
				Broker:   server.Addr(),
				ClientID: fmt.Sprintf("bench-dev-%d", d),
			})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			wf := client.NewWorkflow(fmt.Sprintf("wf-%d", d))
			if err := wf.Begin(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < tasks; i++ {
				task := wf.NewTask(fmt.Sprintf("t%04d", i), "bench")
				if err := task.Begin(); err != nil {
					errs <- err
					return
				}
				if err := task.End(provlight.NewData(fmt.Sprintf("out%d", i), provlight.Attrs(map[string]any{"i": int64(i)}))); err != nil {
					errs <- err
					return
				}
			}
			errs <- client.Flush()
		}(d)
	}
	for d := 0; d < devices; d++ {
		if err := <-errs; err != nil {
			log.Fatalf("provbench: device capture: %v", err)
		}
	}
	// Every task contributes a begin and an end record plus the workflow
	// begin; wait for full delivery, then stop the clock.
	want := devices * (1 + 2*tasks)
	deadline := time.Now().Add(2 * time.Minute)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			log.Fatalf("provbench: fan-in stalled at %d/%d records", mem.Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
	server.Drain()
	elapsed := time.Since(start)
	frames := server.Translator.Stats().FramesReceived
	if got := mem.Len(); got != want {
		log.Fatalf("provbench: fan-in delivered %d records, want exactly %d (duplicate delivery)", got, want)
	}
	assertWorkflowOrder(mem.Records(), devices, tasks)
	return elapsed, frames, want
}

// clusterPartitions fixes the hash-space size for the -brokers sweep so
// device placement below and the cluster agree on topic -> partition.
const clusterPartitions = 64

// clusterRun is one -brokers sweep point. The run itself enforces
// exactly-once delivery and per-workflow order (a violation aborts the
// bench), so a returned run is a passing one.
type clusterRun struct {
	elapsed       time.Duration
	recordsPerSec float64
	forwardedOut  uint64
	migrated      uint64
	linkLost      uint64
}

// clusterSweep measures fan-in throughput against a clustered broker
// tier, sweeping the node count. The translator's consumer-group links
// cross a netem-shaped path (one-way delay per write), so each group
// member's QoS 2 handshake is latency-bound and aggregate throughput
// scales with the number of nodes — the scenario the paper's Table IX
// runs against edge uplinks. Every run with N >= 2 also exercises a live
// node leave mid-stream and asserts per-workflow order and exactly-once
// delivery across the migration.
func clusterSweep(counts []int, devices, tasks int, delay time.Duration) *stats.Table {
	tbl := stats.NewTable(
		fmt.Sprintf("Cluster fan-in: %d devices x %d tasks, %s link delay, mid-run leave at N>=2", devices, tasks, delay),
		"nodes", "elapsed", "records/s", "forwarded", "migrated", "link lost")
	for _, n := range counts {
		run := runClusterFanIn(n, devices, tasks, delay)
		tbl.AddRow(fmt.Sprint(n),
			run.elapsed.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%.0f", run.recordsPerSec),
			fmt.Sprint(run.forwardedOut),
			fmt.Sprint(run.migrated),
			fmt.Sprint(run.linkLost))
	}
	return tbl
}

// runClusterFanIn drives the full capture pipeline through an n-node
// cluster: devices spread round-robin over the nodes, a cluster-aware
// translator with a group member on every node behind a delay-shaped
// link, and (for n >= 2) one extra node that joins the initial
// membership and leaves mid-stream, migrating its partitions live. The
// run aborts unless every record arrives exactly once and in per-
// workflow capture order.
//
// Device topics are placed evenly across the steady-state owners (see
// cluster.Owners): the sweep measures broker capacity, and at a handful
// of devices an uneven rendezvous draw would otherwise dominate the
// scaling signal that a paper-scale fleet (64 topics, Fig. 5) averages
// out naturally.
func runClusterFanIn(n, devices, tasks int, delay time.Duration) clusterRun {
	lb := transport.NewLoopback()
	startNodes, leaver := n, ""
	if n > 1 {
		startNodes = n + 1
		leaver = fmt.Sprintf("n%d", n)
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:         startNodes,
		Transport:     lb,
		Partitions:    clusterPartitions,
		RetryInterval: 2 * time.Second,
		DrainTimeout:  30 * time.Second,
	})
	if err != nil {
		log.Fatalf("provbench: cluster.New: %v", err)
	}
	defer cl.Close()

	steady := make([]string, n)
	for i := range steady {
		steady[i] = fmt.Sprintf("n%d", i)
	}
	owners := cluster.Owners(clusterPartitions, steady)
	quota := (devices + n - 1) / n
	load := map[string]int{}
	names := make([]string, 0, devices)
	for k := 0; len(names) < devices; k++ {
		name := fmt.Sprintf("bench-dev-%d", k)
		owner := owners[cluster.PartitionOf(core.DefaultTopic(name), clusterPartitions)]
		if load[owner] >= quota {
			continue
		}
		load[owner]++
		names = append(names, name)
	}

	mem := translate.NewMemoryTarget()
	shaped := netem.WrapTransport(lb, netem.Profile{Delay: delay})
	tr, err := translate.New(context.Background(), translate.Config{
		ClusterAddrs:  cl.Addrs(),
		Transport:     shaped,
		ClientID:      "bench-cluster-xlate",
		RetryInterval: 2 * time.Second,
		MaxRetries:    10,
		Targets:       []translate.Target{mem},
		DisableAcks:   true,
	})
	if err != nil {
		log.Fatalf("provbench: translate.New: %v", err)
	}
	defer tr.Close()

	addrs := cl.Addrs()
	start := time.Now()
	clients := make([]*provlight.Client, devices)
	for d := range clients {
		c, err := provlight.NewClient(context.Background(), provlight.Config{
			Broker:     addrs[d%n], // survivors only: a device on the leaver would need its spool to outlive the broker
			Transport:  lb,
			ClientID:   names[d],
			WindowSize: 16,
		})
		if err != nil {
			log.Fatalf("provbench: device %d: %v", d, err)
		}
		defer c.Close()
		clients[d] = c
	}

	leave := make(chan struct{})
	left := make(chan error, 1)
	if leaver != "" {
		go func() {
			<-leave
			left <- cl.Leave(context.Background(), leaver)
		}()
	}

	errs := make(chan error, devices)
	var leaveOnce sync.Once
	for d := range clients {
		go func(d int) {
			wf := clients[d].NewWorkflow(fmt.Sprintf("wf-%d", d))
			if err := wf.Begin(); err != nil {
				errs <- fmt.Errorf("device %d workflow begin: %w", d, err)
				return
			}
			for i := 0; i < tasks; i++ {
				task := wf.NewTask(fmt.Sprintf("t%04d", i), "bench")
				if err := task.Begin(); err != nil {
					errs <- fmt.Errorf("device %d task %d begin: %w", d, i, err)
					return
				}
				if err := task.End(provlight.NewData(fmt.Sprintf("out-%d-%d", d, i), nil)); err != nil {
					errs <- fmt.Errorf("device %d task %d end: %w", d, i, err)
					return
				}
				if leaver != "" && d == 0 && i == tasks/3 {
					leaveOnce.Do(func() { close(leave) })
				}
			}
			errs <- clients[d].Flush()
		}(d)
	}
	for i := 0; i < devices; i++ {
		if err := <-errs; err != nil {
			log.Fatalf("provbench: %v", err)
		}
	}
	if leaver != "" {
		if err := <-left; err != nil {
			log.Fatalf("provbench: leave %s: %v", leaver, err)
		}
	}

	want := devices * (1 + 2*tasks)
	deadline := time.Now().Add(3 * time.Minute)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			log.Fatalf("provbench: cluster fan-in stalled at %d/%d records", mem.Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
	tr.Drain()
	elapsed := time.Since(start)

	got := mem.Len()
	if got != want {
		log.Fatalf("provbench: cluster fan-in delivered %d records, want exactly %d (duplicate delivery)", got, want)
	}
	assertWorkflowOrder(mem.Records(), devices, tasks)

	run := clusterRun{elapsed: elapsed, recordsPerSec: float64(want) / elapsed.Seconds()}
	for _, ns := range cl.Stats() {
		run.forwardedOut += ns.ForwardedOut
		run.migrated += ns.Migrated
		run.linkLost += ns.LinkLost
	}
	return run
}

// assertWorkflowOrder fatals unless each workflow's records arrived in
// exact capture order: workflow begin, then task begin/end pairs t0000,
// t0001, ... — the guarantee the cluster must preserve across
// forwarding and migration.
func assertWorkflowOrder(records []provdm.Record, devices, tasks int) {
	perWF := map[string][]provdm.Record{}
	for _, r := range records {
		perWF[r.WorkflowID] = append(perWF[r.WorkflowID], r)
	}
	if len(perWF) != devices {
		log.Fatalf("provbench: records span %d workflows, want %d", len(perWF), devices)
	}
	for wf, recs := range perWF {
		if recs[0].Event != provdm.EventWorkflowBegin {
			log.Fatalf("provbench: workflow %s: first record is %v, not workflow begin", wf, recs[0].Event)
		}
		rest := recs[1:]
		if len(rest) != 2*tasks {
			log.Fatalf("provbench: workflow %s: %d task records, want %d", wf, len(rest), 2*tasks)
		}
		for i := 0; i < tasks; i++ {
			wantID := fmt.Sprintf("t%04d", i)
			begin, end := rest[2*i], rest[2*i+1]
			if begin.Event != provdm.EventTaskBegin || begin.TaskID != wantID {
				log.Fatalf("provbench: workflow %s: record %d is %v %s, want begin %s", wf, 2*i, begin.Event, begin.TaskID, wantID)
			}
			if end.Event != provdm.EventTaskEnd || end.TaskID != wantID {
				log.Fatalf("provbench: workflow %s: record %d is %v %s, want end %s", wf, 2*i+1, end.Event, end.TaskID, wantID)
			}
		}
	}
}

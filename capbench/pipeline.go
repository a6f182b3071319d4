package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/cluster"
	"github.com/provlight/provlight/internal/core"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
)

// wanDelay is the one-way delay of the cluster workload's device uplinks.
const wanDelay = 25 * time.Millisecond

// clusterNodes is the broker node count of the cluster workload.
const clusterNodes = 3

// netStats holds the counters of every wrapped socket of a run, by role.
type netStats [numRoles]*sockStats

func newNetStats(tr *tracer) netStats {
	var n netStats
	for r := range n {
		n[r] = &sockStats{role: sockRole(r), tr: tr}
	}
	return n
}

func (n netStats) snapshot() [numRoles]sockSnap {
	var s [numRoles]sockSnap
	for r := range n {
		s[r] = n[r].snapshot()
	}
	return s
}

// deviceID is device d's client id; its records topic is the frame origin.
func deviceID(d int) string { return fmt.Sprintf("capbench-d%d", d) }

func deviceTopics() [numDevices]string {
	var t [numDevices]string
	for d := range t {
		t[d] = core.DefaultTopic(deviceID(d))
	}
	return t
}

// pipeline is one live instance of the system under test: a durable
// store, the broker tier, a translator and the device clients.
type pipeline struct {
	store *dfanalyzer.Store
	br    *broker.Broker   // single-broker workloads
	cl    *cluster.Cluster // cluster workload
	xl    *translate.Translator
	devs  [numDevices]*core.Client
}

// setupTimes are the parts of one set-up, each measured from its start,
// and the GC cycles that ran inside it.
type setupTimes struct {
	recover, tier, translator, connect, total time.Duration
	cpuRecover                                time.Duration // process CPU
	gcRecover, gcTotal                        uint64
}

// startPipeline brings the system up on the store in storeDir, with the
// device spools under spoolDir, and waits until each device's warm-up
// record is applied — the set-up the benchmark times. target is rebound
// to the new store.
func startPipeline(ctx context.Context, s spec, storeDir, spoolDir string, target *appliedTarget, nets netStats, warm *[numDevices]provdm.Record) (*pipeline, setupTimes, error) {
	var st setupTimes
	gc0, cpu0 := gcCycles(), cpuTime()
	start := time.Now()
	p := &pipeline{}
	fail := func(err error) (*pipeline, setupTimes, error) {
		p.close(ctx)
		return nil, st, err
	}
	store, err := dfanalyzer.OpenStore(dfanalyzer.StoreOptions{Dir: storeDir})
	if err != nil {
		return fail(fmt.Errorf("open store: %w", err))
	}
	st.recover = time.Since(start)
	st.gcRecover, st.cpuRecover = gcCycles()-gc0, cpuTime()-cpu0
	p.store = store
	target.inner = translate.NewStoreTarget(store, dataflow)
	target.store = store

	// The edge workloads run over loopback UDP; the cluster workload runs
	// over the in-process loopback transport, as the cluster fan-in bench
	// does, so that its cost is the cluster's and not the host kernel's.
	var substrate transport.Transport = transport.UDP{}
	if s.cluster {
		substrate = transport.NewLoopback()
	}
	xlCfg := translate.Config{
		ClientID:  "capbench-xl",
		Transport: &countingTransport{inner: substrate, dial: nets[roleTranslator]},
		Targets:   []translate.Target{target},
	}
	var devAddr [numDevices]string
	if s.cluster {
		cl, err := cluster.New(cluster.Config{
			Nodes:     clusterNodes,
			Transport: &countingTransport{inner: substrate, listen: nets[roleBroker], dial: nets[roleLink]},
		})
		if err != nil {
			return fail(fmt.Errorf("start cluster: %w", err))
		}
		p.cl = cl
		xlCfg.ClusterAddrs = cl.Addrs()
		devAddr = forwardingNodes(cl)
	} else {
		br, err := broker.New(broker.Config{
			Addr:      "127.0.0.1:0",
			Transport: &countingTransport{inner: substrate, listen: nets[roleBroker]},
		})
		if err != nil {
			return fail(fmt.Errorf("start broker: %w", err))
		}
		p.br = br
		xlCfg.Broker = br.Addr()
		for d := range devAddr {
			devAddr[d] = br.Addr()
		}
	}
	st.tier = time.Since(start)
	if p.xl, err = translate.New(ctx, xlCfg); err != nil {
		return fail(fmt.Errorf("start translator: %w", err))
	}
	st.translator = time.Since(start)

	var devNet transport.Transport = &countingTransport{inner: substrate, dial: nets[roleDevice]}
	if s.cluster {
		// The shaper sits above the counter, so a datagram is counted when
		// it leaves the link, not when the client hands it over.
		devNet = netem.WrapTransport(devNet, netem.Profile{Delay: wanDelay})
	}
	for d := range p.devs {
		cfg := core.Config{
			Broker:    devAddr[d],
			ClientID:  deviceID(d),
			Transport: devNet,
		}
		if s.spooled {
			cfg.SpoolDir = filepath.Join(spoolDir, fmt.Sprintf("spool-d%d", d))
		}
		if p.devs[d], err = core.NewClient(ctx, cfg); err != nil {
			return fail(fmt.Errorf("connect device %d: %w", d, err))
		}
	}
	st.connect = time.Since(start)
	var want [numDevices]int64
	for d, c := range p.devs {
		want[d] = target.applied[d].Load() + 1
		if err := c.Capture(&warm[d]); err != nil {
			return fail(fmt.Errorf("device %d warm-up capture: %w", d, err))
		}
	}
	for d := range p.devs {
		if err := waitApplied(ctx, target, d, want[d]); err != nil {
			return fail(fmt.Errorf("device %d warm-up: %w", d, err))
		}
	}
	st.total = time.Since(start)
	st.gcTotal = gcCycles() - gc0
	return p, st, nil
}

// forwardingNodes picks for each device a node that does not own its
// topic, so every frame crosses exactly one forward hop.
func forwardingNodes(cl *cluster.Cluster) [numDevices]string {
	topo := cl.Topology()
	ids, addrs := cl.NodeIDs(), cl.Addrs()
	var out [numDevices]string
	for d := range out {
		owner := topo.Owners[cluster.PartitionOf(core.DefaultTopic(deviceID(d)), topo.Partitions)]
		for k := range ids {
			if i := (d + k) % len(ids); ids[i] != owner {
				out[d] = addrs[i]
				break
			}
		}
	}
	return out
}

// waitApplied blocks until device d has want records applied, woken by
// the target's push signal.
func waitApplied(ctx context.Context, t *appliedTarget, d int, want int64) error {
	for t.applied[d].Load() < want {
		select {
		case <-t.signal:
		case <-ctx.Done():
			return fmt.Errorf("%d of %d records applied: %w", t.applied[d].Load(), want, ctx.Err())
		}
	}
	return nil
}

// close tears the pipeline down: devices drain, then the translator, the
// broker tier and the store close.
func (p *pipeline) close(ctx context.Context) error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for d, c := range p.devs {
		if c != nil {
			if err := c.Shutdown(ctx); err != nil {
				keep(fmt.Errorf("device %d shutdown: %w", d, err))
			}
		}
	}
	if p.xl != nil {
		keep(p.xl.Shutdown(ctx))
	}
	if p.br != nil {
		p.br.Close()
	}
	if p.cl != nil {
		p.cl.Close()
	}
	if p.store != nil {
		keep(p.store.Close())
	}
	return first
}

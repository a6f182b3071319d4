package e2clab

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/core"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/workload"
)

// ProvenanceManager bundles the provenance services the extended E2Clab
// deploys (paper Fig. 4): the ProvLight server (MQTT-SN broker +
// translators) and the DfAnalyzer storage/query backend.
type ProvenanceManager struct {
	Server     *core.Server
	DfAnalyzer *dfanalyzer.Server
	Memory     *translate.MemoryTarget
}

// Close stops all provenance services.
func (pm *ProvenanceManager) Close() {
	if pm.Server != nil {
		pm.Server.Close()
	}
	if pm.DfAnalyzer != nil {
		pm.DfAnalyzer.Close()
	}
}

// Deployment is a running in-process experiment.
type Deployment struct {
	Config     *Config
	Provenance *ProvenanceManager
	Clients    []*core.Client

	closed bool
}

// Deploy realizes the configuration: it starts the Provenance Manager (if
// requested) and one ProvLight client per edge service instance, shaping
// each client socket with the configured network rule.
func Deploy(cfg *Config) (*Deployment, error) {
	d := &Deployment{Config: cfg}
	if !cfg.Provenance {
		return nil, fmt.Errorf("e2clab: this deployment requires the ProvenanceManager service")
	}
	pm := &ProvenanceManager{Memory: translate.NewMemoryTarget()}
	pm.DfAnalyzer = dfanalyzer.NewServer(nil)
	if err := pm.DfAnalyzer.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	dfaTarget := translate.NewDfAnalyzerTarget(
		dfanalyzer.NewClient("http://"+pm.DfAnalyzer.Addr()), "e2clab")
	srv, err := core.StartServer(context.Background(), core.ServerConfig{
		Addr:          "127.0.0.1:0",
		Targets:       []translate.Target{pm.Memory, dfaTarget},
		RetryInterval: 200 * time.Millisecond,
	})
	if err != nil {
		pm.DfAnalyzer.Close()
		return nil, err
	}
	pm.Server = srv
	d.Provenance = pm

	// One ProvLight client per edge service instance.
	for _, layer := range cfg.Layers {
		if layer.Name == "cloud" {
			continue
		}
		rule, hasRule := cfg.RuleFor(layer.Name, "cloud")
		for _, svc := range layer.Services {
			// Client i dials the shaped link once, with seed 1+i.
			var link transport.Transport
			if hasRule {
				link = netem.WrapTransport(transport.UDP{}, netem.Profile{
					BandwidthBps: rule.BandwidthBps,
					Delay:        rule.Delay,
					LossRate:     rule.LossRate,
					Seed:         1,
				})
			}
			for i := 0; i < svc.Quantity; i++ {
				clientID := fmt.Sprintf("%s-%s-%d", layer.Name, svc.Name, i)
				client, err := core.NewClient(context.Background(), core.Config{
					Broker:        srv.Addr(),
					ClientID:      clientID,
					GroupSize:     svc.GroupSize,
					RetryInterval: 200 * time.Millisecond,
					MaxRetries:    15,
					Transport:     link,
				})
				if err != nil {
					d.Close()
					return nil, fmt.Errorf("e2clab: start client %s: %w", clientID, err)
				}
				d.Clients = append(d.Clients, client)
			}
		}
	}
	if len(d.Clients) == 0 {
		d.Close()
		return nil, fmt.Errorf("e2clab: no edge client services defined")
	}
	return d, nil
}

// Report summarizes a workflow run.
type Report struct {
	Devices         int
	RecordsCaptured int
	RecordsStored   int           // in the DfAnalyzer backend (task count)
	Elapsed         time.Duration // wall time of the slowest device
}

// RunWorkflow executes the configured synthetic workflow on every edge
// client in parallel (the Workflow Manager's role), waits for the
// provenance pipeline to drain, and reports.
func (d *Deployment) RunWorkflow() (*Report, error) {
	spec := d.Config.Workflow
	wcfg := workload.Config{
		ChainedTransformations: spec.Transformations,
		Tasks:                  spec.Tasks,
		AttributesPerTask:      spec.Attributes,
		TaskDuration:           spec.TaskDuration,
	}
	var wg sync.WaitGroup
	errs := make([]error, len(d.Clients))
	times := make([]time.Duration, len(d.Clients))
	start := time.Now()
	for i, client := range d.Clients {
		wg.Add(1)
		go func(i int, client *core.Client) {
			defer wg.Done()
			wf := fmt.Sprintf("wf-%d", i)
			times[i], errs[i] = wcfg.Run(client, wf, spec.TimeScale)
		}(i, client)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Wait for the capture pipeline (client queues, broker, translators).
	for _, c := range d.Clients {
		if err := c.Flush(); err != nil {
			return nil, err
		}
	}
	expected := len(d.Clients) * wcfg.Events()
	deadline := time.Now().Add(30 * time.Second)
	for d.Provenance.Memory.Len() < expected {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("e2clab: pipeline drained %d/%d records",
				d.Provenance.Memory.Len(), expected)
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.Provenance.Server.Drain()

	rep := &Report{
		Devices:         len(d.Clients),
		RecordsCaptured: d.Provenance.Memory.Len(),
		Elapsed:         time.Since(start),
	}
	for i := range d.Clients {
		rep.RecordsStored += d.Provenance.DfAnalyzer.Store().TaskCount("e2clab")
		_ = times[i]
		break
	}
	return rep, nil
}

// Close tears the deployment down.
func (d *Deployment) Close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, c := range d.Clients {
		c.Close()
	}
	if d.Provenance != nil {
		d.Provenance.Close()
	}
}

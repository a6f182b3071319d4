// Package soak is the churn soak harness: a fleet of hundreds to
// thousands of simulated edge devices with heterogeneous capture rates
// runs against a real broker + translator + store pipeline while the
// harness injects the failure modes the edge actually serves up —
// device crash/rejoin churn, network loss, disk quotas, and broker
// admission pressure — and then proves the exactly-once contract held:
// every frame a device's spool admitted is applied at the store exactly
// once, shed frames excepted and accounted.
package soak

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/chaos"
	"github.com/provlight/provlight/internal/core"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/simulation"
	"github.com/provlight/provlight/internal/source"
	"github.com/provlight/provlight/internal/spool"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/workload"
)

// Options configures one soak run.
type Options struct {
	// Devices is the fleet size.
	Devices int
	// Duration is the capture phase length; draining and verification
	// run after it.
	Duration time.Duration
	// Seed makes churn timelines and loss patterns reproducible.
	Seed int64

	// MTBF is each device's mean uptime between crashes (0 disables
	// churn). Downtime is the mean outage length (default MTBF/10).
	MTBF, Downtime time.Duration

	// Loss is the packet loss fraction on every device's uplink during
	// the capture phase (healed for the drain phase).
	Loss float64

	// Quota caps each device's spool in bytes (0 = unlimited); Policy is
	// the degradation policy applied when it fills.
	Quota  int64
	Policy spool.DegradePolicy

	// MaxSessions / ConnectRate / ConnectBurst enable broker admission
	// control (see broker.Config). Translator sessions count too.
	MaxSessions  int
	ConnectRate  float64
	ConnectBurst int

	// Sessions is the translator consumer-group width. Default 4.
	Sessions int

	// SpoolRoot holds the per-device spool directories (default: a
	// temp directory, removed after the run).
	SpoolRoot string

	// DrainTimeout bounds the post-run drain of every device's spool.
	// Default 2 minutes.
	DrainTimeout time.Duration

	// DrainConcurrency is how many devices drain their spools at once in
	// the post-run drain phase (bounds publisher concurrency so the
	// pipeline never collapses under a full-fleet republish storm).
	// Default 64.
	DrainConcurrency int

	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	// Metrics, when set, exports the whole pipeline into the registry:
	// broker and translator counters, pipeline stage latencies, and every
	// device client's capture/spool families (labeled client=<id>).
	// Scrape-time cost only; the capture hot path is unaffected.
	Metrics *obs.Registry
}

// Report is the machine-readable outcome of a soak run (BENCH_soak.json).
type Report struct {
	Devices     int     `json:"devices"`
	Duration    string  `json:"duration"`
	Elapsed     string  `json:"elapsed"`
	Seed        int64   `json:"seed"`
	LossPct     float64 `json:"loss_pct"`
	QuotaBytes  int64   `json:"quota_bytes"`
	Policy      string  `json:"policy"`
	ChurnEvents int     `json:"churn_events"`
	Crashes     int     `json:"crashes"`
	Rejoins     int     `json:"rejoins"`

	RecordsCaptured    uint64 `json:"records_captured"`
	FramesAdmitted     uint64 `json:"frames_admitted"`
	FramesShedNew      uint64 `json:"frames_shed_new"`
	FramesShedOldest   uint64 `json:"frames_shed_oldest"`
	FramesApplied      uint64 `json:"frames_applied"`
	RowsQueried        uint64 `json:"rows_queried"`
	SpoolBlocked       uint64 `json:"spool_blocked_appends"`
	ReconnectAttempts  uint64 `json:"reconnect_attempts"`
	CongestionRejected uint64 `json:"congestion_rejected"`

	ExactlyOnce bool     `json:"exactly_once"`
	Violations  []string `json:"violations,omitempty"`
}

// device is one simulated edge device across its crash/rejoin
// incarnations.
type device struct {
	id    string
	dir   string
	rate  workload.Rate
	topic string

	mu     sync.Mutex
	client *core.Client
	down   bool
	// Accumulated counters from dead incarnations (each incarnation's
	// StatsSnapshot restarts from zero for in-memory counters).
	shedNew    uint64 // DropNew sheds (frames never admitted to the WAL)
	shedWAL    uint64 // DropOldestUnacked sheds (admitted, then dropped)
	blocked    uint64
	reconnects uint64

	captured atomic.Uint64 // records successfully captured (all incarnations)
	ticks    atomic.Uint64 // capture loop iterations, drives task ids
}

// accumulateLocked folds the live client's counters into the device's
// cross-incarnation totals. Callers hold d.mu and are about to drop the
// client (crash or final shutdown).
func (d *device) accumulateLocked() {
	if d.client == nil {
		return
	}
	st := d.client.StatsSnapshot()
	d.shedNew += st.FramesShed
	d.shedWAL += st.SpoolShedQoS0 + st.SpoolShedHigher
	d.blocked += st.SpoolBlockedAppends
	d.reconnects += st.ReconnectAttempts
}

// Run executes the soak and verifies exactly-once delivery at the store.
// The returned Report is non-nil whenever the pipeline itself came up;
// ExactlyOnce=false with Violations describes contract breaches.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Devices <= 0 {
		return nil, fmt.Errorf("soak: Devices must be positive")
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("soak: Duration must be positive")
	}
	if opts.Sessions <= 0 {
		opts.Sessions = 4
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 2 * time.Minute
	}
	if opts.DrainConcurrency <= 0 {
		opts.DrainConcurrency = 64
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	root := opts.SpoolRoot
	if root == "" {
		tmp, err := os.MkdirTemp("", "provlight-soak-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	// Pipeline: broker (+ admission control) -> translator consumer
	// group -> deduplicating store. The store's (origin, seq) ledger is
	// the exactly-once ground truth the verification phase reads back.
	store := dfanalyzer.NewStore()
	target := translate.NewStoreTarget(store, soakDataflow)
	srv, err := core.StartServer(ctx, core.ServerConfig{
		Addr:         "127.0.0.1:0",
		Targets:      []translate.Target{target},
		Sessions:     opts.Sessions,
		MaxSessions:  opts.MaxSessions,
		ConnectRate:  opts.ConnectRate,
		ConnectBurst: opts.ConnectBurst,
		Metrics:      opts.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: start pipeline: %w", err)
	}
	defer srv.Close()

	// One shared fault plane: every device's uplink goes through it, so
	// SetLoss is the netem profile for the whole fleet.
	fault := chaos.NewFault(opts.Seed)
	if opts.Loss > 0 {
		fault.SetLoss(opts.Loss)
	}
	uplink := fault.Transport(transport.UDP{})

	devices := make([]*device, opts.Devices)
	start := func(d *device) error {
		client, err := core.NewClient(context.Background(), core.Config{
			Broker:      srv.Addr(),
			ClientID:    d.id,
			SpoolDir:    d.dir,
			Transport:   uplink,
			SpoolQuota:  opts.Quota,
			SpoolPolicy: opts.Policy,
			// Overload-tolerant pacing: at soak scale the broker runs far
			// past saturation during the capture phase, and aggressive
			// retransmit/reconnect timers turn transient drops into a
			// congestion-collapse spiral (every timeout re-offers a whole
			// publish window). Small windows and patient retries keep the
			// broker responsive; the spool absorbs the backlog.
			AckWindow:         16,
			RetryInterval:     time.Second,
			MaxRetries:        6,
			RedeliverAfter:    10 * time.Second,
			ReconnectMinDelay: 250 * time.Millisecond,
			ReconnectMaxDelay: 8 * time.Second,
			Metrics:           opts.Metrics,
		})
		if err != nil {
			return err
		}
		d.client = client
		return nil
	}
	for i := range devices {
		d := &device{
			id:   fmt.Sprintf("soak-%04d", i),
			dir:  filepath.Join(root, fmt.Sprintf("dev-%04d", i)),
			rate: workload.RateFor(i),
		}
		d.topic = core.DefaultTopic(d.id)
		if err := start(d); err != nil {
			return nil, fmt.Errorf("soak: device %s: %w", d.id, err)
		}
		devices[i] = d
	}
	logf("soak: %d devices up, capture phase %v (loss %.0f%%, quota %d, policy %s)",
		opts.Devices, opts.Duration, opts.Loss*100, opts.Quota, opts.Policy)

	// Capture phase: every device emits task begin/end records at its
	// class rate; crashes mid-capture surface as client errors that the
	// next incarnation's spool recovery absorbs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, d := range devices {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			ticker := time.NewTicker(d.rate.Interval)
			defer ticker.Stop()
			payload := make([]byte, d.rate.Attributes)
			for i := range payload {
				payload[i] = byte(1)
			}
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				d.mu.Lock()
				client, down := d.client, d.down
				if down || client == nil {
					d.mu.Unlock()
					continue
				}
				n := d.ticks.Add(1)
				rec := taskRecord(d.id, n, payload)
				// Capture under the device lock: a crash event racing the
				// append would otherwise see a half-closed spool.
				err := client.Capture(rec)
				d.mu.Unlock()
				if err == nil {
					d.captured.Add(1)
				}
			}
		}(d)
	}

	// Churn executors: replay the precomputed deterministic timeline, one
	// goroutine per churned device so a slow crash or rejoin (spool
	// recovery is real disk work) never delays the rest of the fleet.
	plan := simulation.ChurnPlan(opts.Seed, opts.Devices, opts.Duration, opts.MTBF, opts.Downtime)
	perDevice := make(map[int][]simulation.ChurnEvent)
	for _, ev := range plan {
		perDevice[ev.Device] = append(perDevice[ev.Device], ev)
	}
	var crashes, rejoins atomic.Int64
	var churnWG sync.WaitGroup
	t0 := time.Now()
	for idx, evs := range perDevice {
		churnWG.Add(1)
		go func(d *device, evs []simulation.ChurnEvent) {
			defer churnWG.Done()
			for _, ev := range evs {
				select {
				case <-stop:
					return
				case <-time.After(time.Until(t0.Add(ev.At))):
				}
				d.mu.Lock()
				switch ev.Kind {
				case simulation.Crash:
					if !d.down && d.client != nil {
						d.accumulateLocked()
						d.client.Abort() // SIGKILL semantics: spool survives on disk
						d.client = nil
						d.down = true
						crashes.Add(1)
					}
				case simulation.Rejoin:
					if d.down {
						if err := start(d); err != nil {
							logf("soak: rejoin %s: %v", d.id, err)
						} else {
							d.down = false
							rejoins.Add(1)
						}
					}
				}
				d.mu.Unlock()
			}
		}(devices[idx], evs)
	}

	runStart := time.Now()
	select {
	case <-time.After(opts.Duration):
	case <-ctx.Done():
	}
	close(stop)
	wg.Wait()
	churnWG.Wait()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Drain phase: heal the network, then crash the whole fleet (spools
	// are durable; this also stops the capture-phase publish storm) and
	// drain it back in bounded waves — DrainConcurrency devices at a
	// time, each revived on its spool and shut down cleanly. Shutdown
	// returns only once the spool is empty and every frame end-to-end
	// acknowledged, so a wave bounds the number of concurrent publishers
	// and the pipeline drains at its own pace instead of collapsing
	// under 2000 simultaneous republish windows.
	fault.SetLoss(0)
	fault.SetDelay(0)
	// Abort in parallel: a device mid-reconnect holds Abort until its
	// in-flight dial attempt fails (the dial is not interruptible), so a
	// sequential pass over thousands of devices would serialize those
	// multi-second waits into a dead phase lasting many minutes.
	var abortWG sync.WaitGroup
	for _, d := range devices {
		abortWG.Add(1)
		go func(d *device) {
			defer abortWG.Done()
			d.mu.Lock()
			if d.client != nil {
				d.accumulateLocked()
				d.client.Abort()
				d.client = nil
			}
			d.down = true
			d.mu.Unlock()
		}(d)
	}
	abortWG.Wait()
	logf("soak: capture done (%d crashes, %d rejoins), draining %d spools (%d at a time)",
		crashes.Load(), rejoins.Load(), opts.Devices, opts.DrainConcurrency)
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	report := &Report{
		Devices:     opts.Devices,
		Duration:    opts.Duration.String(),
		Seed:        opts.Seed,
		LossPct:     opts.Loss * 100,
		QuotaBytes:  opts.Quota,
		Policy:      opts.Policy.String(),
		ChurnEvents: len(plan),
		Crashes:     int(crashes.Load()),
		Rejoins:     int(rejoins.Load()),
		ExactlyOnce: true,
	}
	var drained atomic.Int64
	progressStop := make(chan struct{})
	go func() {
		tick := time.NewTicker(15 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-progressStop:
				return
			case <-tick.C:
				st := srv.Translator.Stats()
				bst := srv.Broker.Stats()
				logf("soak: drain progress %d/%d devices (translator frames=%d redials=%d; broker sessions=%d recv=%d routed=%d dup=%d rexmit=%d giveup=%d reroute=%d)",
					drained.Load(), opts.Devices, st.FramesReceived, st.SessionRedials,
					bst.Sessions, bst.PublishesReceived, bst.MessagesRouted,
					bst.DuplicatesDropped, bst.Retransmissions, bst.DeliveryGiveUps, bst.GroupRerouted)
			}
		}
	}()
	sem := make(chan struct{}, opts.DrainConcurrency)
	drainErrs := make(chan error, opts.Devices)
	for _, d := range devices {
		go func(d *device) {
			sem <- struct{}{}
			defer func() { <-sem }()
			defer drained.Add(1)
			d.mu.Lock()
			if err := start(d); err != nil {
				d.mu.Unlock()
				drainErrs <- fmt.Errorf("%s: revive for drain: %w", d.id, err)
				return
			}
			d.down = false
			client := d.client
			d.mu.Unlock()
			err := client.Shutdown(drainCtx)
			d.mu.Lock()
			d.accumulateLocked()
			d.mu.Unlock()
			if err != nil {
				err = fmt.Errorf("%s: drain: %w", d.id, err)
			}
			drainErrs <- err
		}(d)
	}
	for range devices {
		if err := <-drainErrs; err != nil {
			report.ExactlyOnce = false
			report.Violations = append(report.Violations, err.Error())
		}
	}
	close(progressStop)
	srv.Drain()

	// Verification: per device, the store must hold exactly the frames
	// the spool admitted minus the frames the policy shed — no loss, no
	// double-apply. The dedup ledger counts distinct frames only, so the
	// rows a user reads back through Select are checked as well: every
	// frame is one record with one data row, and a frame applied twice
	// is two rows.
	rows, err := rowsByWorkflow(ctx, store)
	if err != nil {
		report.ExactlyOnce = false
		report.Violations = append(report.Violations, fmt.Sprintf("read rows back: %v", err))
	}
	for _, d := range devices {
		d.mu.Lock()
		var floor, pending uint64
		if d.client != nil {
			st := d.client.StatsSnapshot()
			floor, pending = st.SpoolAcked, st.SpoolPending
		}
		report.RecordsCaptured += d.captured.Load()
		shedWAL := d.shedWAL
		report.FramesShedNew += d.shedNew
		report.FramesShedOldest += shedWAL
		report.SpoolBlocked += d.blocked
		report.ReconnectAttempts += d.reconnects
		d.mu.Unlock()

		if pending != 0 {
			report.ExactlyOnce = false
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: %d frames still pending after drain", d.id, pending))
			continue
		}
		applied := store.AppliedFrameCount(d.topic)
		want := floor - shedWAL
		report.FramesAdmitted += floor
		report.FramesApplied += applied
		if applied != want {
			report.ExactlyOnce = false
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: store applied %d frames, want %d (floor %d - shed %d)",
					d.id, applied, want, floor, shedWAL))
		}
		got := rows[workflowID(d.id)]
		report.RowsQueried += got
		if rows != nil && got != want {
			report.ExactlyOnce = false
			report.Violations = append(report.Violations,
				fmt.Sprintf("%s: Select returns %d rows, want %d (floor %d - shed %d)",
					d.id, got, want, floor, shedWAL))
		}
	}
	report.CongestionRejected = srv.Broker.Stats().CongestionRejected
	report.Elapsed = time.Since(runStart).Truncate(time.Millisecond).String()
	logf("soak: verified %d devices: applied=%d rows=%d admitted=%d shed=%d+%d exactly_once=%v",
		opts.Devices, report.FramesApplied, report.RowsQueried, report.FramesAdmitted,
		report.FramesShedNew, report.FramesShedOldest, report.ExactlyOnce)
	return report, nil
}

// soakDataflow is the store dataflow the soak's records land in; its
// transformation names the two sets, soakDataflow+"_input" and "_output".
const soakDataflow = "soak"

// workflowID is the workflow a device's records belong to.
func workflowID(device string) string { return device + "-wf" }

// rowsByWorkflow counts the rows Select returns from the soak's two sets,
// per workflow.
func rowsByWorkflow(ctx context.Context, store *dfanalyzer.Store) (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, set := range []string{soakDataflow + "_input", soakDataflow + "_output"} {
		rows, err := store.Select(ctx, source.Query{Dataflow: soakDataflow, Set: set, Project: []string{"task_id"}})
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			id, _ := row["task_id"].(string) // "<workflow>/<task>"
			wf, _, _ := strings.Cut(id, "/")
			out[wf]++
		}
	}
	return out, nil
}

// taskRecord builds the n-th capture record for a device: alternating
// task begin/end events with a payload of the device's attribute class.
func taskRecord(id string, n uint64, payload []byte) *provdm.Record {
	task := (n - 1) / 2
	rec := &provdm.Record{
		WorkflowID:     workflowID(id),
		TaskID:         fmt.Sprintf("t%d", task),
		Transformation: soakDataflow,
		Time:           time.Now(),
	}
	if n%2 == 1 {
		rec.Event = provdm.EventTaskBegin
		rec.Status = provdm.StatusRunning
		rec.Data = []provdm.DataRef{{
			ID: fmt.Sprintf("in_%d", task), WorkflowID: rec.WorkflowID,
			Attributes: []provdm.Attribute{{Name: "in", Value: payload}},
		}}
	} else {
		rec.Event = provdm.EventTaskEnd
		rec.Status = provdm.StatusFinished
		rec.Data = []provdm.DataRef{{
			ID: fmt.Sprintf("out_%d", task), WorkflowID: rec.WorkflowID,
			Attributes: []provdm.Attribute{{Name: "out", Value: payload}},
		}}
	}
	return rec
}

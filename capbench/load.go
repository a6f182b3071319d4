package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/source"
	"github.com/provlight/provlight/internal/translate"
)

// runState is a live run: its inputs, the pipeline, and how far the
// generators got through the inputs.
type runState struct {
	s         spec
	seed      int64
	seedTasks int    // tasks in the store before set-up
	dir       string // the run's scratch directory
	in        *inputs
	p         *pipeline
	target    *appliedTarget
	nets      netStats
	tr        *tracer

	next   [numDevices]int   // next record index per device
	expect [numDevices]int64 // records each device should have applied
	failed [numDevices][]int // indices of records whose Capture failed
	nextQ  int
}

// qSample is one timed Source call.
type qSample struct {
	kind int
	ns   int64
}

// layerCounters are the program's own counters, read at phase
// boundaries.
type layerCounters struct {
	queueFull, redeliveries, reconnects, retransmits uint64
	broker                                           broker.Stats
	forwarded                                        uint64
	xl                                               translate.Stats
	walSeq                                           uint64
	frames, applyNS, snapshots                       int64
}

// phase is what one load phase measured.
type phase struct {
	dur     time.Duration
	applied int64 // records applied inside the window
	// drained records were captured in the window and applied by the
	// time the last of them was, elapsed after the window opened.
	drained     int64
	elapsed     time.Duration
	captured    int64
	captureErrs int64
	captureErr  error   // the first failed capture's error
	captureNS   []int64 // time blocked in each Capture call
	lateNS      []int64 // open loop: how late each capture started
	queries     []qSample
	queryErrs   int64
	queryErr    error // the first failed query's error
	cpu         time.Duration
	mallocs     uint64
	net         [numRoles]sockSnap
	steal       float64
	deliverNS   []int64 // capture stamp to applied, per frame
	before      layerCounters
	after       layerCounters
}

func (st *runState) appliedTotal() int64 {
	var n int64
	for d := range st.target.applied {
		n += st.target.applied[d].Load()
	}
	return n
}

// sampleNow reads the counters at a phase boundary; it allocates nothing.
func (st *runState) sampleNow(stat *statReader, allocs *allocCounter) sample {
	return sample{at: nanotime(), cpu: cpuTime(), applied: st.appliedTotal(), mallocs: allocs.read(), ticks: stat.read()}
}

func (st *runState) counters() layerCounters {
	var c layerCounters
	for _, dev := range st.p.devs {
		cs := dev.StatsSnapshot()
		c.queueFull += cs.QueueFull
		c.redeliveries += cs.SpoolRedeliveries
		c.reconnects += cs.SpoolReconnects
		c.retransmits += dev.MQTTStats().Retransmissions
	}
	if st.p.br != nil {
		c.broker = st.p.br.Stats()
	}
	if st.p.cl != nil {
		for _, ns := range st.p.cl.Stats() {
			addBrokerStats(&c.broker, ns.Broker)
			c.forwarded += ns.ForwardedOut
		}
	}
	c.xl = st.p.xl.Stats()
	_, c.walSeq = st.p.store.WALSeqs()
	c.frames = st.target.frames.Load()
	c.applyNS = st.target.applyNS.Load()
	c.snapshots = st.target.snapshots.Load()
	return c
}

func addBrokerStats(sum *broker.Stats, s broker.Stats) {
	sum.Retransmissions += s.Retransmissions
	sum.DeliveryGiveUps += s.DeliveryGiveUps
	sum.DuplicatesDropped += s.DuplicatesDropped
}

// runPhase drives the workload for dur: captures from the calling
// goroutine, queries from one more. All sample buffers are sized before
// the window opens, so the generator allocates nothing inside it.
func (st *runState) runPhase(ctx context.Context, dur time.Duration) (*phase, error) {
	maxCaptures := 0
	for d := range st.in.recs {
		maxCaptures += len(st.in.recs[d]) - st.next[d]
	}
	maxQueries := int(st.s.queryRate*dur.Seconds()) + 2
	ph := &phase{
		dur:       dur,
		captureNS: make([]int64, 0, maxCaptures),
		lateNS:    make([]int64, 0, maxCaptures),
		queries:   make([]qSample, 0, maxQueries),
	}
	// Collect set-up's and the last phase's garbage so every phase starts
	// from the same heap.
	runtime.GC()
	stat := openStat()
	defer stat.close()
	allocs := newAllocCounter()
	ph.before = st.counters()
	net0 := st.nets.snapshot()
	first := st.sampleNow(stat, allocs)
	t0 := first.at
	t1 := t0 + int64(dur)
	st.target.resetWindow(t0, t1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.queryLoop(ctx, t0, t1, ph)
	}()
	if st.s.rate > 0 {
		st.openLoop(t0, t1, ph)
	} else {
		st.closedLoop(t1, ph)
	}
	if wait := t1 - nanotime(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
	last := st.sampleNow(stat, allocs)
	net1 := st.nets.snapshot()
	wg.Wait()
	ph.cpu = last.cpu - first.cpu
	ph.applied = last.applied - first.applied
	ph.mallocs = last.mallocs - first.mallocs
	ph.steal = stealShare(first.ticks, last.ticks)
	for r := range net1 {
		ph.net[r] = net1[r].sub(net0[r])
	}
	if err := st.drain(ctx); err != nil {
		return ph, err
	}
	ph.drained = st.appliedTotal() - first.applied
	ph.elapsed = time.Duration(st.target.lastApply.Load() - t0)
	ph.after = st.counters()
	ph.deliverNS = append([]int64(nil), st.target.latencies()...)
	if ph.applied == 0 || ph.elapsed <= 0 {
		return ph, fmt.Errorf("no record was applied in the %s load phase", dur)
	}
	return ph, nil
}

// capture sends device d's next record. It reports false when the
// device's inputs are used up.
func (st *runState) capture(d int, ph *phase) bool {
	i := st.next[d]
	if i >= len(st.in.recs[d]) {
		return false
	}
	st.next[d]++
	start := nanotime()
	err := st.p.devs[d].Capture(&st.in.recs[d][i])
	ph.captureNS = append(ph.captureNS, nanotime()-start)
	ph.captured++
	if err != nil {
		ph.captureErrs++
		if ph.captureErr == nil {
			ph.captureErr = err
		}
		st.failed[d] = append(st.failed[d], i)
		return true
	}
	st.expect[d]++
	return true
}

// tick is the open loops' schedule step: every tick the generator sends
// the records due in it. A sub-millisecond per-record schedule would be
// set by how late the host wakes a sleeping thread, which on a shared VM
// varies from run to run and with it how the pipeline batches; a 10 ms
// step is far above that jitter.
const tick = 10 * time.Millisecond

// openLoop captures on a fixed schedule whatever the pipeline does,
// alternating devices; it records how late each tick started.
func (st *runState) openLoop(t0, t1 int64, ph *phase) {
	perTick := int(st.s.rate*tick.Seconds() + 0.5)
	k := 0
	for due := t0; due < t1; due += int64(tick) {
		now := nanotime()
		if now < due {
			time.Sleep(time.Duration(due - now))
			now = nanotime()
		}
		ph.lateNS = append(ph.lateNS, now-due)
		for i := 0; i < perTick; i, k = i+1, k+1 {
			if !st.capture(k%numDevices, ph) {
				return
			}
		}
	}
}

// closedLoop keeps st.s.outstanding records in flight per device and
// waits on the target's applied signal for room.
func (st *runState) closedLoop(t1 int64, ph *phase) {
	timer := time.NewTimer(time.Duration(t1 - nanotime()))
	defer timer.Stop()
	for nanotime() < t1 {
		progressed := false
		for d := 0; d < numDevices; d++ {
			for st.expect[d]-st.target.applied[d].Load() < int64(st.s.outstanding) {
				if !st.capture(d, ph) {
					return
				}
				progressed = true
			}
		}
		if !progressed {
			select {
			case <-st.target.signal:
			case <-timer.C:
				return
			}
		}
	}
}

// queryLoop issues the read mix on a fixed schedule against the store
// being written.
func (st *runState) queryLoop(ctx context.Context, t0, t1 int64, ph *phase) {
	if st.s.queryRate <= 0 {
		return
	}
	interval := float64(time.Second) / st.s.queryRate
	for k := 0; ; k++ {
		due := t0 + int64(float64(k)*interval)
		if due >= t1 {
			return
		}
		if now := nanotime(); now < due {
			time.Sleep(time.Duration(due - now))
		}
		q := &st.in.queries[st.nextQ%len(st.in.queries)]
		st.nextQ++
		start := nanotime()
		err := runQuery(ctx, st.p.store, q)
		ph.queries = append(ph.queries, qSample{kind: q.kind, ns: nanotime() - start})
		if err != nil {
			ph.queryErrs++
			if ph.queryErr == nil {
				ph.queryErr = err
			}
		}
	}
}

// runQuery makes one Source call and checks its answer.
func runQuery(ctx context.Context, src source.Source, q *query) error {
	switch q.kind {
	case qTopK:
		rows, err := src.Select(ctx, q.sel)
		if err != nil {
			return err
		}
		if len(rows) != q.sel.Limit {
			return fmt.Errorf("top-k returned %d rows, want %d", len(rows), q.sel.Limit)
		}
		prev := 2.0
		for _, r := range rows {
			acc, ok := r["accuracy"].(float64)
			if !ok || acc > prev {
				return fmt.Errorf("top-k rows not in descending accuracy order")
			}
			prev = acc
		}
	case qScan:
		rows, err := src.Select(ctx, q.sel)
		if err != nil {
			return err
		}
		lo, hi := q.sel.Where[0].Value.(float64), q.sel.Where[1].Value.(float64)
		for _, r := range rows {
			if acc, ok := r["accuracy"].(float64); !ok || acc < lo || acc >= hi {
				return fmt.Errorf("range scan returned accuracy %v outside [%v, %v)", r["accuracy"], lo, hi)
			}
		}
	case qTask:
		info, err := src.Task(ctx, dataflow, q.task)
		if err != nil {
			return err
		}
		if info.ID != q.task {
			return fmt.Errorf("task lookup of %q returned %q", q.task, info.ID)
		}
	case qWorkflows:
		wfs, err := src.Workflows(ctx)
		if err != nil {
			return err
		}
		if len(wfs) != 1 || wfs[0] != dataflow {
			return fmt.Errorf("workflows = %v, want [%s]", wfs, dataflow)
		}
	}
	return nil
}

// drain waits, on the applied signal, until every successful capture so
// far is applied.
func (st *runState) drain(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for d := range st.expect {
		if err := waitApplied(ctx, st.target, d, st.expect[d]); err != nil {
			return fmt.Errorf("drain device %d: %w", d, err)
		}
	}
	return nil
}

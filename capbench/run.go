package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSetups is how many set-ups a run times, half before and half
// after the load phase; setup_s is their median.
const defaultSetups = 32

// options are one run's parameters; setups and seedTasks are set smaller
// only by the smoke tests.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	workDir   string
	commit    string // revision the binary was built from, for the run context
	setups    int
	seedTasks int
}

// closedLoopCeiling bounds the records/s a closed-loop workload can reach;
// it sizes the pre-built inputs.
const closedLoopCeiling = 1500

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report records the metrics of a result and prints each as it is added.
type report struct {
	out     io.Writer
	metrics map[string]metricValue
}

func (r *report) add(name, unit string, v float64) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "  %-34s %14.4f %s\n", name, v, unit)
}

// notApplicable records a metric of a layer the workload does not
// exercise. The result carries every declared metric, so it is recorded
// as 0, and printed as n/a with the reason.
func (r *report) notApplicable(name, unit, why string) {
	r.metrics[name] = metricValue{Value: 0, Unit: unit}
	fmt.Fprintf(r.out, "  %-34s %14s %s (%s)\n", name, "n/a", unit, why)
}

func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	s, ok := specByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		// The untraced and the traced phase share the run's seconds, so a
		// traced run takes as long as an untraced one.
		dur /= 2
	}
	rate := s.rate
	if rate == 0 {
		rate = closedLoopCeiling
	}
	perDevice := int(rate*o.seconds/numDevices*1.1) + 2*tasksPerWorkflow + 2
	nQueries := int(s.queryRate*o.seconds) + 16
	in := buildInputs(s, o.seed, perDevice, o.setups+1, nQueries, o.seedTasks)

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, s.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The timed set-ups recover setupStore; the load runs on loadStore, a
	// copy of it, so that the set-ups after the load recover the same
	// state as those before it.
	setupStore, loadStore := filepath.Join(dir, "store"), filepath.Join(dir, "load-store")
	if err := seedStore(s, o.seed, setupStore, o.seedTasks); err != nil {
		return nil, err
	}

	tr := newTracer()
	st := &runState{s: s, seed: o.seed, seedTasks: o.seedTasks, dir: dir, in: in, tr: tr, nets: newNetStats(tr)}
	st.target = newAppliedTarget(deviceTopics(), perDevice+o.setups+2, perDevice*numDevices, tr)
	before := o.setups / 2
	setups, err := st.timeSetups(ctx, setupStore, 0, before, out)
	if err != nil {
		return nil, err
	}
	if err := copyDir(setupStore, loadStore); err != nil {
		return nil, fmt.Errorf("copy store: %w", err)
	}
	sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	st.p, _, err = startPipeline(sctx, s, loadStore, dir, st.target, st.nets, &in.warm[before])
	cancel()
	if err != nil {
		return nil, fmt.Errorf("load set-up: %w", err)
	}
	defer func() {
		if st.p != nil {
			cctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			_ = st.p.close(cctx)
		}
	}()
	for d := range st.expect {
		st.expect[d] = st.target.applied[d].Load()
	}

	fmt.Fprintf(out, "capbench %s seed=%d seconds=%g trace=%v\n", s.name, o.seed, o.seconds, o.trace)
	ph, err := st.runPhase(ctx, dur)
	if err != nil {
		return nil, err
	}
	var traced *phase
	if o.trace {
		// Snapshots taken in the untraced phase are not the traced
		// phase's; the target counts advances only while tracing.
		st.target.lastSnap = st.p.store.SnapshotSeq()
		tr.enabled.Store(true)
		traced, err = st.runPhase(ctx, dur)
		tr.enabled.Store(false)
		if err != nil {
			return nil, err
		}
	}
	v, err := checkStore(ctx, st)
	if err != nil {
		return nil, err
	}
	var snap time.Duration
	if o.trace {
		if snap, err = snapshotLadder(st.p.store); err != nil {
			return nil, err
		}
	}
	cctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	// The results are in; a slow teardown changes none of them.
	_ = st.p.close(cctx)
	cancel()
	st.p = nil
	after, err := st.timeSetups(ctx, setupStore, before+1, o.setups-before, out)
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)

	res := &result{Metrics: map[string]metricValue{}}
	rep := &report{out: out, metrics: res.Metrics}
	for _, p := range []*phase{ph, traced} {
		if p != nil {
			res.Attempted += p.captured + int64(len(p.queries))
			res.Failed += p.captureErrs + p.queryErrs
		}
	}
	res.Failed += int64(v.violations()) + st.target.errs.Load()
	res.Correct = res.Failed == 0
	printContext(out, o, ph)
	printVerdict(out, v, res, st, ph, traced)
	if !o.trace {
		endToEnd(rep, ph, setups, res)
		return res, nil
	}
	if err := perLayer(rep, st, ph, traced, setups, snap, filepath.Join(o.workDir, "traces")); err != nil {
		return nil, err
	}
	return res, nil
}

// timeSetups times n set-ups on the store in storeDir, each from a
// collected heap, and closes each pipeline again. Set-up k uses warm-up
// record set first+k.
func (st *runState) timeSetups(ctx context.Context, storeDir string, first, n int, out io.Writer) ([]setupTimes, error) {
	var times []setupTimes
	for k := first; k < first+n; k++ {
		// Every set-up starts from the same heap: the previous pipeline is
		// collected first, so that setup_s does not depend on how much
		// garbage the last one left behind.
		st.target.inner, st.target.store = nil, nil
		runtime.GC()
		sctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		p, t, err := startPipeline(sctx, st.s, storeDir, st.dir, st.target, st.nets, &st.in.warm[k])
		if err == nil {
			err = p.close(sctx)
		}
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		times = append(times, t)
		fmt.Fprintf(out, "setup %d: recover %.1f ms (cpu %.1f ms, gc %d), tier %.1f, translator %.1f, connect %.1f, total %.1f ms (gc %d)\n",
			k, millis(t.recover), millis(t.cpuRecover), t.gcRecover, millis(t.tier), millis(t.translator), millis(t.connect), millis(t.total), t.gcTotal)
	}
	return times, nil
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func printContext(out io.Writer, o options, ph *phase) {
	ctx := runContext(o.seed, o.commit)
	ctx["cpu_steal_share"] = ph.steal
	if late := sorted(ph.lateNS); len(late) > 0 {
		ctx["generator_late_p50_us"] = float64(pct(late, 0.5)) / 1e3
		ctx["generator_late_p99_us"] = float64(pct(late, 0.99)) / 1e3
		ctx["generator_late_max_us"] = float64(late[len(late)-1]) / 1e3
	}
	b, _ := json.Marshal(ctx)
	fmt.Fprintf(out, "context %s\n", b)
}

// printVerdict prints the oracle's finding. A failing verdict, with what
// failed first, also goes to standard error.
func printVerdict(out io.Writer, v *verdict, res *result, st *runState, phases ...*phase) {
	if !res.Correct {
		out = io.MultiWriter(out, os.Stderr)
	}
	fmt.Fprintf(out, "oracle rows=%d expected=%d lost=%d applied_twice=%d duplicate_ids=%d reordered=%d redelivered_frames=%d store_errors=%d\n",
		v.rows, v.expectedRows, v.lost, v.extra, v.dupIDs, v.reordered, st.target.redelivers.Load(), st.target.errs.Load())
	for _, p := range v.problems {
		fmt.Fprintf(out, "oracle violation: %s\n", p)
	}
	if msg := st.target.firstErr.Load(); msg != nil {
		fmt.Fprintf(out, "store errors: %d, first: %s\n", st.target.errs.Load(), *msg)
	}
	for _, p := range phases {
		if p == nil {
			continue
		}
		if p.captureErr != nil {
			fmt.Fprintf(out, "failed captures: %d, first: %v\n", p.captureErrs, p.captureErr)
		}
		if p.queryErr != nil {
			fmt.Fprintf(out, "failed queries: %d, first: %v\n", p.queryErrs, p.queryErr)
		}
	}
	verdict := "PASS"
	if !res.Correct {
		verdict = "FAIL"
	}
	fmt.Fprintf(out, "oracle %s: exactly-once, per-workflow order, %d failures in %d attempts (error_rate %.6f)\n",
		verdict, res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
}

// endToEnd prints and records the gated metrics of the untraced phase,
// then the reported ones: the tails, and the delivery latency median,
// which moves with the machine's CPU steal far more than with the program
// (see README.md).
func endToEnd(rep *report, ph *phase, setups []setupTimes, res *result) {
	n := float64(ph.applied)
	capture := sorted(ph.captureNS)
	deliver := sorted(ph.deliverNS)
	queries := sortedQueries(ph.queries, -1)
	dev := ph.net[roleDevice]
	fmt.Fprintln(rep.out, "end-to-end (gated):")
	rep.add("setup_s", "s", medianSetup(setups, func(t setupTimes) time.Duration { return t.total }).Seconds())
	rep.add("records_per_s", "1/s", float64(ph.drained)/ph.elapsed.Seconds())
	rep.add("capture_p50_us", "us", float64(pct(capture, 0.5))/1e3)
	rep.add("cpu_us_per_record", "us", float64(ph.cpu.Microseconds())/n)
	rep.add("allocs_per_record", "count", float64(ph.mallocs)/n)
	rep.add("wire_bytes_per_record", "B", float64(dev.outBytes+dev.inBytes)/n)
	rep.add("query_p50_ms", "ms", float64(pct(queries, 0.5))/1e6)
	fmt.Fprintln(rep.out, "end-to-end (reported, not gated):")
	line := func(name, unit string, v float64, samples int) {
		fmt.Fprintf(rep.out, "  %-34s %14.4f %s (n=%d)\n", name, v, unit, samples)
	}
	line("capture_p99_us", "us", float64(pct(capture, 0.99))/1e3, len(capture))
	line("capture_mean_us", "us", float64(sum(capture))/1e3/float64(max(len(capture), 1)), len(capture))
	line("deliver_p50_ms", "ms", float64(pct(deliver, 0.5))/1e6, len(deliver))
	line("deliver_p99_ms", "ms", float64(pct(deliver, 0.99))/1e6, len(deliver))
	line("query_p99_ms", "ms", float64(pct(queries, 0.99))/1e6, len(queries))
	fmt.Fprintf(rep.out, "  %-34s %14.6f ratio (n=%d)\n", "error_rate", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
}

func sum(xs []int64) int64 {
	var n int64
	for _, x := range xs {
		n += x
	}
	return n
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

func sorted(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedQueries returns the sorted latencies of one query kind, or of
// all with kind < 0.
func sortedQueries(qs []qSample, kind int) []int64 {
	var ns []int64
	for _, q := range qs {
		if kind < 0 || q.kind == kind {
			ns = append(ns, q.ns)
		}
	}
	return sorted(ns)
}

// pct is the nearest-rank percentile of sorted samples, 0 when empty.
func pct(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func medianSetup(ts []setupTimes, f func(setupTimes) time.Duration) time.Duration {
	ds := make([]int64, len(ts))
	for i, t := range ts {
		ds[i] = int64(f(t))
	}
	return time.Duration(pct(sorted(ds), 0.5))
}

// writeTrace writes one JSON line per traced frame, times relative to
// its capture stamp in µs (-1: not observed).
func writeTrace(path string, frames []frameTimes) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	rel := func(t, base int64) float64 {
		if t == 0 {
			return -1
		}
		return float64(t-base) / 1e3
	}
	for _, fr := range frames {
		fmt.Fprintf(w, `{"id":%d,"device_write_us":%.1f,"link_write_us":%.1f,"translator_read_us":%.1f,"apply_start_us":%.1f,"apply_end_us":%.1f,"batch":%d}`+"\n",
			fr.capture, rel(fr.devWrite, fr.capture), rel(fr.linkWrite, fr.capture), rel(fr.xlRead, fr.capture),
			rel(fr.applyStart, fr.capture), rel(fr.applyEnd, fr.capture), fr.batch)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Package obs is ProvLight's unified observability layer: a
// zero-dependency metrics registry with Prometheus text exposition
// (version 0.0.4), designed so that every recording operation on a hot
// path costs at most a couple of uncontended atomic adds.
//
// Counters and gauges have one way in: a component keeps its counts in
// its own Stats()/StatsSnapshot() struct and registers a Collect callback
// that, at scrape time only, reads the snapshot and emits samples through
// an Emitter — including dynamically labeled ones (per cluster peer, per
// replication follower). The hot path pays nothing for these.
//
// Distributions are the one registered instrument: a Histogram has fixed
// upper-bound buckets with atomic per-bucket counts plus an atomically
// accumulated sum, safe to Observe concurrently. Its labeled variant,
// HistogramVec, resolves children through a copy-on-write map snapshot,
// so the steady-state With lookup is lock-free; callers on hot paths
// should still cache the child pointer.
//
// Histogram constructors are get-or-create: asking for an existing name
// with a matching label set returns the registered instrument, so several
// components can share one family (e.g. the per-stage frame latency
// histogram). A nil *Registry is valid everywhere and yields nil
// instruments whose methods no-op, so metrics wiring is always optional.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Frame-pipeline stage names recorded into StageLatencyName by the
// capture client, broker, cluster, and translator. Each stage observes
// the latency from the frame's capture timestamp (the trace header wire
// frames carry, see wire.FrameCaptureNS) to the moment the frame passed
// that stage, so the exposed histograms are cumulative end-to-end
// distributions: durable_apply is the full capture->apply provenance
// latency, and the differences between stages isolate each hop. A
// memory-mode client packs the frames already queued into one PUBLISH:
// capture_publish observes each frame, the later stages observe the pack
// once, at its oldest frame's stamp.
const (
	// StageCapturePublish: frame handed to the client's transport (spool
	// dwell time included for store-and-forward clients).
	StageCapturePublish = "capture_publish"
	// StageBrokerRoute: frame released and routed by a broker.
	StageBrokerRoute = "broker_route"
	// StageForwardHop: frame arrived at its topic's owning cluster node
	// after crossing an inter-node forwarding link.
	StageForwardHop = "forward_hop"
	// StageTranslate: frame decoded by a translator.
	StageTranslate = "translate"
	// StageDurableApply: frame's batch delivered to every translator
	// target (with a durable target, the point it became ack-able).
	StageDurableApply = "durable_apply"
)

// StageLatencyName is the shared per-stage frame latency family.
const StageLatencyName = "provlight_stage_latency_seconds"

// StageLatency returns the shared per-stage latency histogram family.
func StageLatency(r *Registry) *HistogramVec {
	return r.HistogramVec(StageLatencyName,
		"End-to-end frame latency from capture to each pipeline stage.",
		LatencyBuckets, "stage")
}

// ObserveSince records the elapsed time since the capture timestamp
// captureNS (Unix nanoseconds) into h. Zero captureNS (untraced frame)
// and nil histograms are ignored; a small negative elapsed (clock skew
// between hosts) is clamped to zero so it lands in the first bucket
// rather than vanishing.
func ObserveSince(h *Histogram, captureNS int64) {
	if h == nil || captureNS == 0 {
		return
	}
	d := time.Now().UnixNano() - captureNS
	if d < 0 {
		d = 0
	}
	h.Observe(float64(d) / 1e9)
}

// LatencyBuckets spans 100µs to 30s exponentially: wide enough for a
// same-host hop and a congested WAN retry alike.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// BatchBuckets suits small-integer distributions (micro-batch sizes,
// window occupancies).
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Histogram counts observations into fixed upper-bound buckets. Observe
// is two uncontended atomic adds plus a CAS for the sum; buckets are
// shared by every child of a family.
type Histogram struct {
	upper   []float64 // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records v. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (<= ~20) and the common
	// latencies hit the first few bounds, beating a binary search's
	// branch misses in practice.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// family is one registered histogram name: its metadata and children
// (one per label-value combination; the empty key for an unlabeled
// histogram).
type family struct {
	name    string
	help    string
	labels  []string
	buckets []float64

	mu       sync.Mutex                            // guards child creation
	children atomic.Pointer[map[string]*Histogram] // copy-on-write snapshot
}

// child returns the histogram for key, creating it on first use. The
// read path is a single atomic pointer load plus a map lookup.
func (f *family) child(key string) *Histogram {
	if m := f.children.Load(); m != nil {
		if c, ok := (*m)[key]; ok {
			return c
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.children.Load()
	if old != nil {
		if c, ok := (*old)[key]; ok {
			return c
		}
	}
	next := make(map[string]*Histogram, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	c := newHistogram(f.buckets)
	next[key] = c
	f.children.Store(&next)
	return c
}

// labelSep joins label values into child keys; 0xff cannot appear in
// UTF-8 text, so joined keys never collide.
const labelSep = "\xff"

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(lvs ...string) *Histogram {
	if v == nil {
		return nil
	}
	v.f.checkArity(len(lvs))
	return v.f.child(strings.Join(lvs, labelSep))
}

func (f *family) checkArity(n int) {
	if n != len(f.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", f.name, len(f.labels), n))
	}
}

// Registry holds metric families and scrape-time collectors. The zero
// value is not usable; create with NewRegistry. All methods are safe for
// concurrent use, and all are safe on a nil receiver (returning nil
// instruments), so components can thread an optional registry without
// branching.
type Registry struct {
	mu         sync.Mutex
	fams       map[string]*family
	collectors []func(*Emitter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register resolves name to its histogram family, creating it on first
// use and panicking on a label-arity conflict — two components
// disagreeing about a metric's shape is a programming error worth failing
// loudly on.
func (r *Registry) register(name, help string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %s re-registered with %d labels (was %d)",
				name, len(labels), len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, labels: labels, buckets: buckets}
	r.fams[name] = f
	return f
}

// Histogram returns the (unlabeled) histogram registered under name.
// buckets are the sorted upper bounds (+Inf implied); they are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, buckets, nil).child("")
}

// HistogramVec returns the labeled histogram family registered under name.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.register(name, help, buckets, labels)}
}

// Collect registers a scrape-time callback: fn runs on every exposition
// and emits samples computed on the spot — typically from a component's
// existing Stats() snapshot. Collectors must not block; they may emit
// any label set, which is how per-peer and per-follower series with
// dynamic membership are exposed.
func (r *Registry) Collect(fn func(e *Emitter)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// sample is one exposition line before formatting.
type sample struct {
	suffix string // "", "_bucket", "_sum", "_count"
	labels string // pre-rendered {...} content, "" for none
	value  float64
	uvalue uint64
	isUint bool
}

// outFam is a family's scrape-time view.
type outFam struct {
	help    string
	kind    kind
	samples []sample
}

// Emitter receives samples from Collect callbacks.
type Emitter struct {
	fams  map[string]*outFam
	order *[]string
}

func (e *Emitter) fam(name, help string, k kind) *outFam {
	f, ok := e.fams[name]
	if !ok {
		f = &outFam{help: help, kind: k}
		e.fams[name] = f
		*e.order = append(*e.order, name)
	}
	return f
}

// Counter emits a counter sample. kv are label name/value pairs.
func (e *Emitter) Counter(name, help string, v float64, kv ...string) {
	f := e.fam(name, help, kindCounter)
	f.samples = append(f.samples, sample{labels: renderPairs(kv), value: v})
}

// Gauge emits a gauge sample. kv are label name/value pairs.
func (e *Emitter) Gauge(name, help string, v float64, kv ...string) {
	f := e.fam(name, help, kindGauge)
	f.samples = append(f.samples, sample{labels: renderPairs(kv), value: v})
}

// renderPairs formats alternating name/value pairs as exposition labels,
// skipping pairs with empty values.
func renderPairs(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label name/value list")
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// renderInstrumentLabels formats a family's declared labels against a
// child key.
func renderInstrumentLabels(names []string, key string) string {
	if len(names) == 0 {
		return ""
	}
	values := strings.Split(key, labelSep)
	var b strings.Builder
	for i, n := range names {
		v := ""
		if i < len(values) {
			v = values[i]
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteTo writes the registry's current state in Prometheus text
// exposition format 0.0.4: histograms first, then everything the
// Collect callbacks emit, families sorted by name, HELP/TYPE once per
// family.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	fams := make(map[string]*family, len(r.fams))
	for k, v := range r.fams {
		fams[k] = v
	}
	collectors := append([]func(*Emitter){}, r.collectors...)
	r.mu.Unlock()

	var order []string
	out := map[string]*outFam{}
	e := &Emitter{fams: out, order: &order}

	for name, f := range fams {
		of := &outFam{help: f.help, kind: kindHistogram}
		out[name] = of
		order = append(order, name)
		m := f.children.Load()
		if m == nil {
			continue
		}
		keys := make([]string, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			lbl := renderInstrumentLabels(f.labels, key)
			c := (*m)[key]
			cum := uint64(0)
			for i := range c.counts {
				cum += c.counts[i].Load()
				le := "+Inf"
				if i < len(c.upper) {
					le = formatValue(c.upper[i])
				}
				bl := lbl
				if bl != "" {
					bl += ","
				}
				bl += `le="` + le + `"`
				of.samples = append(of.samples, sample{suffix: "_bucket", labels: bl, uvalue: cum, isUint: true})
			}
			of.samples = append(of.samples, sample{suffix: "_sum", labels: lbl, value: c.Sum()})
			of.samples = append(of.samples, sample{suffix: "_count", labels: lbl, uvalue: c.Count(), isUint: true})
		}
	}
	for _, fn := range collectors {
		fn(e)
	}

	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		f := out[name]
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(name)
			b.WriteByte(' ')
			b.WriteString(strings.ReplaceAll(f.help, "\n", " "))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.samples {
			b.WriteString(name)
			b.WriteString(s.suffix)
			if s.labels != "" {
				b.WriteByte('{')
				b.WriteString(s.labels)
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			if s.isUint {
				b.WriteString(strconv.FormatUint(s.uvalue, 10))
			} else {
				b.WriteString(formatValue(s.value))
			}
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

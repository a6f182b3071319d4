package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramConcurrency hammers the histograms from many goroutines
// (run under -race in CI) while a collector emits a counter the same
// goroutines bump, and checks the totals add up.
func TestHistogramConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "lat", LatencyBuckets)
	hv := r.HistogramVec("test_labeled_seconds", "labeled lat", BatchBuckets, "worker")
	var ops atomic.Uint64
	r.Collect(func(e *Emitter) { e.Counter("test_ops_total", "ops", float64(ops.Load())) })

	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lh := hv.With(string(rune('a' + id%4)))
			for i := 0; i < perG; i++ {
				ops.Add(1)
				h.Observe(float64(i%100) / 1000)
				lh.Observe(float64(i % 300))
			}
		}(g)
	}
	// Concurrent scrapes while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if _, err := r.WriteTo(&sb); err != nil {
				t.Errorf("WriteTo: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	var labeledTotal uint64
	for _, w := range []string{"a", "b", "c", "d"} {
		labeledTotal += hv.With(w).Count()
	}
	if labeledTotal != goroutines*perG {
		t.Fatalf("labeled histogram counts sum = %d, want %d", labeledTotal, goroutines*perG)
	}
	// Bucket counts must sum to the observation count.
	var bucketSum uint64
	for i := range h.counts {
		bucketSum += h.counts[i].Load()
	}
	if bucketSum != h.Count() {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count())
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("test_ops_total"); !ok || v != goroutines*perG {
		t.Fatalf("collected test_ops_total = %v (present %v), want %d", v, ok, goroutines*perG)
	}
}

// TestGetOrCreateSharing verifies two registrations of the same family
// return the same histogram, and that a label-arity conflict panics.
func TestGetOrCreateSharing(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("shared_seconds", "x", LatencyBuckets)
	b := r.Histogram("shared_seconds", "x", LatencyBuckets)
	if a != b {
		t.Fatal("same name returned distinct histograms")
	}
	a.Observe(1)
	if b.Count() != 1 {
		t.Fatal("shared histogram not shared")
	}
	h1 := StageLatency(r).With(StageTranslate)
	h2 := StageLatency(r).With(StageTranslate)
	if h1 != h2 {
		t.Fatal("same labels returned distinct histograms")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("label-arity conflict did not panic")
		}
	}()
	r.HistogramVec("shared_seconds", "x", LatencyBuckets, "stage")
}

// TestNilRegistrySafe exercises every instrument path on a nil registry.
func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Histogram("c", "", LatencyBuckets).Observe(1)
	r.HistogramVec("f", "", BatchBuckets, "l").With("x").Observe(2)
	r.Collect(func(e *Emitter) {})
	ObserveSince(nil, time.Now().UnixNano())
	var sb strings.Builder
	if n, err := r.WriteTo(&sb); n != 0 || err != nil {
		t.Fatalf("nil WriteTo = (%d, %v)", n, err)
	}
}

// TestExpositionGolden pins the text format and round-trips it through
// the minimal parser.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("app_wait_seconds", "Wait time.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Collect(func(e *Emitter) {
		e.Counter("app_requests_total", "Requests served.", 42)
		e.Gauge("app_depth", "Queue depth.", 3.5)
		e.Counter("app_errs_total", "Errors.", 7, "kind", `we"ird\x`+"\n")
		e.Gauge("app_lag", "Per-peer lag.", 12, "peer", "n1")
		e.Gauge("app_lag", "Per-peer lag.", 0.25, "peer", "n2")
		e.Counter("app_scrapes_total", "", 1)
	})

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	want := `# HELP app_depth Queue depth.
# TYPE app_depth gauge
app_depth 3.5
# HELP app_errs_total Errors.
# TYPE app_errs_total counter
app_errs_total{kind="we\"ird\\x\n"} 7
# HELP app_lag Per-peer lag.
# TYPE app_lag gauge
app_lag{peer="n1"} 12
app_lag{peer="n2"} 0.25
# HELP app_requests_total Requests served.
# TYPE app_requests_total counter
app_requests_total 42
# TYPE app_scrapes_total counter
app_scrapes_total 1
# HELP app_wait_seconds Wait time.
# TYPE app_wait_seconds histogram
app_wait_seconds_bucket{le="0.1"} 1
app_wait_seconds_bucket{le="1"} 2
app_wait_seconds_bucket{le="+Inf"} 3
app_wait_seconds_sum 5.55
app_wait_seconds_count 3
`
	if text != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", text, want)
	}

	sc, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition does not parse: %v", err)
	}
	if v, ok := sc.Value("app_requests_total"); !ok || v != 42 {
		t.Fatalf("parsed app_requests_total = %v, %v", v, ok)
	}
	if v, ok := sc.Value("app_errs_total", "kind", `we"ird\x`+"\n"); !ok || v != 7 {
		t.Fatalf("escaped label did not round-trip: %v %v", v, ok)
	}
	if v, ok := sc.Value("app_wait_seconds_bucket", "le", "+Inf"); !ok || v != 3 {
		t.Fatalf("+Inf bucket = %v, %v", v, ok)
	}
	if v, ok := sc.Value("app_lag", "peer", "n2"); !ok || v != 0.25 {
		t.Fatalf("collector sample = %v, %v", v, ok)
	}
	if sc.Types["app_wait_seconds"] != "histogram" {
		t.Fatalf("TYPE app_wait_seconds = %q", sc.Types["app_wait_seconds"])
	}
	fams := sc.Families()
	wantFams := []string{"app_depth", "app_errs_total", "app_lag", "app_requests_total", "app_scrapes_total", "app_wait_seconds"}
	if len(fams) != len(wantFams) {
		t.Fatalf("families = %v, want %v", fams, wantFams)
	}
	for i := range fams {
		if fams[i] != wantFams[i] {
			t.Fatalf("families = %v, want %v", fams, wantFams)
		}
	}
}

// TestParseTextRejectsGarbage ensures the parser actually validates.
func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"name{unclosed=\"x\n",
		"name 12 this is not a timestamp extra\n",
		"3name 1\n",
		"# TYPE x flurble\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
}

// TestObserveSince clamps negative skew and skips untraced frames.
func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("skew_seconds", "", LatencyBuckets)
	ObserveSince(h, 0)
	if h.Count() != 0 {
		t.Fatal("untraced frame observed")
	}
	ObserveSince(h, time.Now().Add(time.Hour).UnixNano()) // future capture: skewed clock
	if h.Count() != 1 {
		t.Fatal("skewed observation dropped")
	}
	if s := h.Sum(); s != 0 {
		t.Fatalf("skewed observation not clamped: sum=%v", s)
	}
	ObserveSince(h, time.Now().Add(-10*time.Millisecond).UnixNano())
	if h.Count() != 2 || h.Sum() <= 0 {
		t.Fatalf("normal observation missing: count=%d sum=%v", h.Count(), h.Sum())
	}
}

// TestMuxEndpoints exercises the shared HTTP wiring: /metrics,
// /healthz, /readyz, and the opt-in pprof mount.
func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(e *Emitter) { e.Counter("mux_hits_total", "", 9) })
	ready := true
	mux := NewMux(MuxOptions{
		Registry: r,
		Ready: func() error {
			if !ready {
				return errTest
			}
			return nil
		},
		PProf: true,
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	sc, err := ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if v, ok := sc.Value("mux_hits_total"); !ok || v != 9 {
		t.Fatalf("mux_hits_total = %v %v", v, ok)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d", code)
	}
	ready = false
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "not ready") {
		t.Fatalf("unready /readyz = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "not ready" }

// TestSpecialValues checks an emitted +Inf survives exposition and
// parsing.
func TestSpecialValues(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(e *Emitter) { e.Gauge("math_gauge", "", math.Inf(1)) })
	var sb strings.Builder
	_, _ = r.WriteTo(&sb)
	if !strings.Contains(sb.String(), "math_gauge +Inf") {
		t.Fatalf("Inf formatting: %q", sb.String())
	}
	sc, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sc.Value("math_gauge"); !math.IsInf(v, 1) {
		t.Fatalf("parsed Inf = %v", v)
	}
}

package obs

import (
	"strings"
	"testing"
)

// seedExposition renders a registry holding every kind the daemons
// emit: collected counters and gauges, unlabelled and labelled (one label
// value needing escapes), and a labelled histogram. want lists each
// written value by name and label pairs.
func seedExposition(t testing.TB) (string, []seedValue) {
	t.Helper()
	r := NewRegistry()
	h := r.HistogramVec("provlight_seed_latency_seconds", "Latency.", LatencyBuckets, "stage").With("x")
	h.Observe(0.25)
	h.Observe(0.5)
	r.Collect(func(e *Emitter) {
		e.Counter("provlight_seed_frames_total", "Frames.", 7)
		e.Gauge("provlight_seed_queue_depth", "Depth.", 2.5)
		e.Counter("provlight_seed_sent_total", "Sent per peer.", 3, "peer", "a")
		e.Counter("provlight_seed_sent_total", "Sent per peer.", 4, "peer", `b"q\`)
		e.Gauge("provlight_seed_window", "Window per peer.", -1.5, "peer", "a")
		e.Gauge("provlight_seed_lag_records", "Lag.", 9, "follower", "r1")
		e.Counter("provlight_seed_acks_total", "Acks.", 11)
	})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), []seedValue{
		{"provlight_seed_frames_total", nil, 7},
		{"provlight_seed_queue_depth", nil, 2.5},
		{"provlight_seed_sent_total", []string{"peer", "a"}, 3},
		{"provlight_seed_sent_total", []string{"peer", `b"q\`}, 4},
		{"provlight_seed_window", []string{"peer", "a"}, -1.5},
		{"provlight_seed_latency_seconds_bucket", []string{"stage", "x", "le", "0.1"}, 0},
		{"provlight_seed_latency_seconds_bucket", []string{"stage", "x", "le", "0.25"}, 1},
		{"provlight_seed_latency_seconds_bucket", []string{"stage", "x", "le", "0.5"}, 2},
		{"provlight_seed_latency_seconds_bucket", []string{"stage", "x", "le", "+Inf"}, 2},
		{"provlight_seed_latency_seconds_sum", []string{"stage", "x"}, 0.75},
		{"provlight_seed_latency_seconds_count", []string{"stage", "x"}, 2},
		{"provlight_seed_lag_records", []string{"follower", "r1"}, 9},
		{"provlight_seed_acks_total", nil, 11},
	}
}

type seedValue struct {
	name  string
	kv    []string
	value float64
}

// TestLint feeds Lint one exposition per rule it enforces, plus a clean
// registry exposition that must pass.
func TestLint(t *testing.T) {
	clean, _ := seedExposition(t)
	for _, tc := range []struct {
		name, text, want string
	}{
		{"clean registry output", clean, ""},
		{"missing prefix", "# TYPE frames_total counter\nframes_total 1\n", "provlight_ prefix"},
		{"counter without _total", "# TYPE provlight_frames counter\nprovlight_frames 1\n", "does not end in _total"},
		{"gauge with _total", "# TYPE provlight_depth_total gauge\nprovlight_depth_total 1\n", "gauge name ends in _total"},
		{"no TYPE line", "provlight_depth 1\n", "no TYPE line"},
		{"two TYPE lines", "# TYPE provlight_depth gauge\n# TYPE provlight_depth gauge\nprovlight_depth 1\n", "2 TYPE lines"},
		{"mixed label names", "# TYPE provlight_depth gauge\nprovlight_depth{a=\"1\"} 1\nprovlight_depth{b=\"1\"} 2\n", "label names {a} and {b}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := ParseText(strings.NewReader(tc.text))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			err = sc.Lint()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Lint = %v, want clean", err)
			case tc.want != "" && err == nil:
				t.Fatalf("Lint passed, want an error containing %q", tc.want)
			case tc.want != "" && (!strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n")):
				t.Fatalf("Lint = %q, want exactly one error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzParseText: no input panics the parser (or Lint on what it
// accepts), every accepted sample has a valid metric name, and the seed
// exposition parses back to the values written.
func FuzzParseText(f *testing.F) {
	seed, want := seedExposition(f)
	sc, err := ParseText(strings.NewReader(seed))
	if err != nil {
		f.Fatalf("seed does not parse: %v", err)
	}
	for _, w := range want {
		if v, ok := sc.Value(w.name, w.kv...); !ok || v != w.value {
			f.Fatalf("seed %s%v = %v (present %v), want %v", w.name, w.kv, v, ok, w.value)
		}
	}
	f.Add(seed)
	f.Add("# HELP x y\n# TYPE x untyped\nx{a=\"\\n\",b=\"\"} -Inf 123\n")
	f.Add("x{a=\"1\"} NaN\n")
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, s := range sc.Samples {
			if s.Name == "" || !isMetricName(s.Name) {
				t.Fatalf("accepted sample with invalid name %q", s.Name)
			}
		}
		_ = sc.Lint()
		_ = sc.Families()
	})
}

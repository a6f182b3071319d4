package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// notApplicable lists the per-layer metrics of layers a workload does not
// exercise: they are carried as 0 and printed as n/a.
func notApplicable(s spec) map[string]bool {
	na := map[string]bool{}
	if !s.spooled {
		na["spool.redeliveries"], na["spool.reconnects"] = true, true
	}
	if !s.cluster {
		na["cluster.forwarded_per_frame"], na["cluster.route_ms"] = true, true
	}
	return na
}

// measuredLayers are per-layer metrics that every workload exercises and
// that are above 0 whenever their layer works.
var measuredLayers = []string{
	"wire.encode_us_per_frame", "wire.frame_bytes", "core.send_wait_ms",
	"mqttsn.packets_per_frame", "transport.datagrams_per_record", "broker.route_ms",
	"translate.frames_per_batch", "translate.wait_ms", "dfanalyzer.apply_us_per_frame",
	"dfanalyzer.wal_ops_per_frame", "dfanalyzer.recover_s",
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the oracle passes, that the result carries exactly the
// metrics BENCHMARK.json declares, and that exactly the layers a workload
// does not exercise are reported as n/a.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			name := s.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(context.Background(), options{
					workload: s.name, seed: 7, seconds: 1, trace: trace,
					workDir: t.TempDir(), setups: 2, seedTasks: 200,
				}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m]
					if !ok {
						t.Errorf("metric %s missing", m)
					} else if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m, v.Value)
					}
				}
				if trace {
					na := notApplicable(s)
					if s.cluster {
						measured := append([]string{"cluster.forwarded_per_frame", "cluster.route_ms"}, measuredLayers...)
						checkPositive(t, res, measured)
					} else {
						checkPositive(t, res, measuredLayers)
					}
					for _, m := range perLayer {
						printedNA := regexp.MustCompile(`\n  ` + regexp.QuoteMeta(m) + ` +n/a `).MatchString(out.String())
						if printedNA != na[m] {
							t.Errorf("metric %s: printed as n/a = %v, want %v", m, printedNA, na[m])
						}
					}
				}
				if !strings.Contains(out.String(), "oracle PASS") {
					t.Errorf("no oracle verdict in output:\n%s", out.String())
				}
			})
		}
	}
}

func checkPositive(t *testing.T, res *result, names []string) {
	t.Helper()
	for _, m := range names {
		if v := res.Metrics[m].Value; v <= 0 {
			t.Errorf("per-layer metric %s = %v, want > 0", m, v)
		}
	}
}

// TestUnknownWorkload checks that a bad workload name is an error, not a
// result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run(context.Background(), options{workload: "nope", seconds: 1, setups: 1, workDir: t.TempDir()}, &bytes.Buffer{}); err == nil {
		t.Fatal("run accepted an unknown workload")
	}
}

// Benchmark harness for the paper's evaluation: one testing.B benchmark
// per table and figure (simulator-backed, reporting the headline metric of
// each as a custom unit), plus real-path benchmarks of the actual codecs,
// broker, and capture clients on localhost.
//
// Run with: go test -bench=. -benchmem
package provlight_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/device"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/experiment"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/provlake"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/transport"
	"github.com/provlight/provlight/internal/wire"
	"github.com/provlight/provlight/internal/workload"
)

// ---------------------------------------------------------------------------
// Paper tables and figures (simulation-backed; the custom metric is the
// paper's headline number for that artifact).
// ---------------------------------------------------------------------------

func reportOverhead(b *testing.B, name string, mean float64) {
	b.ReportMetric(mean*100, name+"_%overhead")
}

func BenchmarkTableII_BaselineOverheadEdge(b *testing.B) {
	var last experiment.TableResult
	for i := 0; i < b.N; i++ {
		last = experiment.TableII()
	}
	for _, c := range last.Cells {
		if c.Config.Workload.TaskDuration == 500*time.Millisecond && c.Config.Workload.AttributesPerTask == 100 {
			reportOverhead(b, string(c.Config.System), c.Overhead.Mean)
		}
	}
}

func BenchmarkTableIII_ProvLakeGrouping(b *testing.B) {
	var last experiment.TableResult
	for i := 0; i < b.N; i++ {
		last = experiment.TableIII()
	}
	for _, c := range last.Cells {
		if c.Config.Link.BandwidthBps == 25e3 && c.Config.Workload.TaskDuration == 500*time.Millisecond {
			reportOverhead(b, fmt.Sprintf("25Kbit_g%d", c.Config.GroupSize), c.Overhead.Mean)
		}
	}
}

func BenchmarkTableVII_ProvLightOverheadEdge(b *testing.B) {
	var last experiment.TableResult
	for i := 0; i < b.N; i++ {
		last = experiment.TableVII()
	}
	for _, c := range last.Cells {
		if c.Config.Workload.AttributesPerTask == 100 {
			reportOverhead(b, fmt.Sprintf("%.1fs", c.Config.Workload.TaskDuration.Seconds()), c.Overhead.Mean)
		}
	}
}

func BenchmarkTableVIII_ProvLightGrouping(b *testing.B) {
	var last experiment.TableResult
	for i := 0; i < b.N; i++ {
		last = experiment.TableVIII()
	}
	for _, c := range last.Cells {
		if c.Config.Link.BandwidthBps == 25e3 && c.Config.Workload.TaskDuration == 500*time.Millisecond {
			reportOverhead(b, fmt.Sprintf("25Kbit_g%d", c.Config.GroupSize), c.Overhead.Mean)
		}
	}
}

func BenchmarkTableIX_Scalability(b *testing.B) {
	var last experiment.TableResult
	for i := 0; i < b.N; i++ {
		last = experiment.TableIX()
	}
	for _, c := range last.Cells {
		reportOverhead(b, fmt.Sprintf("%ddevices", c.Config.Devices), c.Overhead.Mean)
	}
}

func BenchmarkTableX_CloudOverhead(b *testing.B) {
	var last experiment.TableResult
	for i := 0; i < b.N; i++ {
		last = experiment.TableX()
	}
	for _, c := range last.Cells {
		if c.Config.Workload.TaskDuration == 500*time.Millisecond {
			reportOverhead(b, string(c.Config.System), c.Overhead.Mean)
		}
	}
}

func figure6Cell(b *testing.B, sys experiment.System) experiment.Result {
	b.Helper()
	var r experiment.Result
	for i := 0; i < b.N; i++ {
		r = experiment.Run(experiment.RunConfig{
			System:      sys,
			Workload:    workload.Default,
			Device:      device.A8M3,
			Link:        netem.GigabitEdge,
			Repetitions: 10,
			Seed:        42,
		})
	}
	return r
}

func BenchmarkFigure6a_CPU(b *testing.B) {
	for _, sys := range experiment.AllSystems {
		sys := sys
		b.Run(string(sys), func(b *testing.B) {
			r := figure6Cell(b, sys)
			b.ReportMetric(r.CPUPercent, "cpu_%")
		})
	}
}

func BenchmarkFigure6b_Memory(b *testing.B) {
	for _, sys := range experiment.AllSystems {
		sys := sys
		b.Run(string(sys), func(b *testing.B) {
			r := figure6Cell(b, sys)
			b.ReportMetric(r.MemPercent, "mem_%")
		})
	}
}

func BenchmarkFigure6c_Network(b *testing.B) {
	for _, sys := range experiment.AllSystems {
		sys := sys
		b.Run(string(sys), func(b *testing.B) {
			r := figure6Cell(b, sys)
			b.ReportMetric(r.NetKBps, "KB/s")
		})
	}
}

func BenchmarkFigure6d_Power(b *testing.B) {
	for _, sys := range experiment.AllSystems {
		sys := sys
		b.Run(string(sys), func(b *testing.B) {
			r := figure6Cell(b, sys)
			b.ReportMetric(r.PowerW, "watts")
			b.ReportMetric(r.PowerOverheadPct, "power_%overhead")
		})
	}
}

func BenchmarkAblations_DesignChoices(b *testing.B) {
	var last experiment.TableResult
	for i := 0; i < b.N; i++ {
		last = experiment.Ablations()
	}
	for i, c := range last.Cells {
		reportOverhead(b, fmt.Sprintf("v%d", i), c.Overhead.Mean)
	}
}

// ---------------------------------------------------------------------------
// Real-path benchmarks: actual codecs, broker, and capture clients.
// ---------------------------------------------------------------------------

func BenchmarkWireEncode100Attrs(b *testing.B) {
	_, end := workload.Default.SampleTaskRecords("wf")
	enc := wire.Encoder{}
	b.ReportAllocs()
	var size int
	for i := 0; i < b.N; i++ {
		frame, err := enc.EncodeFrame(&end)
		if err != nil {
			b.Fatal(err)
		}
		size = len(frame)
	}
	b.ReportMetric(float64(size), "frame_bytes")
}

func BenchmarkWireDecode100Attrs(b *testing.B) {
	_, end := workload.Default.SampleTaskRecords("wf")
	frame, err := (&wire.Encoder{}).EncodeFrame(&end)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireGroupEncode50(b *testing.B) {
	recs := workload.Default.Records("wf", time.Unix(0, 0))
	enc := wire.Encoder{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch := make([]*provlight.Record, 50)
		for j := range batch {
			batch[j] = &recs[1+j]
		}
		if _, err := enc.EncodeFrame(batch...); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCapturePipeline measures end-to-end capture cost through the real
// client -> UDP broker -> translator path with a given publish window and
// optional netem shaping of the device uplink.
func benchCapturePipeline(b *testing.B, window int, delay time.Duration) {
	b.Helper()
	mem := provlight.NewMemoryTarget()
	server, err := provlight.StartServer(context.Background(), provlight.ServerConfig{
		Addr:    "127.0.0.1:0",
		Targets: []provlight.Target{mem},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	cfg := provlight.Config{
		Broker:     server.Addr(),
		ClientID:   "bench-device",
		WindowSize: window,
	}
	if delay > 0 {
		cfg.Transport = netem.WrapTransport(transport.UDP{}, netem.Profile{Delay: delay})
	}
	client, err := provlight.NewClient(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	wf := client.NewWorkflow("bench")
	if err := wf.Begin(); err != nil {
		b.Fatal(err)
	}
	attrs := provlight.Attrs(map[string]any{"in": make([]byte, 100)})
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		task := wf.NewTask(fmt.Sprintf("t%d", i), "bench")
		captureOrWait(b, func() error {
			return task.Begin(provlight.NewData(fmt.Sprintf("in%d", i), attrs))
		})
		captureOrWait(b, func() error {
			return task.End(provlight.NewData(fmt.Sprintf("out%d", i), attrs))
		})
	}
	if err := client.Flush(); err != nil {
		b.Fatal(err)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	st := client.StatsSnapshot()
	b.ReportMetric(float64(st.BytesPublished)/float64(b.N), "wire_bytes/task")
	b.ReportMetric(float64(st.FramesPublished)/elapsed.Seconds(), "frames/s")
}

// captureOrWait retries ErrQueueFull with a short backoff: the bench's
// stand-in for an application-level policy, now that a full transmit
// queue fails fast (counting StatsSnapshot.QueueFull) instead of
// blocking the workload.
func captureOrWait(b *testing.B, capture func() error) {
	b.Helper()
	for {
		err := capture()
		if err == nil {
			return
		}
		if errors.Is(err, provlight.ErrQueueFull) {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		b.Fatal(err)
	}
}

// BenchmarkPipelineLocal compares the in-memory transmit queue with the
// disk spool (store-and-forward) on the same loopback pipeline. The
// spooled path pays a WAL append per frame plus the end-to-end
// acknowledgement round trip; the acceptance budget is 2x of the
// in-memory path's frames/s.
func BenchmarkPipelineLocal(b *testing.B) {
	for _, mode := range []string{"memory", "spooled"} {
		b.Run(mode, func(b *testing.B) {
			mem := provlight.NewMemoryTarget()
			server, err := provlight.StartServer(context.Background(), provlight.ServerConfig{
				Addr:    "127.0.0.1:0",
				Targets: []provlight.Target{mem},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer server.Close()
			cfg := provlight.Config{
				Broker:     server.Addr(),
				ClientID:   "bench-device",
				WindowSize: 16,
			}
			// The bench measures the instrumented capture path — frame
			// tracing on (the default) and a live metrics registry — so a
			// regression in observability overhead shows up here, not just
			// in production. BENCH_OBS=off measures the uninstrumented
			// path for comparison.
			if os.Getenv("BENCH_OBS") == "off" {
				cfg.DisableTrace = true
			} else {
				cfg.Metrics = obs.NewRegistry()
			}
			if mode == "spooled" {
				cfg.SpoolDir = b.TempDir()
				cfg.AckWindow = 256
			}
			client, err := provlight.NewClient(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			wf := client.NewWorkflow("bench")
			if err := wf.Begin(); err != nil {
				b.Fatal(err)
			}
			attrs := provlight.Attrs(map[string]any{"in": make([]byte, 100)})
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				task := wf.NewTask(fmt.Sprintf("t%d", i), "bench")
				captureOrWait(b, func() error {
					return task.Begin(provlight.NewData(fmt.Sprintf("in%d", i), attrs))
				})
				captureOrWait(b, func() error {
					return task.End(provlight.NewData(fmt.Sprintf("out%d", i), attrs))
				})
			}
			if err := client.Flush(); err != nil {
				b.Fatal(err)
			}
			elapsed := time.Since(start)
			b.StopTimer()
			frames := float64(2*b.N + 1)
			b.ReportMetric(frames/elapsed.Seconds(), "frames/s")
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := client.Shutdown(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkProvLightCaptureRealPipeline sweeps the publish window on
// localhost and through a 50 ms one-way netem uplink. window=1 is the
// pre-windowing stop-and-wait behaviour; window=16 is the default.
func BenchmarkProvLightCaptureRealPipeline(b *testing.B) {
	for _, bc := range []struct {
		name   string
		window int
		delay  time.Duration
	}{
		{"local/window1", 1, 0},
		{"local/window16", 16, 0},
		{"netem50ms/window1", 1, 50 * time.Millisecond},
		{"netem50ms/window16", 16, 50 * time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchCapturePipeline(b, bc.window, bc.delay)
		})
	}
}

// BenchmarkMQTTSNPublishWindowed sweeps the in-flight window of the raw
// MQTT-SN QoS 2 publish engine over a 50 ms one-way netem uplink,
// reporting achieved frames/s. At window 1 throughput is capped by the
// two-round-trip handshake; wider windows overlap handshakes.
func BenchmarkMQTTSNPublishWindowed(b *testing.B) {
	for _, window := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("window%d", window), func(b *testing.B) {
			gw, err := broker.New(broker.Config{Addr: "127.0.0.1:0"})
			if err != nil {
				b.Fatal(err)
			}
			defer gw.Close()
			c, err := mqttsn.NewClient(mqttsn.ClientConfig{
				ClientID:       "bench-windowed",
				Gateway:        gw.Addr(),
				Transport:      netem.WrapTransport(transport.UDP{}, netem.Profile{Delay: 50 * time.Millisecond}),
				RetryInterval:  2 * time.Second,
				InflightWindow: window,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if err := c.Connect(); err != nil {
				b.Fatal(err)
			}
			if _, err := c.RegisterTopic("bench/windowed"); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 128)
			b.ResetTimer()
			start := time.Now()
			acks := make([]<-chan error, 0, b.N)
			for i := 0; i < b.N; i++ {
				acks = append(acks, publishAsync(c, "bench/windowed", payload, mqttsn.QoS2))
			}
			for i, ch := range acks {
				if err := <-ch; err != nil {
					b.Fatalf("publish %d: %v", i, err)
				}
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "frames/s")
		})
	}
}

// BenchmarkBrokerFanIn measures the broker's fan-in ceiling: many devices
// publishing QoS 2 frames on per-workflow topics into one consumer group
// whose members sit behind a 25 ms netem uplink (the latency-bound
// configuration where one subscriber session's outbound window caps the
// whole continuum). Sweeping the group size shows the aggregate window —
// and thus frames/s — scaling with the member count.
func BenchmarkBrokerFanIn(b *testing.B) {
	for _, members := range []int{1, 2, 4} {
		members := members
		b.Run(fmt.Sprintf("netem25ms/sessions%d", members), func(b *testing.B) {
			gw, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 2 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer gw.Close()
			var received atomic.Int64
			shaped := netem.WrapTransport(transport.UDP{}, netem.Profile{Delay: 25 * time.Millisecond})
			for m := 0; m < members; m++ {
				c, err := mqttsn.NewClient(mqttsn.ClientConfig{
					ClientID:      fmt.Sprintf("fanin-member-%d", m),
					Gateway:       gw.Addr(),
					Transport:     shaped,
					RetryInterval: 2 * time.Second,
					MaxRetries:    10,
					CleanSession:  true,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.Connect(); err != nil {
					b.Fatal(err)
				}
				if err := c.Subscribe("$share/bench/fanin/+/records", mqttsn.QoS2, func(string, []byte) {
					received.Add(1)
				}); err != nil {
					b.Fatal(err)
				}
			}
			const pubs = 8
			const topicsPerPub = 4 // 32 workflow topics spread over the group
			clients := make([]*mqttsn.Client, pubs)
			for p := range clients {
				c, err := mqttsn.NewClient(mqttsn.ClientConfig{
					ClientID:       fmt.Sprintf("fanin-pub-%d", p),
					Gateway:        gw.Addr(),
					RetryInterval:  time.Second,
					MaxRetries:     10,
					InflightWindow: 64,
					CleanSession:   true,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				if err := c.Connect(); err != nil {
					b.Fatal(err)
				}
				clients[p] = c
			}
			payload := make([]byte, 128)
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for p := 0; p < pubs; p++ {
				n := b.N / pubs
				if p < b.N%pubs {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(p, n int) {
					defer wg.Done()
					acks := make([]<-chan error, 0, n)
					for i := 0; i < n; i++ {
						topic := fmt.Sprintf("fanin/%d/records", p*topicsPerPub+i%topicsPerPub)
						acks = append(acks, publishAsync(clients[p], topic, payload, mqttsn.QoS2))
					}
					for i, ch := range acks {
						if err := <-ch; err != nil {
							b.Errorf("publisher %d frame %d: %v", p, i, err)
							return
						}
					}
				}(p, n)
			}
			wg.Wait()
			deadline := time.Now().Add(60*time.Second + time.Duration(b.N)*20*time.Millisecond)
			for received.Load() < int64(b.N) {
				if time.Now().After(deadline) {
					b.Fatalf("group received %d/%d frames", received.Load(), b.N)
				}
				time.Sleep(time.Millisecond)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "frames/s")
		})
	}
}

// BenchmarkBrokerRouteQoS1 measures the broker's publish -> match ->
// deliver path (one publisher, one wildcard subscriber) on localhost,
// with allocation accounting across the whole route path.
func BenchmarkBrokerRouteQoS1(b *testing.B) {
	gw, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 200 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()
	newClient := func(id string) *mqttsn.Client {
		c, err := mqttsn.NewClient(mqttsn.ClientConfig{
			ClientID:      id,
			Gateway:       gw.Addr(),
			RetryInterval: 200 * time.Millisecond,
			MaxRetries:    10,
			CleanSession:  true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Connect(); err != nil {
			b.Fatal(err)
		}
		return c
	}
	sub := newClient("bench-route-sub")
	defer sub.Close()
	var received atomic.Int64
	if err := sub.Subscribe("bench/+/route", mqttsn.QoS1, func(string, []byte) {
		received.Add(1)
	}); err != nil {
		b.Fatal(err)
	}
	pub := newClient("bench-route-pub")
	defer pub.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Publish("bench/dev/route", payload, mqttsn.QoS1); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < int64(b.N) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
	if got := received.Load(); got < int64(b.N) {
		b.Fatalf("subscriber received %d/%d messages", got, b.N)
	}
}

// BenchmarkDfAnalyzerCaptureRealHTTP measures the baseline's blocking
// HTTP request/response capture path on localhost.
func BenchmarkDfAnalyzerCaptureRealHTTP(b *testing.B) {
	srv := dfanalyzer.NewServer(nil)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := dfanalyzer.NewClient("http://" + srv.Addr())
	df := &dfanalyzer.Dataflow{
		Tag: "bench",
		Transformations: []dfanalyzer.Transformation{{
			Tag: "t",
			Output: []dfanalyzer.SetSchema{{Tag: "t_output", Attributes: []dfanalyzer.Attribute{
				{Name: "v", Type: dfanalyzer.Numeric},
			}}},
		}},
	}
	if err := client.RegisterDataflow(df); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := &dfanalyzer.TaskMsg{
			Dataflow: "bench", Transformation: "t", ID: fmt.Sprintf("task%d", i),
			Status: dfanalyzer.StatusFinished,
			Sets: []dfanalyzer.SetData{{Tag: "t_output",
				Elements: []dfanalyzer.Element{{float64(i)}}}},
		}
		if err := client.SendTask(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProvLakeCaptureRealHTTP measures the second baseline, with and
// without message grouping.
func BenchmarkProvLakeCaptureRealHTTP(b *testing.B) {
	for _, group := range []int{0, 10} {
		group := group
		b.Run(fmt.Sprintf("group%d", group), func(b *testing.B) {
			srv := provlake.NewServer(nil)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			var opts []provlake.Option
			if group > 0 {
				opts = append(opts, provlake.WithGroupSize(group))
			}
			client := provlake.NewClient("http://"+srv.Addr(), opts...)
			recs := workload.Default.Records("wf", time.Now())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Capture(&recs[1+i%(len(recs)-2)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := client.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSimulatedEdgeRun measures the simulator itself: one full
// Table I cell (10 repetitions x 100 tasks) per iteration.
func BenchmarkSimulatedEdgeRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Run(experiment.RunConfig{
			System:      experiment.ProvLight,
			Workload:    workload.Default,
			Device:      device.A8M3,
			Link:        netem.GigabitEdge,
			Repetitions: 10,
			Seed:        1,
		})
	}
}

// benchStoreDataflow registers a small spec on a fresh store.
func benchStoreDataflow(b *testing.B) *dfanalyzer.Store {
	b.Helper()
	store := dfanalyzer.NewStore()
	df := &dfanalyzer.Dataflow{
		Tag: "bench",
		Transformations: []dfanalyzer.Transformation{{
			Tag: "t",
			Output: []dfanalyzer.SetSchema{{Tag: "t_output", Attributes: []dfanalyzer.Attribute{
				{Name: "epoch", Type: dfanalyzer.Numeric},
				{Name: "loss", Type: dfanalyzer.Numeric},
				{Name: "host", Type: dfanalyzer.Text},
			}}},
		}},
	}
	if err := store.RegisterDataflow(df); err != nil {
		b.Fatal(err)
	}
	return store
}

func benchTaskMsg(i int) *dfanalyzer.TaskMsg {
	return &dfanalyzer.TaskMsg{
		Dataflow: "bench", Transformation: "t", ID: fmt.Sprintf("task%d", i),
		Status: dfanalyzer.StatusFinished,
		Sets: []dfanalyzer.SetData{{Tag: "t_output", Elements: []dfanalyzer.Element{
			{float64(i), 1.0 / float64(i+1), "edge-1"},
		}}},
	}
}

// BenchmarkStoreIngestBatch measures the store append path: one task per
// IngestTasks call versus 64 per call (one shard lock per batch, columns
// resolved positionally).
func BenchmarkStoreIngestBatch(b *testing.B) {
	for _, batch := range []int{1, 64} {
		batch := batch
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			store := benchStoreDataflow(b)
			msgs := make([]*dfanalyzer.TaskMsg, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				for j := range msgs {
					msgs[j] = benchTaskMsg(n + j)
				}
				if err := store.IngestTasks(msgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreSelectTopK measures the OrderBy+Limit hit path over 100k
// rows: a bounded top-k heap instead of sorting every match.
func BenchmarkStoreSelectTopK(b *testing.B) {
	store := benchStoreDataflow(b)
	const rows = 100_000
	const batch = 256
	msgs := make([]*dfanalyzer.TaskMsg, 0, batch)
	for i := 0; i < rows; i += batch {
		msgs = msgs[:0]
		for j := 0; j < batch; j++ {
			msgs = append(msgs, benchTaskMsg(i+j))
		}
		if err := store.IngestTasks(msgs); err != nil {
			b.Fatal(err)
		}
	}
	q := dfanalyzer.Query{
		Dataflow: "bench", Set: "t_output",
		Where:   []dfanalyzer.Pred{{Attr: "loss", Op: dfanalyzer.Lt, Value: 0.5}},
		OrderBy: "epoch", Desc: true, Limit: 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := store.Select(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 10 {
			b.Fatalf("rows = %d, want 10", len(out))
		}
	}
}

// BenchmarkTranslatorPipeline measures end-to-end server-side ingestion:
// device client -> UDP broker -> translator -> DfAnalyzer HTTP server ->
// column store, sweeping the translator micro-batch size.
func BenchmarkTranslatorPipeline(b *testing.B) {
	cases := []struct {
		name   string
		batch  int
		target func(url string) provlight.Target
	}{
		{"batch1", 1, func(url string) provlight.Target { return provlight.NewDfAnalyzerTarget(url, "bench") }},
		{"batch16", 16, func(url string) provlight.Target { return provlight.NewDfAnalyzerTarget(url, "bench") }},
		{"batch64", 64, func(url string) provlight.Target { return provlight.NewDfAnalyzerTarget(url, "bench") }},
	}
	for _, bc := range cases {
		bc := bc
		b.Run(bc.name, func(b *testing.B) {
			dfaSrv := dfanalyzer.NewServer(nil)
			if err := dfaSrv.Start("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer dfaSrv.Close()
			gw, err := broker.New(broker.Config{Addr: "127.0.0.1:0"})
			if err != nil {
				b.Fatal(err)
			}
			defer gw.Close()
			tr, err := translate.New(context.Background(), translate.Config{
				Broker:    gw.Addr(),
				Targets:   []translate.Target{bc.target("http://" + dfaSrv.Addr())},
				BatchSize: bc.batch,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()
			client, err := provlight.NewClient(context.Background(), provlight.Config{
				Broker:     gw.Addr(),
				ClientID:   "bench-ingest",
				WindowSize: 64,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			wf := client.NewWorkflow("bench")
			if err := wf.Begin(); err != nil {
				b.Fatal(err)
			}
			attrs := provlight.Attrs(map[string]any{"epoch": int64(0), "loss": 0.5})
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				task := wf.NewTask(fmt.Sprintf("t%d", i), "t")
				if err := task.Begin(provlight.NewData(fmt.Sprintf("in%d", i), attrs)); err != nil {
					b.Fatal(err)
				}
				if err := task.End(provlight.NewData(fmt.Sprintf("out%d", i), attrs)); err != nil {
					b.Fatal(err)
				}
			}
			if err := client.Flush(); err != nil {
				b.Fatal(err)
			}
			// Flush only guarantees the broker holds the frames; wait until
			// every task reached the store through the translator.
			deadline := time.Now().Add(30*time.Second + time.Duration(b.N)*10*time.Millisecond)
			for dfaSrv.Store().TaskCount("bench") < b.N {
				if time.Now().After(deadline) {
					b.Fatalf("store has %d tasks, want %d", dfaSrv.Store().TaskCount("bench"), b.N)
				}
				time.Sleep(time.Millisecond)
			}
			tr.Drain()
			elapsed := time.Since(start)
			b.StopTimer()
			frames := client.StatsSnapshot().FramesPublished
			b.ReportMetric(float64(frames)/elapsed.Seconds(), "frames/s")
		})
	}
}

// BenchmarkTranslatorPipelineSessions is the fan-in variant of
// BenchmarkTranslatorPipeline: 8 devices capture concurrently through the
// real broker into ONE translator whose consumer-group session count is
// swept, with every translator session behind a 25 ms netem uplink. On
// this latency-bound configuration the broker->translator QoS 2 window is
// the bottleneck, so frames/s scales with the number of group sessions.
func BenchmarkTranslatorPipelineSessions(b *testing.B) {
	for _, sessions := range []int{1, 2, 4} {
		sessions := sessions
		b.Run(fmt.Sprintf("netem25ms/sessions%d", sessions), func(b *testing.B) {
			gw, err := broker.New(broker.Config{Addr: "127.0.0.1:0", RetryInterval: 2 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			defer gw.Close()
			mem := translate.NewMemoryTarget()
			tr, err := translate.New(context.Background(), translate.Config{
				Broker:        gw.Addr(),
				ClientID:      "bench-group",
				Sessions:      sessions,
				RetryInterval: 2 * time.Second,
				MaxRetries:    10,
				Targets:       []translate.Target{mem},
				Transport:     netem.WrapTransport(transport.UDP{}, netem.Profile{Delay: 25 * time.Millisecond}),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer tr.Close()

			const devices = 8
			clients := make([]*provlight.Client, devices)
			workflows := make([]*provlight.Workflow, devices)
			for d := range clients {
				c, err := provlight.NewClient(context.Background(), provlight.Config{
					Broker:     gw.Addr(),
					ClientID:   fmt.Sprintf("bench-gdev-%d", d),
					WindowSize: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[d] = c
				workflows[d] = c.NewWorkflow(fmt.Sprintf("wf-%d", d))
				if err := workflows[d].Begin(); err != nil {
					b.Fatal(err)
				}
			}
			attrs := provlight.Attrs(map[string]any{"epoch": int64(0), "loss": 0.5})
			baseline := len(mem.Records()) // workflow-begin frames
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for d := 0; d < devices; d++ {
				n := b.N / devices
				if d < b.N%devices {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(d, n int) {
					defer wg.Done()
					wf := workflows[d]
					for i := 0; i < n; i++ {
						task := wf.NewTask(fmt.Sprintf("t%d", i), "bench")
						if err := task.Begin(provlight.NewData(fmt.Sprintf("in%d", i), attrs)); err != nil {
							b.Errorf("device %d begin %d: %v", d, i, err)
							return
						}
						if err := task.End(provlight.NewData(fmt.Sprintf("out%d", i), attrs)); err != nil {
							b.Errorf("device %d end %d: %v", d, i, err)
							return
						}
					}
					if err := clients[d].Flush(); err != nil {
						b.Errorf("device %d flush: %v", d, err)
					}
				}(d, n)
			}
			wg.Wait()
			want := baseline + 2*b.N // begin + end record per task
			deadline := time.Now().Add(60*time.Second + time.Duration(b.N)*20*time.Millisecond)
			for len(mem.Records()) < want {
				if time.Now().After(deadline) {
					b.Fatalf("target has %d/%d records", len(mem.Records()), want)
				}
				time.Sleep(time.Millisecond)
			}
			tr.Drain()
			elapsed := time.Since(start)
			b.StopTimer()
			var frames uint64
			for _, c := range clients {
				frames += c.StatsSnapshot().FramesPublished
			}
			b.ReportMetric(float64(frames)/elapsed.Seconds(), "frames/s")
		})
	}
}

// BenchmarkSourceSelect measures the backend-agnostic read path: the same
// predicate + top-k query through the Source interface against the
// in-memory target's column-store view and against a local DfAnalyzer
// store, over 20k ingested records.
func BenchmarkSourceSelect(b *testing.B) {
	const tasks = 10_000
	records := make([]provdm.Record, 0, 2*tasks)
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < tasks; i++ {
		id := fmt.Sprintf("t%d", i)
		records = append(records, provdm.Record{
			Event: provdm.EventTaskBegin, WorkflowID: "w", TaskID: id,
			Transformation: "t", Status: provdm.StatusRunning,
			Data: []provdm.DataRef{{ID: "in-" + id, Attributes: []provdm.Attribute{
				{Name: "lr", Value: float64(i%10) / 10},
			}}},
			Time: base,
		})
		records = append(records, provdm.Record{
			Event: provdm.EventTaskEnd, WorkflowID: "w", TaskID: id,
			Transformation: "t", Status: provdm.StatusFinished,
			Data: []provdm.DataRef{{ID: "out-" + id, Attributes: []provdm.Attribute{
				{Name: "epoch", Value: float64(i)},
				{Name: "loss", Value: 1 / float64(i+1)},
				{Name: "accuracy", Value: float64(i%1000) / 1000},
			}}},
			Time: base.Add(time.Second),
		})
	}

	mem := provlight.NewMemoryTargetForDataflow("bench")
	if err := mem.DeliverFrames([]provlight.Frame{{Records: records}}); err != nil {
		b.Fatal(err)
	}
	store := dfanalyzer.NewStore()
	if err := store.RegisterDataflow(dfanalyzer.DataflowFromRecords("bench", records)); err != nil {
		b.Fatal(err)
	}
	for i := range records {
		if msg, ok := dfanalyzer.RecordToTaskMsg("bench", &records[i]); ok {
			if err := store.IngestTask(msg); err != nil {
				b.Fatal(err)
			}
		}
	}

	q := provlight.Query{
		Dataflow: "bench", Set: "t_output",
		Where:   []provlight.Pred{{Attr: "loss", Op: provlight.Lt, Value: 0.5}},
		OrderBy: "accuracy", Desc: true, Limit: 10,
	}
	ctx := context.Background()
	for name, src := range map[string]provlight.Source{"memory": mem, "store": store} {
		src := src
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := src.Select(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 10 {
					b.Fatalf("rows = %d, want 10", len(rows))
				}
			}
		})
	}
}

// publishAsync starts a publish and returns a channel that receives its
// outcome.
func publishAsync(c *mqttsn.Client, topic string, payload []byte, qos mqttsn.QoS) <-chan error {
	errc := make(chan error, 1)
	c.PublishAsync(topic, payload, qos, func(err error) { errc <- err })
	return errc
}

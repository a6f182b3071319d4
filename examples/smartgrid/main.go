// Smartgrid: sensor-data aggregation on a constrained uplink.
//
// Four smart-meter devices aggregate readings and ship provenance over an
// emulated 25 Kbit/s uplink (netem shaping on the real UDP socket, the
// scenario of Table VIII). Grouping of ended tasks keeps the number of
// transmissions low; the example prints the per-device wire statistics so
// the effect is visible.
//
// Run with: go run ./examples/smartgrid
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"github.com/provlight/provlight"
	"github.com/provlight/provlight/internal/core"
	"github.com/provlight/provlight/internal/netem"
	"github.com/provlight/provlight/internal/transport"
)

const (
	meters      = 4
	windows     = 10 // aggregation windows per meter
	readingsPer = 30
)

func main() {
	ctx := context.Background()
	mem := provlight.NewMemoryTarget()
	server, err := provlight.StartServer(ctx, provlight.ServerConfig{
		Addr:    "127.0.0.1:0",
		Targets: []provlight.Target{mem},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer server.Close()

	done := make(chan *core.Client, meters)
	for m := 0; m < meters; m++ {
		go func(m int) {
			// Shape this meter's uplink: 25 Kbit/s, 11.5 ms one-way.
			uplink := netem.WrapTransport(transport.UDP{}, netem.Profile{
				BandwidthBps: 25_000,
				Delay:        11500 * time.Microsecond,
				Seed:         int64(m + 1),
			})
			client, err := provlight.NewClient(ctx, provlight.Config{
				Broker:    server.Addr(),
				ClientID:  fmt.Sprintf("meter-%d", m),
				Transport: uplink,
				GroupSize: 5, // group ended windows to cut transmissions
			})
			if err != nil {
				log.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(m) + 7))
			wf := client.NewWorkflow(fmt.Sprintf("grid-%d", m))
			if err := wf.Begin(); err != nil {
				log.Fatal(err)
			}
			for w := 0; w < windows; w++ {
				task := wf.NewTask(fmt.Sprintf("window-%d", w), "aggregate")
				in := provlight.NewData(
					fmt.Sprintf("raw-%d-%d", m, w),
					provlight.Attrs(map[string]any{
						"readings": int64(readingsPer),
						"window_s": int64(60),
					}),
				)
				if err := task.Begin(in); err != nil {
					log.Fatal(err)
				}
				// Aggregate simulated readings.
				var sum, peak float64
				for r := 0; r < readingsPer; r++ {
					v := 230 + rng.NormFloat64()*3
					sum += v
					if v > peak {
						peak = v
					}
				}
				out := provlight.NewData(
					fmt.Sprintf("agg-%d-%d", m, w),
					provlight.Attrs(map[string]any{
						"mean_v": sum / readingsPer,
						"peak_v": peak,
					}),
				).DerivedFrom(in.ID())
				if err := task.End(out); err != nil {
					log.Fatal(err)
				}
			}
			if err := wf.End(); err != nil {
				log.Fatal(err)
			}
			done <- client
		}(m)
	}

	var clients []*core.Client
	for m := 0; m < meters; m++ {
		clients = append(clients, <-done)
	}
	want := meters * (2 + 2*windows)
	deadline := time.Now().Add(30 * time.Second)
	for mem.Len() < want {
		if time.Now().After(deadline) {
			log.Fatalf("pipeline drained %d/%d records", mem.Len(), want)
		}
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Printf("received %d provenance records from %d meters over a 25 Kbit/s uplink\n\n", mem.Len(), meters)
	for i, c := range clients {
		st := c.StatsSnapshot()
		fmt.Printf("meter-%d: %d records -> %d frames (%d grouped records), %d wire bytes\n",
			i, st.RecordsCaptured, st.FramesPublished, st.RecordsGrouped, st.BytesPublished)
		// The slow emulated uplink can hold frames in flight: drain each
		// meter under a deadline instead of waiting forever.
		closeCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
		if err := c.Shutdown(closeCtx); err != nil {
			log.Printf("meter-%d: shutdown: %v", i, err)
		}
		cancel()
	}
	fmt.Println("\ngrouping ships 5 ended windows per frame: begin events stay immediate,")
	fmt.Println("so the cloud can still track which windows have started (paper §IV-C2).")
}

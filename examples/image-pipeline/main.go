// Image-pipeline: chained pre-processing transformations with full data
// lineage, exported as a W3C PROV-JSON document.
//
// A single edge camera node runs decode -> resize -> normalize -> infer
// over a batch of frames; every stage's outputs are derived from the
// previous stage's data, so the resulting PROV document contains the
// complete wasDerivedFrom chain (the "Where did the data come from? How
// was it transformed?" questions of §IV-A).
//
// Run with: go run ./examples/image-pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"github.com/provlight/provlight"
)

const frames = 6

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

	client, err := provlight.NewClient(ctx, provlight.Config{
		Broker:   server.Addr(),
		ClientID: "camera-7",
	})
	if err != nil {
		log.Fatal(err)
	}

	stages := []string{"decode", "resize", "normalize", "infer"}
	rng := rand.New(rand.NewSource(7))

	wf := client.NewWorkflow("vision-batch-42")
	if err := wf.Begin(); err != nil {
		log.Fatal(err)
	}
	var prevTask *provlight.Task
	for f := 0; f < frames; f++ {
		prevData := fmt.Sprintf("jpeg-%d", f) // the raw camera frame
		for s, stage := range stages {
			task := wf.NewTask(fmt.Sprintf("%s-%d", stage, f), stage, prevTask)
			in := provlight.NewData(prevData, provlight.Attrs(map[string]any{
				"stage": stage, "frame": int64(f),
			}))
			if err := task.Begin(in); err != nil {
				log.Fatal(err)
			}
			outID := fmt.Sprintf("%s-out-%d", stage, f)
			attrs := map[string]any{"frame": int64(f)}
			if stage == "infer" {
				attrs["label"] = []string{"cat", "dog", "truck"}[rng.Intn(3)]
				attrs["confidence"] = 0.7 + 0.3*rng.Float64()
			} else {
				attrs["bytes"] = int64(1 << (20 - s)) // each stage shrinks the data
			}
			out := provlight.NewData(outID, provlight.Attrs(attrs)).DerivedFrom(prevData)
			if err := task.End(out); err != nil {
				log.Fatal(err)
			}
			prevData = outID
			prevTask = task
		}
	}
	if err := wf.End(); err != nil {
		log.Fatal(err)
	}
	want := 2 + 2*frames*len(stages)
	for mem.Len() < want {
		time.Sleep(10 * time.Millisecond)
	}
	if err := client.Close(); err != nil {
		log.Fatal(err)
	}
	server.Drain()

	doc, err := mem.Document()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline captured: %d PROV elements, %d relations\n",
		len(doc.Elements), len(doc.Relations))

	out, err := os.CreateTemp("", "image-pipeline-*.provjson")
	if err != nil {
		log.Fatal(err)
	}
	n, err := mem.WriteTo(out)
	if err != nil {
		log.Fatal(err)
	}
	out.Close()
	fmt.Printf("wrote %d bytes of PROV-JSON to %s\n", n, out.Name())
	fmt.Println("\nlineage of the last inference (wasDerivedFrom chain):")
	fmt.Printf("  infer-out-%d <- normalize-out-%d <- resize-out-%d <- decode-out-%d <- jpeg-%d\n",
		frames-1, frames-1, frames-1, frames-1, frames-1)
}

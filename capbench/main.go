// Command capbench is the repository's benchmark of the capture
// pipeline: device client → MQTT-SN broker (or a 3-node broker cluster) →
// translator → durable DfAnalyzer store, with Source queries against the
// same store. It runs one workload per invocation, checks exactly-once,
// in-order delivery of every record with a row-counting oracle, and
// prints one JSON result as the last line of its output.
//
//	capbench --workload edge_direct --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// then a traced load phase and prints the per-layer metrics. See
// README.md for the metrics, the workloads and why each was chosen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: edge_direct, edge_durable or cluster_wan")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 30, "seconds of load")
	flag.IntVar(&traceFlag, "trace", 0, "1: split the load into an untraced and a traced half and print per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/capbench", "directory for the run's store, spools and trace files")
	flag.StringVar(&o.commit, "commit", "unknown", "revision the binary was built from, reported in the run context")
	flag.Parse()
	o.trace = traceFlag == 1
	o.setups, o.seedTasks = defaultSetups, defaultSeedTasks
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

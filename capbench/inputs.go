package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/source"
	"github.com/provlight/provlight/internal/workload"
)

// numDevices is the device session count of every workload.
const numDevices = 2

// dataflow is the dataflow tag the store target files records under.
const dataflow = "capbench"

// tasksPerWorkflow follows the paper's reference workload (100 tasks
// spread over 5 chained transformations, Listing 1).
const tasksPerWorkflow = 100

// spec is one benchmark workload.
type spec struct {
	name  string
	attrs int // bytes in each in/out attribute vector
	// spooled devices use the disk spool with end-to-end acks.
	spooled bool
	// cluster runs a 3-node broker cluster behind 25 ms device uplinks.
	cluster bool
	// rate is the open-loop capture rate over both devices in records/s;
	// 0 means closed loop with outstanding records in flight per device.
	rate        float64
	outstanding int
	queryRate   float64
}

// defaultSeedTasks sizes the pre-seeded store: large against what a run
// adds, so that per-record cost does not depend on the run's length.
const defaultSeedTasks = 20000

var specs = []spec{
	{name: "edge_direct", attrs: 100, rate: 2000, queryRate: 10},
	{name: "edge_durable", attrs: 10, spooled: true, rate: 1500, queryRate: 150},
	{name: "cluster_wan", attrs: 100, spooled: true, cluster: true, outstanding: 32, queryRate: 10},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Query kinds of the read mix.
const (
	qTopK = iota
	qScan
	qTask
	qWorkflows
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"topk", "scan", "task", "workflows"}

// queryMix weighs the query kinds. Sorted by latency the kinds run
// workflows < task < topk < scan, so with these weights the median of the
// mix falls inside the top-k queries rather than between two kinds.
var queryMix = [numQueryKinds]int{4, 2, 1, 1}

// query is one prepared Source call.
type query struct {
	kind int
	sel  source.Query // qTopK, qScan
	task string       // qTask
}

// inputs is everything a run feeds the program, built from the seed
// before any timing starts.
type inputs struct {
	// recs[d] is device d's capture stream in capture order: whole
	// workflows of tasksPerWorkflow tasks.
	recs [numDevices][]provdm.Record
	// warm[k][d] is the warm-up record device d captures in the k-th
	// start of the pipeline.
	warm    [][numDevices]provdm.Record
	queries []query
}

// shape is the Listing 1 workload with the attribute count of a spec.
func shape(attrs int) workload.Config {
	return workload.Config{
		ChainedTransformations: 5,
		Tasks:                  tasksPerWorkflow,
		AttributesPerTask:      attrs,
		TaskDuration:           500 * time.Millisecond,
	}
}

// baseTime anchors record timestamps so that inputs do not depend on the
// wall clock.
var baseTime = time.Unix(1_700_000_000, 0)

// workflowRecords returns one workflow's records with attribute vectors
// drawn from rng (small integers, as Listing 1's lists) and an accuracy
// attribute on every task end, which the read mix sorts and scans on.
func workflowRecords(cfg workload.Config, id string, rng *rand.Rand) []provdm.Record {
	recs := cfg.Records(id, baseTime)
	for i := range recs {
		r := &recs[i]
		for j := range r.Data {
			d := &r.Data[j]
			vec := make([]byte, cfg.AttributesPerTask)
			for k := range vec {
				vec[k] = byte(rng.Intn(10))
			}
			attrs := []provdm.Attribute{{Name: d.Attributes[0].Name, Value: vec}}
			if r.Event == provdm.EventTaskEnd {
				attrs = append(attrs, provdm.Attribute{Name: "accuracy", Value: rng.Float64()})
			}
			d.Attributes = attrs
		}
	}
	return recs
}

// seedWorkflowID names the pre-seeded workflows; their task ids are what
// task lookups ask for.
func seedWorkflowID(j int) string { return fmt.Sprintf("seed-w%05d", j) }

// buildInputs makes the capture streams, warm-up records and the query
// list. perDevice is the minimum number of records per device; starts is
// how many times the pipeline is started.
func buildInputs(s spec, seed int64, perDevice, starts, queries, seedTasks int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	cfg := shape(s.attrs)
	in := &inputs{}
	for d := 0; d < numDevices; d++ {
		for w := 0; len(in.recs[d]) < perDevice; w++ {
			id := fmt.Sprintf("d%d-w%05d", d, w)
			in.recs[d] = append(in.recs[d], workflowRecords(cfg, id, rng)...)
		}
	}
	in.warm = make([][numDevices]provdm.Record, starts)
	for k := range in.warm {
		for d := 0; d < numDevices; d++ {
			in.warm[k][d] = provdm.Record{
				Event:      provdm.EventWorkflowBegin,
				WorkflowID: fmt.Sprintf("warm-s%d-d%d", k, d),
				Time:       baseTime,
			}
		}
	}
	in.queries = buildQueries(rng, queries, seedTasks)
	return in
}

// buildQueries draws the read mix: top-10 by accuracy of a random output
// set, a range scan over 1 % of the accuracy domain, a task lookup of a
// random pre-seeded task, and the workflow list.
func buildQueries(rng *rand.Rand, n, seedTasks int) []query {
	total := 0
	for _, w := range queryMix {
		total += w
	}
	seedWorkflows := max(1, seedTasks/tasksPerWorkflow)
	perTransf := tasksPerWorkflow / 5
	out := make([]query, n)
	for i := range out {
		pick := rng.Intn(total)
		kind := 0
		for pick >= queryMix[kind] {
			pick -= queryMix[kind]
			kind++
		}
		q := query{kind: kind}
		set := fmt.Sprintf("transf_%d_output", rng.Intn(5))
		switch kind {
		case qTopK:
			q.sel = source.Query{Dataflow: dataflow, Set: set, Project: []string{"accuracy"},
				OrderBy: "accuracy", Desc: true, Limit: 10}
		case qScan:
			lo := rng.Float64() * 0.99
			q.sel = source.Query{Dataflow: dataflow, Set: set, Project: []string{"accuracy"},
				Where: []source.Pred{
					{Attr: "accuracy", Op: source.Ge, Value: lo},
					{Attr: "accuracy", Op: source.Lt, Value: lo + 0.01},
				}}
		case qTask:
			tr := rng.Intn(5)
			q.task = fmt.Sprintf("%s/%d_%d", seedWorkflowID(rng.Intn(seedWorkflows)), tr, rng.Intn(perTransf))
		}
		out[i] = q
	}
	return out
}

package main

import (
	"context"
	"fmt"
	"strings"

	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/source"
)

// verdict is the correctness oracle's finding for one run. It counts what
// a user would query — rows per set — not the store's dedup bookkeeping,
// which cannot see a frame applied twice.
type verdict struct {
	expectedRows int
	rows         int
	lost         int // expected rows missing
	extra        int // rows beyond those expected (applied twice)
	dupIDs       int // task ids with more than one row in a set
	reordered    int // rows of a workflow out of capture order
	problems     []string
}

func (v *verdict) violations() int { return v.lost + v.extra + v.dupIDs + v.reordered }

func (v *verdict) notef(format string, args ...any) {
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// setOf is the store set a task record's data lands in.
func setOf(r *provdm.Record) (string, bool) {
	switch r.Event {
	case provdm.EventTaskBegin:
		return r.Transformation + "_input", len(r.Data) > 0
	case provdm.EventTaskEnd:
		return r.Transformation + "_output", len(r.Data) > 0
	}
	return "", false
}

// checkStore compares the store's rows with what was seeded and what the
// devices captured successfully: every captured record is one row in its
// set, no task id has two rows in a set, and each workflow's rows keep
// capture order.
func checkStore(ctx context.Context, st *runState) (*verdict, error) {
	v := &verdict{}
	want := map[string]int{}
	// Seeded workflows all have the same shape.
	proto := shape(st.s.attrs).Records("proto", baseTime)
	for i := range proto {
		if set, ok := setOf(&proto[i]); ok {
			want[set] += st.seedTasks / tasksPerWorkflow
		}
	}
	// order maps a captured task id to its capture position.
	order := map[string]int{}
	for d := range st.in.recs {
		failed := map[int]bool{}
		for _, i := range st.failed[d] {
			failed[i] = true
		}
		for i, r := range st.in.recs[d][:st.next[d]] {
			set, ok := setOf(&r)
			if !ok || failed[i] {
				continue
			}
			want[set]++
			order[r.WorkflowID+"/"+r.TaskID] = i
		}
	}
	for set, n := range want {
		v.expectedRows += n
		rows, err := st.p.store.Select(ctx, source.Query{Dataflow: dataflow, Set: set, Project: []string{"task_id"}})
		if err != nil {
			return nil, fmt.Errorf("oracle: select %s: %w", set, err)
		}
		v.rows += len(rows)
		if len(rows) < n {
			v.lost += n - len(rows)
			v.notef("set %s: %d rows, want %d", set, len(rows), n)
		} else if len(rows) > n {
			v.extra += len(rows) - n
			v.notef("set %s: %d rows, want %d (applied twice)", set, len(rows), n)
		}
		seen := make(map[string]bool, len(rows))
		last := map[string]int{}
		for _, row := range rows {
			id, _ := row["task_id"].(string)
			if seen[id] {
				v.dupIDs++
				v.notef("set %s: task %s has two rows", set, id)
				continue
			}
			seen[id] = true
			pos, ok := order[id]
			if !ok {
				continue
			}
			wf, _, _ := strings.Cut(id, "/")
			if prev, ok := last[wf]; ok && pos < prev {
				v.reordered++
				v.notef("set %s: task %s applied out of capture order", set, id)
			}
			last[wf] = pos
		}
	}
	return v, nil
}

package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/provdm"
)

// This file provides the user-facing instrumentation API of Listing 1:
//
//	wf := client.NewWorkflow("1")
//	wf.Begin()
//	task := wf.NewTask("t1", "training", prevTask)
//	task.Begin(core.NewData("in1", core.Attrs(map[string]any{...})))
//	... task work ...
//	task.End(core.NewData("out1", attrs).DerivedFrom("in1"))
//	wf.End()

// Workflow is the PROV-DM Agent of the exchange model: the application
// workflow provenance is captured for.
type Workflow struct {
	client *Client
	id     string
	began  atomic.Bool
	ended  atomic.Bool
}

// NewWorkflow creates a workflow handle with the given id.
func (c *Client) NewWorkflow(id string) *Workflow {
	return &Workflow{client: c, id: id}
}

// ID returns the workflow id.
func (w *Workflow) ID() string { return w.id }

// Begin captures the workflow start event.
func (w *Workflow) Begin() error {
	if !w.began.CompareAndSwap(false, true) {
		return fmt.Errorf("provlight: workflow %s already began", w.id)
	}
	err := w.client.Capture(&provdm.Record{
		Event:      provdm.EventWorkflowBegin,
		WorkflowID: w.id,
		Time:       time.Now(),
	})
	if err != nil {
		w.began.Store(false) // retryable, e.g. after ErrQueueFull
	}
	return err
}

// End captures the workflow end event, which cuts the group buffer (if
// any) in both modes. It does not wait for delivery: waiting out an outage
// or a partition is Flush/Shutdown's job, not the workload's.
func (w *Workflow) End() error {
	if !w.ended.CompareAndSwap(false, true) {
		return fmt.Errorf("provlight: workflow %s already ended", w.id)
	}
	err := w.client.Capture(&provdm.Record{
		Event:      provdm.EventWorkflowEnd,
		WorkflowID: w.id,
		Time:       time.Now(),
	})
	if err != nil {
		w.ended.Store(false) // retryable, e.g. after ErrQueueFull
	}
	return err
}

// Task is the PROV-DM Activity of the exchange model: one processing step
// (e.g. a training epoch).
type Task struct {
	workflow       *Workflow
	id             string
	transformation string
	deps           []string
	began          atomic.Bool
	ended          atomic.Bool
}

// NewTask creates a task belonging to this workflow. transformation names
// the processing step type; deps are tasks that must precede this one
// (wasInformedBy).
func (w *Workflow) NewTask(id, transformation string, deps ...*Task) *Task {
	t := &Task{workflow: w, id: id, transformation: transformation}
	for _, d := range deps {
		if d != nil {
			t.deps = append(t.deps, d.id)
		}
	}
	return t
}

// ID returns the task id.
func (t *Task) ID() string { return t.id }

// Begin captures the task start together with its input data derivations
// (used relations). A failed capture (e.g. ErrQueueFull under
// backpressure) leaves the task un-begun, so the call is retryable.
func (t *Task) Begin(inputs ...*Data) error {
	if !t.began.CompareAndSwap(false, true) {
		return fmt.Errorf("provlight: task %s already began", t.id)
	}
	err := t.workflow.client.Capture(&provdm.Record{
		Event:          provdm.EventTaskBegin,
		WorkflowID:     t.workflow.id,
		TaskID:         t.id,
		Transformation: t.transformation,
		Dependencies:   t.deps,
		Status:         provdm.StatusRunning,
		Data:           dataRefs(t.workflow.id, inputs),
		Time:           time.Now(),
	})
	if err != nil {
		t.began.Store(false)
	}
	return err
}

// End captures the task completion together with its generated outputs
// (wasGeneratedBy relations). Like Begin, a failed capture leaves the
// task un-ended so the call is retryable.
func (t *Task) End(outputs ...*Data) error {
	if !t.began.Load() {
		return fmt.Errorf("provlight: task %s ended before beginning", t.id)
	}
	if !t.ended.CompareAndSwap(false, true) {
		return fmt.Errorf("provlight: task %s already ended", t.id)
	}
	err := t.workflow.client.Capture(&provdm.Record{
		Event:          provdm.EventTaskEnd,
		WorkflowID:     t.workflow.id,
		TaskID:         t.id,
		Transformation: t.transformation,
		Status:         provdm.StatusFinished,
		Data:           dataRefs(t.workflow.id, outputs),
		Time:           time.Now(),
	})
	if err != nil {
		t.ended.Store(false)
	}
	return err
}

// Data is the PROV-DM Entity of the exchange model: input parameters or
// output values with optional derivation links.
type Data struct {
	id          string
	attributes  []provdm.Attribute
	derivations []string
}

// NewData creates a data handle with ordered attributes.
func NewData(id string, attributes []provdm.Attribute) *Data {
	return &Data{id: id, attributes: attributes}
}

// DerivedFrom links this data to the ids it was derived from
// (wasDerivedFrom) and returns the handle for chaining.
func (d *Data) DerivedFrom(ids ...string) *Data {
	d.derivations = append(d.derivations, ids...)
	return d
}

// ID returns the data id.
func (d *Data) ID() string { return d.id }

func dataRefs(workflowID string, data []*Data) []provdm.DataRef {
	if len(data) == 0 {
		return nil
	}
	out := make([]provdm.DataRef, 0, len(data))
	for _, d := range data {
		if d == nil {
			continue
		}
		out = append(out, provdm.DataRef{
			ID:          d.id,
			WorkflowID:  workflowID,
			Derivations: d.derivations,
			Attributes:  d.attributes,
		})
	}
	return out
}

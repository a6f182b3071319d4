package translate

import (
	"context"
	"io"
	"sync"
	"sync/atomic"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/provlake"
	"github.com/provlight/provlight/internal/source"
)

// schemaSync is the schema-registration contract of every target that
// feeds a DfAnalyzer-model store: each batch is folded into a
// SchemaTracker, the spec is (re-)registered only when it grew, and the
// dirty flag is cleared only after a registration succeeds, so a failed
// attempt (e.g. server briefly down) is retried on the next batch instead
// of leaving the dataflow unregistered forever. register runs under the
// lock, so a parallel worker observing an already-tracked attribute cannot
// send tasks for it before the grown spec reaches the store.
type schemaSync struct {
	mu      sync.Mutex
	tracker *dfanalyzer.SchemaTracker
	dirty   bool
}

func newSchemaSync(dataflow string) *schemaSync {
	return &schemaSync{tracker: dfanalyzer.NewSchemaTracker(dataflow)}
}

// sync observes the frames' records and registers the spec if needed.
func (s *schemaSync) sync(frames []Frame, register func(*dfanalyzer.Dataflow) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range frames {
		if s.tracker.Observe(frames[i].Records) {
			s.dirty = true
		}
	}
	if !s.dirty {
		return nil
	}
	if err := register(s.tracker.Dataflow()); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// DefaultMemoryDataflow is the dataflow tag MemoryTarget exposes its
// records under through the Source interface when none is chosen.
const DefaultMemoryDataflow = "provlight"

// MemoryTarget accumulates records in memory (tests, queries, examples)
// and exports them as a W3C PROV-JSON document (Document, WriteTo) for
// interoperability with PROV-based tools.
//
// It doubles as a source.Source: delivered records are folded on demand
// into an internal DfAnalyzer column-store view (the same translation the
// DfAnalyzer target performs: incremental schema tracking, task-id
// namespacing by workflow), so Select/Task/Workflows against a
// MemoryTarget return exactly what the same query would return against a
// DfAnalyzer backend fed the same record stream.
type MemoryTarget struct {
	mu      sync.Mutex
	records []provdm.Record

	// Lazy Source view: records[:viewLen] have been folded into view.
	dataflow string
	view     *dfanalyzer.Store
	schema   *schemaSync
	viewLen  int
}

// MemoryTarget implements the backend-agnostic read interface.
var _ source.Source = (*MemoryTarget)(nil)

// NewMemoryTarget returns an empty in-memory target exposing its records
// under the dataflow tag DefaultMemoryDataflow.
func NewMemoryTarget() *MemoryTarget { return NewMemoryTargetForDataflow(DefaultMemoryDataflow) }

// NewMemoryTargetForDataflow returns an empty in-memory target exposing
// its records under the given dataflow tag (use the tag of the DfAnalyzer
// target it runs alongside to make queries portable between the two).
func NewMemoryTargetForDataflow(tag string) *MemoryTarget {
	return &MemoryTarget{
		dataflow: tag,
		view:     dfanalyzer.NewStore(),
		schema:   newSchemaSync(tag),
	}
}

// Name implements Target.
func (*MemoryTarget) Name() string { return "memory" }

// DeliverFrames implements Target: one lock acquisition per batch.
func (m *MemoryTarget) DeliverFrames(frames []Frame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range frames {
		m.records = append(m.records, frames[i].Records...)
	}
	return nil
}

// Records returns a copy of everything delivered so far.
func (m *MemoryTarget) Records() []provdm.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]provdm.Record(nil), m.records...)
}

// Len returns the number of delivered records.
func (m *MemoryTarget) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}

// Document builds the PROV-DM document of everything delivered so far.
func (m *MemoryTarget) Document() (*provdm.Document, error) {
	return provdm.BuildDocument(m.Records())
}

// WriteTo serializes the delivered records as a PROV-JSON document.
func (m *MemoryTarget) WriteTo(w io.Writer) (int64, error) {
	doc, err := m.Document()
	if err != nil {
		return 0, err
	}
	data, err := provdm.MarshalPROVJSON(doc)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// syncView folds records delivered since the last read into the column
// store view, as DfAnalyzerTarget.DeliverFrames does: sync the schema,
// then ingest the translated task messages. Callers must hold m.mu.
func (m *MemoryTarget) syncView() error {
	if m.viewLen == len(m.records) {
		return nil
	}
	if err := m.schema.sync([]Frame{{Records: m.records[m.viewLen:]}}, m.view.RegisterDataflow); err != nil {
		return err // retried on the next read
	}
	for ; m.viewLen < len(m.records); m.viewLen++ {
		if msg, ok := dfanalyzer.RecordToTaskMsg(m.dataflow, &m.records[m.viewLen]); ok {
			// A record the view cannot ingest (e.g. an attribute whose
			// type flipped mid-stream) is skipped, so one bad record
			// cannot wedge the read side forever.
			_ = m.view.IngestTask(msg)
		}
	}
	return nil
}

// sourceView returns the up-to-date column store view.
func (m *MemoryTarget) sourceView() (*dfanalyzer.Store, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.syncView(); err != nil {
		return nil, err
	}
	return m.view, nil
}

// Select implements source.Source over the delivered records.
func (m *MemoryTarget) Select(ctx context.Context, q source.Query) ([]source.Row, error) {
	view, err := m.sourceView()
	if err != nil {
		return nil, err
	}
	return view.Select(ctx, q)
}

// Task implements source.Source. Task ids are namespaced by workflow
// ("workflowID/taskID"), exactly as the DfAnalyzer target namespaces them.
func (m *MemoryTarget) Task(ctx context.Context, dataflow, id string) (*source.TaskInfo, error) {
	view, err := m.sourceView()
	if err != nil {
		return nil, err
	}
	return view.Task(ctx, dataflow, id)
}

// Tasks implements source.Source: the whole task catalog of the view.
func (m *MemoryTarget) Tasks(ctx context.Context, dataflow string) ([]source.TaskInfo, error) {
	view, err := m.sourceView()
	if err != nil {
		return nil, err
	}
	return view.Tasks(ctx, dataflow)
}

// Workflows implements source.Source: the dataflow tags records are
// exposed under ([the target's tag] once any task record arrived).
func (m *MemoryTarget) Workflows(ctx context.Context) ([]string, error) {
	view, err := m.sourceView()
	if err != nil {
		return nil, err
	}
	return view.Workflows(ctx)
}

// DfAnalyzerTarget translates records into DfAnalyzer task messages
// (paper §V: "ProvLight translates the captured data to the DfAnalyzer
// data model"). The dataflow specification is tracked incrementally: new
// records only touch the per-set attribute maps, and the spec is
// re-registered only when it actually grew, so the target's memory is
// bounded by the schema size rather than the record count.
type DfAnalyzerTarget struct {
	client   *dfanalyzer.Client
	dataflow string
	schema   *schemaSync
}

// NewDfAnalyzerTarget creates a target for the given DfAnalyzer server
// client and dataflow tag.
func NewDfAnalyzerTarget(client *dfanalyzer.Client, dataflow string) *DfAnalyzerTarget {
	return &DfAnalyzerTarget{client: client, dataflow: dataflow, schema: newSchemaSync(dataflow)}
}

// Name implements Target.
func (*DfAnalyzerTarget) Name() string { return "dfanalyzer" }

// DeliverFrames implements Target with one HTTP round trip per batch, to
// POST /frames: the server deduplicates frames with a durable id by
// (origin, seq) and applies the rest as they come.
func (d *DfAnalyzerTarget) DeliverFrames(frames []Frame) error {
	if err := d.schema.sync(frames, d.client.RegisterDataflow); err != nil {
		return err
	}
	return d.client.SendFrames(frameMsgs(d.dataflow, frames))
}

// committedTerm is the client's stamped term. After a delivered batch it
// is the term the server committed it under: a server commits a stamped
// term only when it is its own, and a client stamping none adopts the
// committing server's term from the answer.
func (d *DfAnalyzerTarget) committedTerm() uint64 { return d.client.Term() }

// frameMsgs translates frames into the store's ingestion shape. Frames
// whose records produce no task messages (pure workflow lifecycle events)
// still yield an — empty — FrameMsg: the store must mark identified ones
// applied or they would be redelivered forever.
func frameMsgs(dataflow string, frames []Frame) []dfanalyzer.FrameMsg {
	out := make([]dfanalyzer.FrameMsg, 0, len(frames))
	for i := range frames {
		f := &frames[i]
		fm := dfanalyzer.FrameMsg{Origin: f.Origin, Seq: f.Seq}
		for j := range f.Records {
			if msg, ok := dfanalyzer.RecordToTaskMsg(dataflow, &f.Records[j]); ok {
				fm.Tasks = append(fm.Tasks, msg)
			}
		}
		out = append(out, fm)
	}
	return out
}

// StoreTarget delivers records straight into a local dfanalyzer.Store —
// the in-process counterpart of DfAnalyzerTarget, and the building block
// of a durable standalone translator (provlight-translate -data-dir):
// paired with a store from OpenStore, every delivered frame is
// write-ahead logged, deduplicated by its durable id, and recovered on
// restart.
type StoreTarget struct {
	store    *dfanalyzer.Store
	dataflow string
	schema   *schemaSync
	// committed is the term the store committed the last batch under.
	committed atomic.Uint64
}

// NewStoreTarget creates a target that ingests into store under the given
// dataflow tag.
func NewStoreTarget(store *dfanalyzer.Store, dataflow string) *StoreTarget {
	return &StoreTarget{store: store, dataflow: dataflow, schema: newSchemaSync(dataflow)}
}

// Store returns the backing store (for queries and snapshots).
func (s *StoreTarget) Store() *dfanalyzer.Store { return s.store }

// Name implements Target.
func (*StoreTarget) Name() string { return "store" }

// DeliverFrames implements Target: one IngestFrames call per batch,
// deduplicated by the store. The target stamps no term: the store is its
// own, and the role check still fences it once it turns replica.
func (s *StoreTarget) DeliverFrames(frames []Frame) error {
	if err := s.schema.sync(frames, s.store.RegisterDataflow); err != nil {
		return err
	}
	_, term, err := s.store.IngestFramesTerm(0, frameMsgs(s.dataflow, frames))
	s.committed.Store(term)
	return err
}

func (s *StoreTarget) committedTerm() uint64 { return s.committed.Load() }

// ProvLakeTarget forwards records to a ProvLake manager service.
type ProvLakeTarget struct {
	client *provlake.Client
}

// NewProvLakeTarget creates a target around a ProvLake client.
func NewProvLakeTarget(client *provlake.Client) *ProvLakeTarget {
	return &ProvLakeTarget{client: client}
}

// Name implements Target.
func (*ProvLakeTarget) Name() string { return "provlake" }

// DeliverFrames implements Target: every record of the batch is tried,
// so one bad record does not drop the rest, and the first error is
// returned.
func (p *ProvLakeTarget) DeliverFrames(frames []Frame) error {
	var first error
	for i := range frames {
		for j := range frames[i].Records {
			if err := p.client.Capture(&frames[i].Records[j]); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

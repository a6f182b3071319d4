package dfanalyzer

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/provlight/provlight/internal/source"
)

// Store is the MonetDB-like backend: an in-memory column store holding one
// table per (dataflow, set) pair plus the task catalog. Storage is sharded
// by dataflow: every dataflow owns its own lock, tables, and task catalog,
// so ingestion and queries for different dataflows never contend, and
// readers of one dataflow only block on writers of the same dataflow
// (paper §IV-B1: the server components "may be parallelized to scale the
// data capture").
type Store struct {
	mu     sync.RWMutex // guards the shard map only, not shard contents
	shards map[string]*dataflowShard

	// commitMu serializes every write (fence, WAL append, apply) so that
	// replay order equals apply order, and guards the dedup table and
	// commitWait.
	commitMu sync.Mutex
	// dedup tracks applied (origin, frame seq) pairs for exactly-once
	// ingestion of redelivered spool frames. Guarded by commitMu.
	dedup *dedupTable
	// dur is the durability state (WAL + snapshots); nil for a purely
	// in-memory store from NewStore.
	dur *durability
	// repl is the replication role/term state (see replication.go).
	// Mutated under commitMu, read lock-free by the write guard.
	repl replState
	// commitWait holds writes with durable frame ids until they are
	// replicated (see SetCommitWait); nil without semi-sync replication.
	commitWait func() error
}

// dataflowShard holds everything belonging to one dataflow.
type dataflowShard struct {
	mu        sync.RWMutex
	spec      *Dataflow
	tables    map[string]*Table   // set tag -> table
	tasks     map[string]*TaskMsg // task id -> merged catalog entry
	taskOrder []string            // ids in first-ingestion order
}

// NewStore returns an empty in-memory store. For a crash-durable store
// backed by a WAL and snapshots, use OpenStore.
func NewStore() *Store {
	return &Store{shards: map[string]*dataflowShard{}, dedup: newDedupTable()}
}

// shard returns the shard for a dataflow, or nil.
func (s *Store) shard(dataflow string) *dataflowShard {
	s.mu.RLock()
	sh := s.shards[dataflow]
	s.mu.RUnlock()
	return sh
}

// ensureShard returns the shard for a dataflow, creating it if needed.
func (s *Store) ensureShard(dataflow string) *dataflowShard {
	if sh := s.shard(dataflow); sh != nil {
		return sh
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[dataflow]
	if !ok {
		sh = &dataflowShard{tables: map[string]*Table{}, tasks: map[string]*TaskMsg{}}
		s.shards[dataflow] = sh
	}
	return sh
}

// column is one typed attribute column of a table, indexed positionally by
// the set schema so the append path needs no per-element name lookups.
type column struct {
	name string
	typ  AttrType
	nums []float64 // populated when typ == Numeric
	strs []string  // populated otherwise (TEXT/FILE)
}

// Table is one columnar table: each attribute is a dense column slice.
type Table struct {
	Schema SetSchema
	cols   []column
	// taskIDs indexes each row back to the producing task.
	taskIDs []string
	rows    int
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// col returns the column named name, or nil.
func (t *Table) col(name string) *column {
	for i := range t.cols {
		if t.cols[i].name == name {
			return &t.cols[i]
		}
	}
	return nil
}

func newTable(schema SetSchema) *Table {
	t := &Table{Schema: schema, cols: make([]column, len(schema.Attributes))}
	for i, a := range schema.Attributes {
		t.cols[i] = column{name: a.Name, typ: a.Type}
	}
	return t
}

// upgrade grows an existing table to a wider schema (new attributes
// appended by an incremental spec registration): new columns are
// backfilled with zero values for rows ingested before the attribute was
// first observed.
func (t *Table) upgrade(schema SetSchema) {
	if len(schema.Attributes) <= len(t.cols) {
		return
	}
	for _, a := range schema.Attributes[len(t.cols):] {
		c := column{name: a.Name, typ: a.Type}
		if a.Type == Numeric {
			c.nums = make([]float64, t.rows)
		} else {
			c.strs = make([]string, t.rows)
		}
		t.cols = append(t.cols, c)
	}
	t.Schema = schema
}

// RegisterDataflow is RegisterDataflowTerm for an unfenced (term 0)
// writer.
func (s *Store) RegisterDataflow(df *Dataflow) error {
	return s.RegisterDataflowTerm(0, df)
}

// RegisterDataflowTerm validates and installs a dataflow spec, creating
// empty tables for every set. Re-registering a grown spec (the
// translator's incremental schema tracker does this when new attributes
// appear) widens existing tables in place. The writer's role and term are
// checked under the commit lock, as IngestFramesTerm checks them; on a
// durable store the registration is write-ahead logged before it is
// applied. A registration never waits for replication.
func (s *Store) RegisterDataflowTerm(term uint64, df *Dataflow) error {
	if err := df.Validate(); err != nil {
		return err
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.checkWriteTerm(term); err != nil {
		return err
	}
	if err := s.logOp(&walOp{Kind: opRegister, Dataflow: df}); err != nil {
		return err
	}
	s.registerDataflowApply(df)
	return s.maybeSnapshotLocked()
}

// registerDataflowApply installs a spec that RegisterDataflowTerm
// validated before it was logged.
func (s *Store) registerDataflowApply(df *Dataflow) {
	sh := s.ensureShard(df.Tag)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.spec = df
	for _, tr := range df.Transformations {
		for _, set := range append(append([]SetSchema{}, tr.Input...), tr.Output...) {
			if t, ok := sh.tables[set.Tag]; ok {
				t.upgrade(set)
				continue
			}
			sh.tables[set.Tag] = newTable(set)
		}
	}
}

// Dataflow returns a registered specification.
func (s *Store) Dataflow(tag string) (*Dataflow, bool) {
	sh := s.shard(tag)
	if sh == nil {
		return nil, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.spec, sh.spec != nil
}

// Dataflows lists registered dataflow tags, sorted.
func (s *Store) Dataflows() []string {
	s.mu.RLock()
	tags := make([]string, 0, len(s.shards))
	for tag, sh := range s.shards {
		sh.mu.RLock()
		registered := sh.spec != nil
		sh.mu.RUnlock()
		if registered {
			tags = append(tags, tag)
		}
	}
	s.mu.RUnlock()
	sort.Strings(tags)
	return tags
}

// IngestTask stores one task message as a frame without a durable id
// (see IngestFramesTerm). begin/end messages for the same task id merge.
func (s *Store) IngestTask(m *TaskMsg) error {
	return s.IngestTasks([]*TaskMsg{m})
}

// IngestTasks stores a batch of task messages as one frame without a
// durable id, through IngestFramesTerm for an unfenced (term 0) writer:
// the whole batch is validated before any of it is applied.
func (s *Store) IngestTasks(msgs []*TaskMsg) error {
	_, err := s.IngestFramesTerm(0, []FrameMsg{{Tasks: msgs}})
	return err
}

// validateBatch rejects batches the apply path would reject, so invalid
// input never reaches the WAL.
func (s *Store) validateBatch(msgs []*TaskMsg) error {
	for _, m := range msgs {
		if m == nil {
			return fmt.Errorf("dfanalyzer: nil task message in batch")
		}
		if err := m.Validate(); err != nil {
			return err
		}
		if sh := s.shard(m.Dataflow); sh == nil || !sh.registered() {
			return fmt.Errorf("dfanalyzer: unknown dataflow %q", m.Dataflow)
		}
	}
	return nil
}

// IngestFrames is IngestFramesTerm for an unfenced (term 0) writer.
func (s *Store) IngestFrames(frames []FrameMsg) (applied int, err error) {
	return s.IngestFramesTerm(0, frames)
}

// IngestFramesTerm is the store's one data write path. It ingests decoded
// capture frames with their provenance identities, deduplicating
// redeliveries: a frame whose (origin, seq) was already applied is
// skipped entirely. Returns how many frames were newly applied. Frames
// without a durable id (Seq == 0) are always applied.
//
// The writer's term is checked under the commit lock, before anything is
// logged or applied (see checkWriteTerm); term 0 skips the term check but
// not the replica-role check.
//
// With a commit wait installed (SetCommitWait), a call holding any frame
// with Seq > 0 returns only once the WAL tail is replicated, duplicates
// included, since the original write may not be replicated yet. If the
// wait fails the local apply stands and the error wraps ErrUncommitted.
// Frames without a durable id never wait: no ack rides on them.
//
// Poison frames: a frame that passes validation but still fails to apply
// (e.g. an element whose type conflicts with the schema a later
// registration grew) is dedup-marked *before* the apply, deliberately.
// Such a frame can never succeed, so redelivering it forever would wedge
// the client's spool; instead the failure surfaces once through the
// returned error (the translator counts it and withholds the batch ack),
// and the eventual redelivery is absorbed as a duplicate. WAL replay
// after a crash applies the same rule, so live and recovered stores
// agree.
func (s *Store) IngestFramesTerm(term uint64, frames []FrameMsg) (applied int, err error) {
	if err := s.checkWriteTerm(term); err != nil {
		return 0, err
	}
	for i := range frames {
		if err := s.validateBatch(frames[i].Tasks); err != nil {
			return 0, err
		}
	}
	applied, wait, err := s.commitFrames(term, frames)
	if err != nil || wait == nil {
		return applied, err
	}
	for i := range frames {
		if frames[i].Seq > 0 {
			if err := wait(); err != nil {
				return applied, fmt.Errorf("%w: %v", ErrUncommitted, err)
			}
			break
		}
	}
	return applied, nil
}

// commitFrames is IngestFramesTerm's commit section: the fence, dedup,
// WAL append and apply, under the commit lock. It returns the installed
// commit wait, which the caller runs, unless err is set, after the lock
// is released.
func (s *Store) commitFrames(term uint64, frames []FrameMsg) (applied int, wait func() error, err error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	// Re-check under the commit lock: a promotion or demotion that landed
	// between the entry check and here must fence this batch too.
	if err := s.checkWriteTerm(term); err != nil {
		return 0, nil, err
	}
	wait = s.commitWait
	fresh := make([]FrameMsg, 0, len(frames))
	for _, f := range frames {
		if f.Origin != "" && f.Seq > 0 && s.dedup.applied(f.Origin, f.Seq) {
			continue
		}
		fresh = append(fresh, f)
	}
	if len(fresh) == 0 {
		return 0, wait, nil
	}
	if err := s.logOp(&walOp{Kind: opFrames, Frames: fresh}); err != nil {
		return 0, wait, err
	}
	if applied, err = s.applyFrames(fresh); err == nil {
		err = s.maybeSnapshotLocked()
	}
	return applied, wait, err
}

// SetCommitWait installs the wait IngestFramesTerm runs, outside the
// commit lock, after a write holding a durable frame id; nil removes it.
// replica.NewServer installs one for MinSync >= 1, and Close removes it.
func (s *Store) SetCommitWait(wait func() error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.commitWait = wait
}

// applyFrames is the frame-apply path shared by live ingest and WAL
// replay, so their states cannot diverge: a frame with a durable id is
// applied only if its dedup mark is new (also within one batch); every
// frame is attempted and the first error returned. Callers hold
// s.commitMu (or own the store, during recovery).
func (s *Store) applyFrames(frames []FrameMsg) (applied int, err error) {
	for i := range frames {
		f := &frames[i]
		if f.Origin != "" && f.Seq > 0 && !s.dedup.mark(f.Origin, f.Seq) {
			continue
		}
		if aerr := s.ingestTasksApply(f.Tasks); aerr != nil {
			if err == nil {
				err = aerr
			}
			continue
		}
		applied++
	}
	return applied, err
}

// AppliedFrameCount returns how many distinct frames the store has
// applied from origin — the exactly-once ledger behind IngestFrames.
// Soak and chaos harnesses compare it against what the origin's spool
// admitted to prove no acknowledged frame was lost or double-applied.
func (s *Store) AppliedFrameCount(origin string) uint64 {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	st, ok := s.dedup.origins[origin]
	if !ok {
		return 0
	}
	return st.floor + uint64(len(st.seen))
}

// ingestTasksApply applies one frame's task messages, which validateBatch
// accepted before they were logged; applyFrames is its only caller. The
// dataflow check stays for replay: a quarantined WAL gap can lose a
// registration.
func (s *Store) ingestTasksApply(msgs []*TaskMsg) error {
	for i := 0; i < len(msgs); {
		m := msgs[i]
		sh := s.shard(m.Dataflow)
		if sh == nil || !sh.registered() {
			return fmt.Errorf("dfanalyzer: unknown dataflow %q", m.Dataflow)
		}
		// Extend over the run of consecutive messages for the same
		// dataflow so a homogeneous batch locks its shard exactly once.
		j := i + 1
		for j < len(msgs) && msgs[j].Dataflow == m.Dataflow {
			j++
		}
		sh.mu.Lock()
		for _, mm := range msgs[i:j] {
			if err := sh.ingestLocked(mm); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		sh.mu.Unlock()
		i = j
	}
	return nil
}

func (sh *dataflowShard) registered() bool {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.spec != nil
}

func (sh *dataflowShard) ingestLocked(m *TaskMsg) error {
	if existing, ok := sh.tasks[m.ID]; ok {
		existing.Status = m.Status
		if m.EndTime != nil {
			existing.EndTime = inUTC(m.EndTime)
		}
		if m.StartTime != nil && existing.StartTime == nil {
			existing.StartTime = inUTC(m.StartTime)
		}
		// Merge dependencies without duplicating edges already recorded
		// (begin and end messages usually repeat the same list).
		for _, dep := range m.Dependencies {
			if !containsStr(existing.Dependencies, dep) {
				existing.Dependencies = append(existing.Dependencies, dep)
			}
		}
	} else {
		cp := *m
		cp.Sets = nil
		cp.StartTime, cp.EndTime = inUTC(m.StartTime), inUTC(m.EndTime)
		sh.tasks[m.ID] = &cp
		sh.taskOrder = append(sh.taskOrder, m.ID)
	}
	for _, set := range m.Sets {
		table, ok := sh.tables[set.Tag]
		if !ok {
			return fmt.Errorf("dfanalyzer: unknown set %q in dataflow %q", set.Tag, m.Dataflow)
		}
		if err := table.appendElements(m.ID, set.Elements); err != nil {
			return err
		}
	}
	return nil
}

// inUTC returns t in UTC, the zone the store keeps every time in: the log
// records instants, so only a UTC time reads back the same after replay.
func inUTC(t *time.Time) *time.Time {
	if t == nil || t.Location() == time.UTC {
		return t
	}
	u := t.UTC()
	return &u
}

// appendElements bulk-appends rows: columns are resolved positionally, so
// the inner loop touches slices only. An element that fails part way is
// taken back out of the columns it reached, so every column keeps exactly
// one value per row.
func (t *Table) appendElements(taskID string, elements []Element) error {
	for _, el := range elements {
		if len(el) != len(t.cols) {
			return fmt.Errorf("dfanalyzer: element arity %d != schema %d for set %q",
				len(el), len(t.cols), t.Schema.Tag)
		}
		for i := range t.cols {
			c := &t.cols[i]
			if c.typ == Numeric {
				f, ok := toFloat(el[i])
				if !ok {
					for j := range t.cols[:i] {
						if p := &t.cols[j]; p.typ == Numeric {
							p.nums = p.nums[:t.rows]
						} else {
							p.strs = p.strs[:t.rows]
						}
					}
					return fmt.Errorf("dfanalyzer: attribute %q expects numeric, got %T", c.name, el[i])
				}
				c.nums = append(c.nums, f)
			} else {
				c.strs = append(c.strs, toText(el[i]))
			}
		}
		t.taskIDs = append(t.taskIDs, taskID)
		t.rows++
	}
	return nil
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	case float32:
		return float64(x), true
	default:
		return 0, false
	}
}

// toText renders a text/file attribute value without the fmt machinery for
// the overwhelmingly common string case.
func toText(v any) string {
	if s, ok := v.(string); ok {
		return s
	}
	return fmt.Sprint(v)
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TaskEntry returns the native catalog entry for a task id. The returned
// message is shared with the store; treat it as read-only. Most callers
// want Task, the backend-agnostic Source accessor, instead.
func (s *Store) TaskEntry(dataflow, id string) (*TaskMsg, bool) {
	sh := s.shard(dataflow)
	if sh == nil {
		return nil, false
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, ok := sh.tasks[id]
	return t, ok
}

// Task implements source.Source: the catalog entry for one task id as a
// backend-agnostic TaskInfo, copied out under the shard lock.
func (s *Store) Task(ctx context.Context, dataflow, id string) (*source.TaskInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := s.shard(dataflow)
	if sh == nil {
		return nil, fmt.Errorf("dfanalyzer: dataflow %q: %w", dataflow, source.ErrNotFound)
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t, ok := sh.tasks[id]
	if !ok {
		return nil, fmt.Errorf("dfanalyzer: task %q in dataflow %q: %w", id, dataflow, source.ErrNotFound)
	}
	return taskInfo(t), nil
}

// taskInfo copies a catalog entry into the Source task shape. Callers must
// hold the shard lock (or own the message).
func taskInfo(t *TaskMsg) *source.TaskInfo {
	info := &source.TaskInfo{
		ID:             t.ID,
		Transformation: t.Transformation,
		Status:         string(t.Status),
		Dependencies:   append([]string(nil), t.Dependencies...),
	}
	if t.StartTime != nil {
		ts := *t.StartTime
		info.StartTime = &ts
	}
	if t.EndTime != nil {
		ts := *t.EndTime
		info.EndTime = &ts
	}
	return info
}

// Workflows implements source.Source: the registered dataflow tags.
func (s *Store) Workflows(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Dataflows(), nil
}

// Tasks implements source.Source: all task entries of a dataflow in
// ingestion order, copied out under the shard lock.
func (s *Store) Tasks(ctx context.Context, dataflow string) ([]source.TaskInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := s.shard(dataflow)
	if sh == nil {
		return nil, nil
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]source.TaskInfo, 0, len(sh.taskOrder))
	for _, id := range sh.taskOrder {
		out = append(out, *taskInfo(sh.tasks[id]))
	}
	return out, nil
}

// TaskCount returns the number of distinct tasks ingested for a dataflow.
func (s *Store) TaskCount(dataflow string) int {
	sh := s.shard(dataflow)
	if sh == nil {
		return 0
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.taskOrder)
}

// The query vocabulary is the shared Source vocabulary: aliases keep the
// historical dfanalyzer.Query/Row/Pred names (and their JSON wire shapes)
// pointing at the one canonical definition in internal/source.
type (
	// Op is a comparison operator in a query predicate.
	Op = source.Op
	// Pred filters rows on one attribute.
	Pred = source.Pred
	// Query selects rows from one set of a dataflow.
	Query = source.Query
	// Row is one query result plus the producing "task_id".
	Row = source.Row
)

// Predicate operators.
const (
	Eq = source.Eq
	Ne = source.Ne
	Lt = source.Lt
	Le = source.Le
	Gt = source.Gt
	Ge = source.Ge
)

// Store implements the backend-agnostic read interface.
var _ source.Source = (*Store)(nil)

// Select runs a query against the store, implementing source.Source.
// Predicates are evaluated column at a time over the typed column slices
// (the predicate value is converted once per query, not once per row), and
// OrderBy+Limit queries keep a bounded top-k heap instead of sorting every
// match.
func (s *Store) Select(ctx context.Context, q Query) ([]Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sh := s.shard(q.Dataflow)
	if sh == nil {
		return nil, fmt.Errorf("dfanalyzer: unknown set %q in dataflow %q", q.Set, q.Dataflow)
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	table, ok := sh.tables[q.Set]
	if !ok {
		return nil, fmt.Errorf("dfanalyzer: unknown set %q in dataflow %q", q.Set, q.Dataflow)
	}
	for _, p := range q.Where {
		if table.col(p.Attr) == nil {
			return nil, fmt.Errorf("dfanalyzer: unknown attribute %q", p.Attr)
		}
	}
	var orderCol *column
	if q.OrderBy != "" {
		if orderCol = table.col(q.OrderBy); orderCol == nil {
			return nil, fmt.Errorf("dfanalyzer: unknown order attribute %q", q.OrderBy)
		}
	}
	// Resolve projected columns once; nil means the task_id pseudo-column.
	var project []*column
	var projectNames []string
	if len(q.Project) == 0 {
		for i := range table.cols {
			project = append(project, &table.cols[i])
			projectNames = append(projectNames, table.cols[i].name)
		}
	} else {
		for _, name := range q.Project {
			c := table.col(name)
			if c == nil && name != "task_id" {
				return nil, fmt.Errorf("dfanalyzer: unknown projected attribute %q", name)
			}
			if c != nil {
				project = append(project, c)
				projectNames = append(projectNames, name)
			}
		}
	}

	matches := table.filter(q.Where)
	if orderCol != nil {
		if q.Limit > 0 && q.Limit < len(matches) {
			matches = topK(matches, orderCol, q.Desc, q.Limit)
		} else {
			sortMatches(matches, orderCol, q.Desc)
		}
	}
	if q.Limit > 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	rows := make([]Row, 0, len(matches))
	for _, i := range matches {
		row := make(Row, len(project)+1)
		row["task_id"] = table.taskIDs[i]
		for p, c := range project {
			if c.typ == Numeric {
				row[projectNames[p]] = c.nums[i]
			} else {
				row[projectNames[p]] = c.strs[i]
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// filter returns the indices of rows satisfying every predicate. The first
// predicate scans its column; the rest narrow the selection vector in
// place, so each predicate touches exactly one column.
func (t *Table) filter(preds []Pred) []int {
	if len(preds) == 0 {
		all := make([]int, t.rows)
		for i := range all {
			all[i] = i
		}
		return all
	}
	matches := t.col(preds[0].Attr).scan(preds[0], nil)
	for _, p := range preds[1:] {
		if len(matches) == 0 {
			break
		}
		matches = t.col(p.Attr).scan(p, matches)
	}
	return matches
}

// scan evaluates one predicate over the column. With sel == nil it scans
// every row and returns the matching indices; otherwise it filters sel in
// place.
func (c *column) scan(p Pred, sel []int) []int {
	if c.typ == Numeric {
		want, ok := toFloat(p.Value)
		if !ok {
			return sel[:0] // non-numeric comparison value matches nothing
		}
		cmp := func(v float64) bool { return cmpOrdered(v, want, p.Op) }
		if sel == nil {
			out := make([]int, 0, len(c.nums))
			for i, v := range c.nums {
				if cmp(v) {
					out = append(out, i)
				}
			}
			return out
		}
		out := sel[:0]
		for _, i := range sel {
			if cmp(c.nums[i]) {
				out = append(out, i)
			}
		}
		return out
	}
	want := toText(p.Value)
	cmp := func(v string) bool { return cmpOrdered(v, want, p.Op) }
	if sel == nil {
		out := make([]int, 0, len(c.strs))
		for i, v := range c.strs {
			if cmp(v) {
				out = append(out, i)
			}
		}
		return out
	}
	out := sel[:0]
	for _, i := range sel {
		if cmp(c.strs[i]) {
			out = append(out, i)
		}
	}
	return out
}

func cmpOrdered[T float64 | string](v, want T, op Op) bool {
	switch op {
	case Eq:
		return v == want
	case Ne:
		return v != want
	case Lt:
		return v < want
	case Le:
		return v <= want
	case Gt:
		return v > want
	case Ge:
		return v >= want
	}
	return false
}

// better reports whether row a sorts strictly before row b for the given
// order column and direction, breaking key ties by row index so results
// are identical to a stable sort of the match list.
func (c *column) better(a, b int, desc bool) bool {
	if c.typ == Numeric {
		if c.nums[a] != c.nums[b] {
			return (c.nums[a] < c.nums[b]) != desc
		}
	} else {
		if c.strs[a] != c.strs[b] {
			return (c.strs[a] < c.strs[b]) != desc
		}
	}
	return a < b
}

func sortMatches(matches []int, c *column, desc bool) {
	sort.Slice(matches, func(i, j int) bool { return c.better(matches[i], matches[j], desc) })
}

// topK keeps the k best rows of matches using a bounded heap whose root is
// the worst kept row, then sorts the survivors: O(n log k) instead of the
// O(n log n) full sort, and k allocations instead of n.
func topK(matches []int, c *column, desc bool, k int) []int {
	heap := make([]int, k)
	copy(heap, matches[:k])
	// The heap is a max-heap under better: the root is the row that every
	// other kept row sorts before, i.e. the worst of the kept k.
	lt := func(a, b int) bool { return c.better(a, b, desc) }
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(heap, i, lt)
	}
	for _, m := range matches[k:] {
		if !c.better(m, heap[0], desc) {
			continue // not better than the worst kept row
		}
		heap[0] = m
		siftDown(heap, 0, lt)
	}
	sortMatches(heap, c, desc)
	return heap
}

// siftDown restores the heap property at root i, where less orders the
// heap (root = maximum under less).
func siftDown(h []int, i int, less func(a, b int) bool) {
	for {
		left, right := 2*i+1, 2*i+2
		largest := i
		if left < len(h) && less(h[largest], h[left]) {
			largest = left
		}
		if right < len(h) && less(h[largest], h[right]) {
			largest = right
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

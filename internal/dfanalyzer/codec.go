package dfanalyzer

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/provlight/provlight/internal/wire"
)

// This file is the store's one on-disk format, shared by WAL ops (which
// replication also ships, byte for byte) and snapshots. It is built on
// internal/wire's varint primitives and tagged values.
//
// A WAL op is one header byte, opVersion<<4 | kind, then the kind's fields:
//
//	register : dataflow
//	ingest   : task list (no longer written; decoded as one frame with
//	           no origin and seq 0, which replay applies as it was)
//	frames   : uvarint count, then per frame: origin, uvarint seq, task list
//	term     : uvarint term, uvarint term start
//
// Element values are wire's tagged values (wire.AppendValue), so a value
// keeps its type through the log and replay applies exactly what the live
// store applied.
//
// A snapshot is snapMagic and snapVersion, then uvarint WAL seq, term and
// term start, the dedup table (per origin in order: origin, floor, and the
// sorted seen set as deltas), and the shards in tag order. A shard is its
// tag, its spec, its task catalog (transformations and statuses through a
// string table, then per task: id, string-table ordinals, start and end
// times, dependencies), and its tables in tag order: schema (whose
// attributes are the columns), row count, each row's task as a catalog
// ordinal, then each column as one block (8-byte floats, or a length
// block and one byte block for text).
//
// Decoders fail with an error, never a panic, and allocate no more than
// the remaining input can justify: every count is bounded by the bytes
// left (count, wire.Reader.ListLen).

// opKind is a WAL op's kind, the low nibble of its header byte.
type opKind byte

const (
	opRegister opKind = 1 + iota
	opIngest
	opFrames
	opTerm
)

const (
	// opVersion is the WAL op format version, the header's high nibble.
	opVersion = 1
	// snapMagic and snapVersion open every snapshot file.
	snapMagic   = "PLSNAP"
	snapVersion = 1
)

// errTrailing reports bytes left after a complete op or snapshot.
var errTrailing = errors.New("trailing bytes")

// decoder reads the codec's fields and keeps the first error: after a
// failed read every read returns a zero value and every count 0, so a
// decoder checks the error once, at the end, and stops doing work as soon
// as the input is exhausted.
type decoder struct {
	r    *wire.Reader
	err  error
	lens []int // texts' scratch
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// end fails on unread bytes and returns the first error.
func (d *decoder) end() error {
	if d.err == nil && d.r.Remain() != 0 {
		d.err = errTrailing
	}
	return d.err
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	v, err := d.r.Byte()
	d.fail(err)
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := d.r.Uvarint()
	d.fail(err)
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, err := d.r.Varint()
	d.fail(err)
	return v
}

func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	v, err := d.r.Str()
	d.fail(err)
	return v
}

func (d *decoder) value() any {
	if d.err != nil {
		return nil
	}
	v, err := d.r.Value()
	d.fail(err)
	return v
}

func (d *decoder) next(n int) []byte {
	if d.err != nil {
		return nil
	}
	v, err := d.r.Next(n)
	d.fail(err)
	return v
}

// count reads a list length whose items each take at least min bytes, and
// bounds it by the bytes left: the decoders allocate a list up front, so
// this keeps what they allocate in proportion to the input.
func (d *decoder) count(min int) int {
	if d.err != nil {
		return 0
	}
	n, err := d.r.ListLen()
	if err == nil && n > d.r.Remain()/min {
		err = fmt.Errorf("list of %d items exceeds the %d bytes left", n, d.r.Remain())
	}
	if err != nil {
		d.fail(err)
		return 0
	}
	return n
}

// ---- WAL ops ----

// appendOp appends the encoding of op to b.
func appendOp(b []byte, op *walOp) ([]byte, error) {
	b = append(b, opVersion<<4|byte(op.Kind))
	var err error
	switch op.Kind {
	case opRegister:
		b = appendDataflow(b, op.Dataflow)
	case opFrames:
		b = binary.AppendUvarint(b, uint64(len(op.Frames)))
		for i := range op.Frames {
			f := &op.Frames[i]
			b = appendString(b, f.Origin)
			b = binary.AppendUvarint(b, f.Seq)
			if b, err = appendTasks(b, f.Tasks); err != nil {
				break
			}
		}
	case opTerm:
		b = binary.AppendUvarint(b, op.Term)
		b = binary.AppendUvarint(b, op.TermStart)
	default:
		return nil, fmt.Errorf("dfanalyzer: unknown WAL op kind %d", op.Kind)
	}
	return b, err
}

// decodeOp decodes one WAL op. The op owns its memory: nothing aliases
// b, which the WAL reader reuses.
func decodeOp(b []byte) (*walOp, error) {
	if len(b) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	if v := b[0] >> 4; v != opVersion {
		return nil, fmt.Errorf("unknown WAL op format version %d (this store reads %d)", v, opVersion)
	}
	d := &decoder{r: wire.NewReader(b[1:])}
	op := &walOp{Kind: opKind(b[0] & 0x0f)}
	switch op.Kind {
	case opRegister:
		op.Dataflow = d.dataflow()
	case opIngest:
		op.Kind, op.Frames = opFrames, []FrameMsg{{Tasks: d.tasks()}}
	case opFrames:
		op.Frames = make([]FrameMsg, d.count(3))
		for i := range op.Frames {
			f := &op.Frames[i]
			f.Origin, f.Seq, f.Tasks = d.str(), d.uvarint(), d.tasks()
		}
	case opTerm:
		op.Term, op.TermStart = d.uvarint(), d.uvarint()
	default:
		return nil, fmt.Errorf("unknown WAL op kind %d", op.Kind)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return op, nil
}

func appendTasks(b []byte, tasks []*TaskMsg) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(tasks)))
	for _, m := range tasks { // validateBatch rejected nil messages
		b = appendString(b, m.Dataflow)
		b = appendString(b, m.Transformation)
		b = appendString(b, m.ID)
		b = appendString(b, string(m.Status))
		b = appendStrings(b, m.Dependencies)
		b = appendTime(b, m.StartTime)
		b = appendTime(b, m.EndTime)
		b = binary.AppendUvarint(b, uint64(len(m.Sets)))
		for _, set := range m.Sets {
			b = appendString(b, set.Tag)
			b = binary.AppendUvarint(b, uint64(len(set.Elements)))
			for _, el := range set.Elements {
				b = binary.AppendUvarint(b, uint64(len(el)))
				for _, v := range el {
					var err error
					if b, err = appendElementValue(b, v); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return b, nil
}

// appendElementValue logs one element value as the store will apply it.
// wire's tagged types go as they are; int is its int64. Any other type is
// only ever read as text (toFloat rejects it, toText prints it), so it is
// logged as the text it prints as. float32 is the one type apply reads both
// ways with different results (toFloat widens it, toText prints it at
// 32-bit precision), so it cannot be logged exactly and is refused.
func appendElementValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil, int64, float64, string, bool, []byte:
		return wire.AppendValue(b, v)
	case int:
		return wire.AppendValue(b, int64(x))
	case float32:
		return nil, fmt.Errorf("dfanalyzer: float32 attribute values cannot be logged; use float64")
	default:
		return wire.AppendValue(b, toText(v))
	}
}

func (d *decoder) tasks() []*TaskMsg {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	msgs := make([]TaskMsg, n)
	out := make([]*TaskMsg, n)
	for i := range msgs {
		m := &msgs[i]
		out[i] = m
		m.Dataflow, m.Transformation, m.ID, m.Status = d.str(), d.str(), d.str(), Status(d.str())
		m.Dependencies = d.strs()
		m.StartTime, m.EndTime = d.time(), d.time()
		m.Sets = make([]SetData, d.count(2))
		for j := range m.Sets {
			set := &m.Sets[j]
			set.Tag = d.str()
			set.Elements = make([]Element, d.count(1))
			for k := range set.Elements {
				el := make(Element, d.count(1))
				for x := range el {
					el[x] = d.value()
				}
				set.Elements[k] = el
			}
		}
	}
	return out
}

// ---- shared pieces ----

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// appendTime appends a presence byte and, when t is set, its instant as
// varint Unix seconds and uvarint nanoseconds. Decoded times are UTC, the
// zone the store keeps every time in (inUTC).
func appendTime(b []byte, t *time.Time) []byte {
	if t == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

func (d *decoder) time() *time.Time {
	var t time.Time
	if !d.timeInto(&t) {
		return nil
	}
	return &t
}

// timeInto decodes a time written by appendTime into *t, reporting
// whether one was present.
func (d *decoder) timeInto(t *time.Time) bool {
	switch present := d.byte(); present {
	case 0:
		return false
	case 1:
	default:
		d.fail(fmt.Errorf("bad time presence byte %d", present))
		return false
	}
	sec, nsec := d.varint(), d.uvarint()
	if nsec >= uint64(time.Second) {
		d.fail(fmt.Errorf("time nanoseconds %d out of range", nsec))
	}
	if d.err != nil {
		return false
	}
	*t = time.Unix(sec, int64(nsec)).UTC()
	return true
}

func appendDataflow(b []byte, df *Dataflow) []byte {
	b = appendString(b, df.Tag)
	b = binary.AppendUvarint(b, uint64(len(df.Transformations)))
	for i := range df.Transformations {
		tr := &df.Transformations[i]
		b = appendString(b, tr.Tag)
		b = appendSchemas(b, tr.Input)
		b = appendSchemas(b, tr.Output)
	}
	return b
}

func (d *decoder) dataflow() *Dataflow {
	df := &Dataflow{Tag: d.str(), Transformations: make([]Transformation, d.count(3))}
	for i := range df.Transformations {
		tr := &df.Transformations[i]
		tr.Tag, tr.Input, tr.Output = d.str(), d.schemas(), d.schemas()
	}
	return df
}

func appendSchemas(b []byte, sets []SetSchema) []byte {
	b = binary.AppendUvarint(b, uint64(len(sets)))
	for i := range sets {
		b = appendSchema(b, &sets[i])
	}
	return b
}

func (d *decoder) schemas() []SetSchema {
	out := make([]SetSchema, d.count(2))
	for i := range out {
		out[i] = d.schema()
	}
	return out
}

func appendSchema(b []byte, set *SetSchema) []byte {
	b = appendString(b, set.Tag)
	b = binary.AppendUvarint(b, uint64(len(set.Attributes)))
	for _, a := range set.Attributes {
		b = appendString(b, a.Name)
		b = appendString(b, string(a.Type))
	}
	return b
}

func (d *decoder) schema() SetSchema {
	set := SetSchema{Tag: d.str(), Attributes: make([]Attribute, d.count(2))}
	for i := range set.Attributes {
		a := &set.Attributes[i]
		a.Name, a.Type = d.str(), AttrType(d.str())
	}
	return set
}

// ---- snapshots ----

// snapshot is a decoded snapshot: the store state it carries and the WAL
// position it covers.
type snapshot struct {
	walSeq, term, termStart uint64
	dedup                   *dedupTable
	shards                  map[string]*dataflowShard
}

// writeSnapshot streams the store's state, as of WAL position walSeq, to
// w. Callers hold s.commitMu, which excludes every durable mutation, so
// the cut matches walSeq; each shard is read under its read lock, straight
// from its tables into the buffered writer.
func (s *Store) writeSnapshot(w io.Writer, walSeq uint64) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	put := func(b []byte) { bw.Write(b) } // errors stick; Flush reports them
	b := append(bw.AvailableBuffer(), snapMagic...)
	b = append(b, snapVersion)
	b = binary.AppendUvarint(b, walSeq)
	b = binary.AppendUvarint(b, s.repl.term.Load())
	b = binary.AppendUvarint(b, s.repl.termStart.Load())
	put(b)
	writeDedup(bw, s.dedup)

	s.mu.RLock()
	tags := make([]string, 0, len(s.shards))
	shards := make(map[string]*dataflowShard, len(s.shards))
	for tag, sh := range s.shards {
		tags = append(tags, tag)
		shards[tag] = sh
	}
	s.mu.RUnlock()
	slices.Sort(tags)
	put(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(tags))))
	for _, tag := range tags {
		sh := shards[tag]
		sh.mu.RLock()
		err := sh.writeSnapshot(bw, tag)
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeDedup(bw *bufio.Writer, d *dedupTable) {
	origins := make([]string, 0, len(d.origins))
	for origin := range d.origins {
		origins = append(origins, origin)
	}
	slices.Sort(origins)
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(origins))))
	var seen []uint64
	for _, origin := range origins {
		st := d.origins[origin]
		seen = seen[:0]
		for x := range st.seen {
			seen = append(seen, x)
		}
		slices.Sort(seen)
		b := appendString(bw.AvailableBuffer(), origin)
		b = binary.AppendUvarint(b, st.floor)
		b = binary.AppendUvarint(b, uint64(len(seen)))
		prev := st.floor
		for _, x := range seen {
			b = binary.AppendUvarint(b, x-prev)
			prev = x
		}
		bw.Write(b)
	}
}

// writeSnapshot streams one shard. Callers hold sh.mu for reading.
func (sh *dataflowShard) writeSnapshot(bw *bufio.Writer, tag string) error {
	put := func(b []byte) { bw.Write(b) }
	b := appendString(bw.AvailableBuffer(), tag)
	if sh.spec == nil {
		b = append(b, 0)
	} else {
		b = appendDataflow(append(b, 1), sh.spec)
	}
	put(b)

	// The catalog: transformations and statuses repeat across tasks, so
	// they go once into a string table that tasks refer to by ordinal.
	strIdx := map[string]uint64{}
	var strs []string
	intern := func(s string) {
		if _, ok := strIdx[s]; !ok {
			strIdx[s] = uint64(len(strs))
			strs = append(strs, s)
		}
	}
	taskIdx := make(map[string]uint64, len(sh.taskOrder))
	for i, id := range sh.taskOrder {
		t := sh.tasks[id]
		intern(t.Transformation)
		intern(string(t.Status))
		taskIdx[id] = uint64(i)
	}
	put(appendStrings(bw.AvailableBuffer(), strs))
	put(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(sh.taskOrder))))
	for _, id := range sh.taskOrder {
		t := sh.tasks[id]
		b := appendString(bw.AvailableBuffer(), id)
		b = binary.AppendUvarint(b, strIdx[t.Transformation])
		b = binary.AppendUvarint(b, strIdx[string(t.Status)])
		b = appendTime(b, t.StartTime)
		b = appendTime(b, t.EndTime)
		put(appendStrings(b, t.Dependencies))
	}

	setTags := make([]string, 0, len(sh.tables))
	for setTag := range sh.tables {
		setTags = append(setTags, setTag)
	}
	slices.Sort(setTags)
	put(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(setTags))))
	for _, setTag := range setTags {
		t := sh.tables[setTag]
		b := appendSchema(bw.AvailableBuffer(), &t.Schema)
		put(binary.AppendUvarint(b, uint64(t.rows)))
		if len(t.taskIDs) != t.rows {
			return fmt.Errorf("dfanalyzer: snapshot: set %q has %d row tasks for %d rows", setTag, len(t.taskIDs), t.rows)
		}
		for _, id := range t.taskIDs {
			ord, ok := taskIdx[id]
			if !ok {
				return fmt.Errorf("dfanalyzer: snapshot: row of set %q names task %q missing from the catalog", setTag, id)
			}
			put(binary.AppendUvarint(bw.AvailableBuffer(), ord))
		}
		for i := range t.cols {
			c := &t.cols[i]
			n := len(c.strs)
			if c.typ == Numeric {
				n = len(c.nums)
			}
			if n != t.rows {
				return fmt.Errorf("dfanalyzer: snapshot: column %q of set %q has %d values for %d rows", c.name, setTag, n, t.rows)
			}
			if c.typ == Numeric {
				for _, f := range c.nums {
					put(binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), math.Float64bits(f)))
				}
				continue
			}
			for _, s := range c.strs {
				put(binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(s))))
			}
			for _, s := range c.strs {
				bw.WriteString(s)
			}
		}
	}
	return nil
}

// decodeSnapshot decodes a snapshot written by writeSnapshot.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if !bytes.HasPrefix(data, []byte(snapMagic)) || len(data) == len(snapMagic) {
		return nil, fmt.Errorf("not a store snapshot (bad magic)")
	}
	if v := data[len(snapMagic)]; v != snapVersion {
		return nil, fmt.Errorf("unknown snapshot format version %d (this store reads %d)", v, snapVersion)
	}
	d := &decoder{r: wire.NewReader(data[len(snapMagic)+1:])}
	snap := &snapshot{walSeq: d.uvarint(), term: d.uvarint(), termStart: d.uvarint()}
	snap.dedup = d.dedup()
	snap.shards = map[string]*dataflowShard{}
	for n := d.count(5); n > 0; n-- {
		tag := d.str()
		if _, dup := snap.shards[tag]; dup {
			d.fail(fmt.Errorf("duplicate dataflow %q", tag))
		}
		snap.shards[tag] = d.shard(tag)
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return snap, nil
}

func (d *decoder) dedup() *dedupTable {
	t := newDedupTable()
	for n := d.count(3); n > 0; n-- {
		origin, floor := d.str(), d.uvarint()
		if _, dup := t.origins[origin]; dup {
			d.fail(fmt.Errorf("duplicate dedup origin %q", origin))
		}
		nseen := d.count(1)
		st := &originState{floor: floor, seen: make(map[uint64]struct{}, nseen)}
		for prev := floor; nseen > 0 && d.err == nil; nseen-- {
			delta := d.uvarint()
			if delta == 0 || prev+delta < prev {
				d.fail(fmt.Errorf("dedup origin %q: seen set not ascending", origin))
			}
			prev += delta
			st.seen[prev] = struct{}{}
		}
		t.origins[origin] = st
	}
	return t
}

// shard decodes one dataflow's spec, catalog and tables.
func (d *decoder) shard(tag string) *dataflowShard {
	sh := &dataflowShard{tables: map[string]*Table{}}
	switch present := d.byte(); present {
	case 0:
	case 1:
		sh.spec = d.dataflow()
	default:
		d.fail(fmt.Errorf("bad spec presence byte %d", present))
	}
	strs := d.strs()
	str := func() string {
		i := d.uvarint()
		if i >= uint64(len(strs)) {
			d.fail(fmt.Errorf("string ordinal %d out of range", i))
			return ""
		}
		return strs[i]
	}
	n := d.count(6)
	tasks := make([]TaskMsg, n)
	times := make([]time.Time, 2*n)
	sh.tasks = make(map[string]*TaskMsg, n)
	sh.taskOrder = make([]string, n)
	for i := range tasks {
		t := &tasks[i]
		t.Dataflow, t.ID, t.Transformation, t.Status = tag, d.str(), str(), Status(str())
		if d.timeInto(&times[2*i]) {
			t.StartTime = &times[2*i]
		}
		if d.timeInto(&times[2*i+1]) {
			t.EndTime = &times[2*i+1]
		}
		t.Dependencies = d.strs()
		if sh.tasks[t.ID] = t; len(sh.tasks) != i+1 {
			d.fail(fmt.Errorf("duplicate task %q", t.ID))
		}
		sh.taskOrder[i] = t.ID
	}
	for n := d.count(3); n > 0; n-- {
		t := d.table(tasks)
		if _, dup := sh.tables[t.Schema.Tag]; dup {
			d.fail(fmt.Errorf("duplicate set %q", t.Schema.Tag))
		}
		sh.tables[t.Schema.Tag] = t
	}
	return sh
}

// table decodes one table, whose columns are its schema's attributes; row
// task ids are the catalog's own strings.
func (d *decoder) table(tasks []TaskMsg) *Table {
	t := newTable(d.schema())
	if t.rows = d.count(1); t.rows == 0 {
		return t
	}
	t.taskIDs = make([]string, t.rows)
	for i := range t.taskIDs {
		ord := d.uvarint()
		if ord >= uint64(len(tasks)) {
			d.fail(fmt.Errorf("set %q: row task ordinal %d out of range", t.Schema.Tag, ord))
			return t
		}
		t.taskIDs[i] = tasks[ord].ID
	}
	for i := range t.cols {
		c := &t.cols[i]
		if c.typ != Numeric {
			c.strs = d.texts(t.rows)
			continue
		}
		blk := d.next(8 * t.rows)
		if blk == nil {
			return t
		}
		c.nums = make([]float64, t.rows)
		for j := range c.nums {
			c.nums[j] = math.Float64frombits(binary.LittleEndian.Uint64(blk[8*j:]))
		}
	}
	return t
}

// texts decodes a text column: rows lengths, then one byte block that
// becomes one string, which the values slice.
func (d *decoder) texts(rows int) []string {
	d.lens = d.lens[:0]
	total := 0
	for j := 0; j < rows && d.err == nil; j++ {
		n := d.uvarint()
		if n > uint64(d.r.Remain()-total) {
			d.fail(io.ErrUnexpectedEOF)
		}
		d.lens = append(d.lens, int(n))
		total += int(n)
	}
	all := string(d.next(total))
	if d.err != nil {
		return nil
	}
	strs := make([]string, rows)
	for j, n := range d.lens {
		strs[j], all = all[:n], all[n:]
	}
	return strs
}

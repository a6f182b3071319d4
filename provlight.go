// Package provlight is the public API of the ProvLight reproduction: an
// efficient workflow-provenance capture library for the Edge-to-Cloud
// Continuum (Rosendo et al., IEEE CLUSTER 2023).
//
// ProvLight captures W3C PROV-DM-compliant provenance on resource-limited
// IoT/Edge devices with low overhead by combining a simplified data
// exchange model (Workflow/Task/Data), binary payload compression,
// grouping of captured data, and asynchronous MQTT-SN publish/subscribe
// transmission over UDP at QoS 2 (exactly once).
//
// Device side (capture):
//
//	client, err := provlight.NewClient(ctx, provlight.Config{
//	    Broker:   "cloud-host:1883",
//	    ClientID: "edge-device-1",
//	})
//	wf := client.NewWorkflow("1")
//	wf.Begin()
//	task := wf.NewTask("epoch-0", "training")
//	task.Begin(provlight.NewData("in0", provlight.Attrs(map[string]any{"lr": 0.01})))
//	// ... task work ...
//	task.End(provlight.NewData("out0", provlight.Attrs(map[string]any{"loss": 0.3})).DerivedFrom("in0"))
//	wf.End()
//	client.Close()
//
// Server side (broker + provenance data translator):
//
//	server, err := provlight.StartServer(ctx, provlight.ServerConfig{
//	    Addr:    ":1883",
//	    Targets: []provlight.Target{provlight.NewMemoryTarget()},
//	})
//
// Read side (queries and live subscriptions): every backend exposes the
// same Source interface, so analysis code is backend-agnostic:
//
//	var src provlight.Source = mem // or a dfanalyzer store / remote client
//	rows, err := src.Select(ctx, provlight.Query{
//	    Dataflow: "provlight", Set: "training_output",
//	    OrderBy: "accuracy", Desc: true, Limit: 3,
//	})
//	records, cancel := server.Subscribe(ctx, provlight.Filter{Workflow: "1"})
//	defer cancel()
//	for rec := range records { /* live monitoring */ }
//
// Targets exist for the DfAnalyzer and ProvLake provenance systems
// (re-implemented in this repository), for W3C PROV-JSON export, and for
// in-memory analysis; custom systems integrate by implementing Target, and
// custom capture backends by implementing CaptureClient.
package provlight

import (
	"context"

	"github.com/provlight/provlight/internal/capture"
	"github.com/provlight/provlight/internal/core"
	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/provlake"
	"github.com/provlight/provlight/internal/queries"
	"github.com/provlight/provlight/internal/source"
	"github.com/provlight/provlight/internal/translate"
	"github.com/provlight/provlight/internal/wal"
)

// Client is the device-side capture library.
type Client = core.Client

// Config configures a capture client.
type Config = core.Config

// Stats counts client capture activity. Obtain snapshots via
// Client.StatsSnapshot.
type Stats = core.Stats

// Workflow is the application workflow handle (PROV-DM Agent).
type Workflow = core.Workflow

// Task is one processing step (PROV-DM Activity).
type Task = core.Task

// Data carries attribute values and derivations (PROV-DM Entity).
type Data = core.Data

// Attribute is one named value of a Data record.
type Attribute = provdm.Attribute

// Record is the provenance exchange record crossing the network.
type Record = provdm.Record

// EventKind identifies the capture event a Record carries.
type EventKind = provdm.EventKind

// Capture event kinds (workflow/task lifecycle).
const (
	EventWorkflowBegin = provdm.EventWorkflowBegin
	EventWorkflowEnd   = provdm.EventWorkflowEnd
	EventTaskBegin     = provdm.EventTaskBegin
	EventTaskEnd       = provdm.EventTaskEnd
)

// CaptureClient is the uniform provenance-capture interface implemented by
// every capture backend in the evaluation (ProvLight's Client, DfAnalyzer,
// ProvLake): instrument a workload once, run it against any backend.
type CaptureClient = capture.Client

// NopCapture is a CaptureClient that discards everything: the "no capture"
// baseline used to measure workflow time without provenance.
type NopCapture = capture.Nop

// CaptureFunc adapts a function to the CaptureClient interface.
type CaptureFunc = capture.Func

// Server bundles the MQTT-SN broker and the provenance data translators.
type Server = core.Server

// ServerConfig configures StartServer.
type ServerConfig = core.ServerConfig

// ErrQueueFull is returned by Capture when the transmit queue is full
// and no spool is configured (see Config.QueueCapacity for the
// backpressure contract); the drop is counted in StatsSnapshot.QueueFull.
var ErrQueueFull = core.ErrQueueFull

// SyncPolicy selects when WAL appends (client spool and durable store)
// are fsynced: SyncEach, SyncInterval (default), or SyncOff.
type SyncPolicy = wal.SyncPolicy

// WAL fsync policies.
const (
	SyncEach     = wal.SyncEach
	SyncInterval = wal.SyncInterval
	SyncOff      = wal.SyncOff
)

// DfStore is the DfAnalyzer-model column store: in-memory via NewStore,
// crash-durable (WAL + snapshots + recovery-on-open) via OpenStore.
type DfStore = dfanalyzer.Store

// StoreOptions configures a durable store for OpenStore.
type StoreOptions = dfanalyzer.StoreOptions

// Target receives translated provenance records on the server side.
type Target = translate.Target

// Frame is one decoded capture frame with its provenance identity
// (origin topic + durable sequence number), as handed to Targets.
type Frame = translate.Frame

// StoreTarget delivers records straight into a local DfStore; paired
// with OpenStore it forms a durable, exactly-once translator backend.
type StoreTarget = translate.StoreTarget

// Translator consumes device topics and feeds targets.
type Translator = translate.Translator

// TranslatorConfig configures a standalone Translator.
type TranslatorConfig = translate.Config

// MemoryTarget accumulates records in memory, exports them as a W3C
// PROV-JSON document, and doubles as a Source.
type MemoryTarget = translate.MemoryTarget

// Source is the backend-agnostic read interface over captured provenance:
// Select (predicate/order/limit queries), Task (catalog lookup), and
// Workflows (known dataflow tags). MemoryTarget, the DfAnalyzer store, and
// the remote DfAnalyzer client all implement it, and the queries in this
// package run identically against any of them.
type Source = source.Source

// Query selects rows from one set of a dataflow: conjunctive Where
// predicates, optional Project, and OrderBy/Desc/Limit top-k behaviour.
type Query = source.Query

// Pred filters rows on one attribute.
type Pred = source.Pred

// Op is a comparison operator in a query predicate.
type Op = source.Op

// Predicate operators.
const (
	Eq = source.Eq
	Ne = source.Ne
	Lt = source.Lt
	Le = source.Le
	Gt = source.Gt
	Ge = source.Ge
)

// Row is one query result with attribute values plus the producing task id
// under "task_id".
type Row = source.Row

// TaskInfo is the backend-agnostic task-catalog entry returned by
// Source.Task.
type TaskInfo = source.TaskInfo

// ErrNotFound is returned (wrapped) by Source lookups for missing
// entities; match with errors.Is.
var ErrNotFound = source.ErrNotFound

// Filter selects which records a live subscription receives; the zero
// value matches everything. Buffer bounds the per-subscriber channel.
type Filter = translate.Filter

// SubscriptionStats counts live-subscription activity, including
// slow-consumer drops.
type SubscriptionStats = translate.HubStats

// EpochMetrics is one training epoch's captured provenance, as returned by
// LatestEpochMetrics.
type EpochMetrics = queries.EpochMetrics

// HyperparamSummary aggregates accuracy per hyperparameter value, as
// returned by AccuracyByHyperparam.
type HyperparamSummary = queries.HyperparamSummary

// NewClient connects a capture client to a broker; ctx bounds the connect
// handshake.
func NewClient(ctx context.Context, cfg Config) (*Client, error) { return core.NewClient(ctx, cfg) }

// NewData creates a data handle with ordered attributes.
func NewData(id string, attributes []Attribute) *Data { return core.NewData(id, attributes) }

// Attrs builds a deterministic attribute list from a map.
func Attrs(m map[string]any) []Attribute { return core.Attrs(m) }

// StartServer launches the broker plus translators; ctx bounds the
// translators' connect/subscribe handshakes.
func StartServer(ctx context.Context, cfg ServerConfig) (*Server, error) {
	return core.StartServer(ctx, cfg)
}

// NewTranslator connects a standalone translator to a broker; ctx bounds
// the connect/subscribe handshakes.
func NewTranslator(ctx context.Context, cfg TranslatorConfig) (*Translator, error) {
	return translate.New(ctx, cfg)
}

// NewMemoryTarget returns an in-memory record sink whose Source view is
// exposed under the dataflow tag "provlight".
func NewMemoryTarget() *MemoryTarget { return translate.NewMemoryTarget() }

// NewMemoryTargetForDataflow returns an in-memory record sink exposing its
// Source view under the given dataflow tag.
func NewMemoryTargetForDataflow(tag string) *MemoryTarget {
	return translate.NewMemoryTargetForDataflow(tag)
}

// NewDfAnalyzerTarget forwards records to a DfAnalyzer server (the setup
// used by the paper's E2Clab Provenance Manager).
func NewDfAnalyzerTarget(baseURL, dataflowTag string) Target {
	return translate.NewDfAnalyzerTarget(dfanalyzer.NewClient(baseURL), dataflowTag)
}

// NewDfAnalyzerSource returns a Source that queries a remote DfAnalyzer
// server over HTTP — the read-side counterpart of NewDfAnalyzerTarget.
func NewDfAnalyzerSource(baseURL string) Source { return dfanalyzer.NewClient(baseURL) }

// NewStore returns an empty in-memory DfStore.
func NewStore() *DfStore { return dfanalyzer.NewStore() }

// OpenStore opens a crash-durable DfStore: every mutation is write-ahead
// logged, snapshots are written periodically with atomic temp+rename,
// and opening recovers the latest snapshot plus the WAL tail.
//
// Migration from NewStore: a store previously created with NewStore (or
// NewServer(nil)) was lost on process exit; pass the same data through
// OpenStore(StoreOptions{Dir: ...}) instead and it survives crashes —
// the rest of the Store API is unchanged.
func OpenStore(opts StoreOptions) (*DfStore, error) { return dfanalyzer.OpenStore(opts) }

// NewStoreTarget returns a Target that ingests into a local store under
// the given dataflow tag.
func NewStoreTarget(store *DfStore, dataflow string) *StoreTarget {
	return translate.NewStoreTarget(store, dataflow)
}

// NewProvLakeTarget forwards records to a ProvLake manager service.
func NewProvLakeTarget(baseURL string) Target {
	return translate.NewProvLakeTarget(provlake.NewClient(baseURL))
}

// TopKAccuracy answers query (ii) of the paper's §I against any Source:
// the k output rows with the best accuracy values.
func TopKAccuracy(ctx context.Context, src Source, dataflow, outputSet string, k int) ([]Row, error) {
	return queries.TopKAccuracy(ctx, src, dataflow, outputSet, k)
}

// LatestEpochMetrics answers query (i) of the paper's §I against any
// Source: per-epoch loss/accuracy joined with task elapsed times.
func LatestEpochMetrics(ctx context.Context, src Source, dataflow, outputSet string) ([]EpochMetrics, error) {
	return queries.LatestEpochMetrics(ctx, src, dataflow, outputSet)
}

// AccuracyByHyperparam groups the output set's accuracy by an input
// attribute (e.g. learning rate) against any Source.
func AccuracyByHyperparam(ctx context.Context, src Source, dataflow, inputSet, outputSet, attr string) ([]HyperparamSummary, error) {
	return queries.AccuracyByHyperparam(ctx, src, dataflow, inputSet, outputSet, attr)
}

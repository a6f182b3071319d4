package dfanalyzer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/resilience"
	"github.com/provlight/provlight/internal/source"
)

// Client is the DfAnalyzer capture library: every task event performs a
// blocking HTTP 1.1 request/response to the server, exactly like the
// original Python/C++ libraries (paper Table VI: "HTTP 1.1, TCP,
// request/response"). The connection is kept alive between requests.
type Client struct {
	base string
	hc   *http.Client
	// term, when non-zero, is stamped into every mutating request via
	// TermHeader so a server on a different replication term rejects the
	// write (fenced failover; see replication.go).
	term atomic.Uint64
	// retry, when set via WithRetry, wraps every mutating POST in the
	// shared resilience policy: budgeted jittered-backoff retries gated
	// by a circuit breaker. Server rejections (4xx, including the 409
	// term fence) are permanent; 5xx and transport errors retry.
	retry   *resilience.Retry
	breaker *resilience.Breaker
}

// NewClient returns a capture client for the server at baseURL
// (e.g. "http://127.0.0.1:22000").
func NewClient(baseURL string) *Client {
	return &Client{
		base: baseURL,
		hc: &http.Client{
			Timeout: 30 * time.Second,
		},
	}
}

// WithRetry enables budgeted retries on the mutating POST paths:
// budget total attempts with jittered exponential backoff between min
// and max, gated by a circuit breaker that opens after repeated
// failures (so a down server costs one fast rejection per delivery
// instead of a full backoff ladder). Rejections the server will repeat
// (4xx, including the 409 term fence) are never retried. Returns c for
// chaining; call before the first request.
func (c *Client) WithRetry(budget int, min, max time.Duration) *Client {
	c.breaker = &resilience.Breaker{}
	c.retry = &resilience.Retry{
		Budget:  budget,
		Backoff: resilience.Backoff{Min: min, Max: max},
		Breaker: c.breaker,
	}
	return c
}

// BreakerStats reports the retry circuit breaker's state; zero-valued
// when WithRetry was not enabled.
func (c *Client) BreakerStats() resilience.BreakerStats {
	if c.breaker == nil {
		return resilience.BreakerStats{}
	}
	return c.breaker.Stats()
}

// SetTerm sets the replication term stamped into subsequent writes
// (0 disables the header — the unfenced single-node default).
func (c *Client) SetTerm(term uint64) { c.term.Store(term) }

// Term returns the replication term currently stamped into writes.
func (c *Client) Term() uint64 { return c.term.Load() }

func (c *Client) post(path string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if c.retry == nil {
		return c.postOnce(path, data)
	}
	return c.retry.Do(context.Background(), func(context.Context) error {
		return c.postOnce(path, data)
	})
}

// postOnce performs one POST attempt. Failures the server will repeat on
// a retry of the same request (4xx, including the 409 term fence after a
// failover) are marked permanent; transport errors and 5xx are left
// retryable for the resilience policy.
func (c *Client) postOnce(path string, data []byte) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		return resilience.Permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if term := c.term.Load(); term > 0 {
		req.Header.Set(TermHeader, strconv.FormatUint(term, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("dfanalyzer: %s returned %s: %s", path, resp.Status, msg)
		if resp.StatusCode < 500 {
			return resilience.Permanent(err)
		}
		return err
	}
	// Drain so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// RegisterDataflow registers the dataflow specification.
func (c *Client) RegisterDataflow(df *Dataflow) error {
	return c.post("/dataflow", df)
}

// SendTask ships one task event (blocking request/response).
func (c *Client) SendTask(msg *TaskMsg) error {
	return c.post("/task", msg)
}

// SendFrames ships a batch of decoded capture frames with their durable
// identities to POST /frames: the server deduplicates redeliveries by
// (origin, seq) and applies frames without one as they come.
func (c *Client) SendFrames(frames []FrameMsg) error {
	if len(frames) == 0 {
		return nil
	}
	return c.post("/frames", frames)
}

// Client implements the backend-agnostic read interface remotely: queries
// written against source.Source run against a DfAnalyzer server over HTTP
// exactly as they run against a local Store.
var _ source.Source = (*Client)(nil)

// Select implements source.Source over POST /query; ctx bounds the request.
func (c *Client) Select(ctx context.Context, q Query) ([]Row, error) {
	data, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("dfanalyzer: query returned %s: %s", resp.Status, msg)
	}
	var rows []Row
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// getJSON GETs path (already query-encoded) and decodes the JSON response
// into out. A 404 is reported as errNotFound when non-nil, so callers can
// map it onto source.ErrNotFound with their own context.
func (c *Client) getJSON(ctx context.Context, path, what string, out any, errNotFound error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound && errNotFound != nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return errNotFound
	}
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dfanalyzer: %s returned %s: %s", what, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Task implements source.Source over GET /task?dataflow=...&id=...; a 404
// maps to source.ErrNotFound.
func (c *Client) Task(ctx context.Context, dataflow, id string) (*source.TaskInfo, error) {
	var info source.TaskInfo
	path := "/task?dataflow=" + url.QueryEscape(dataflow) + "&id=" + url.QueryEscape(id)
	notFound := fmt.Errorf("dfanalyzer: task %q in dataflow %q: %w", id, dataflow, source.ErrNotFound)
	if err := c.getJSON(ctx, path, "task lookup", &info, notFound); err != nil {
		return nil, err
	}
	return &info, nil
}

// Tasks implements source.Source over GET /tasks?dataflow=...: the whole
// catalog in one round trip.
func (c *Client) Tasks(ctx context.Context, dataflow string) ([]source.TaskInfo, error) {
	var infos []source.TaskInfo
	path := "/tasks?dataflow=" + url.QueryEscape(dataflow)
	if err := c.getJSON(ctx, path, "tasks listing", &infos, nil); err != nil {
		return nil, err
	}
	return infos, nil
}

// Workflows implements source.Source over GET /dataflow (the registered
// dataflow tags, sorted by the server).
func (c *Client) Workflows(ctx context.Context) ([]string, error) {
	var tags []string
	if err := c.getJSON(ctx, "/dataflow", "workflows", &tags, nil); err != nil {
		return nil, err
	}
	return tags, nil
}

// Capturer adapts the client to the capture.Client interface, translating
// ProvLight exchange records into DfAnalyzer task messages.
type Capturer struct {
	client   *Client
	dataflow string
}

// NewCapturer wraps c as a capture.Client for the given dataflow tag.
func NewCapturer(c *Client, dataflow string) *Capturer {
	return &Capturer{client: c, dataflow: dataflow}
}

// RecordToTaskMsg converts one exchange record into a DfAnalyzer task
// message (shared with the translator).
func RecordToTaskMsg(dataflow string, rec *provdm.Record) (*TaskMsg, bool) {
	if rec.Event != provdm.EventTaskBegin && rec.Event != provdm.EventTaskEnd {
		return nil, false // DfAnalyzer has no workflow lifecycle messages
	}
	// Task ids are namespaced by workflow so that multiple devices feeding
	// the same dataflow (Fig. 5: 64 clients, one provenance system) do not
	// collide.
	msg := &TaskMsg{
		Dataflow:       dataflow,
		Transformation: rec.Transformation,
		ID:             rec.WorkflowID + "/" + rec.TaskID,
		Dependencies:   rec.Dependencies,
	}
	ts := rec.Time
	if rec.Event == provdm.EventTaskBegin {
		msg.Status = StatusRunning
		msg.StartTime = &ts
	} else {
		msg.Status = StatusFinished
		msg.EndTime = &ts
	}
	side := "_input"
	if rec.Event == provdm.EventTaskEnd {
		side = "_output"
	}
	if len(rec.Data) > 0 {
		set := SetData{Tag: rec.Transformation + side}
		for _, d := range rec.Data {
			el := make(Element, 0, len(d.Attributes))
			for _, a := range d.Attributes {
				el = append(el, a.Value)
			}
			set.Elements = append(set.Elements, el)
		}
		msg.Sets = []SetData{set}
	}
	return msg, true
}

// Capture implements capture.Client.
func (cp *Capturer) Capture(rec *provdm.Record) error {
	msg, ok := RecordToTaskMsg(cp.dataflow, rec)
	if !ok {
		return nil
	}
	return cp.client.SendTask(msg)
}

// Flush implements capture.Client (DfAnalyzer has no buffering).
func (cp *Capturer) Flush() error { return nil }

// Close implements capture.Client.
func (cp *Capturer) Close() error { return nil }

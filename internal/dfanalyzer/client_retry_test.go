package dfanalyzer

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientRetryTransient: 5xx responses are retried under the budget
// and the delivery succeeds once the server recovers.
func TestClientRetryTransient(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	cl := NewClient(srv.URL).WithRetry(5, time.Millisecond, 5*time.Millisecond)
	if err := cl.SendTask(&TaskMsg{Dataflow: "df", Transformation: "t", ID: "wf/1", Status: StatusRunning}); err != nil {
		t.Fatalf("SendTask after transient 503s: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestClientRetryPermanent: a 4xx (here the 409 term fence) is never
// retried — the server would reject the identical request again.
func TestClientRetryPermanent(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "stale term", http.StatusConflict)
	}))
	defer srv.Close()

	cl := NewClient(srv.URL).WithRetry(5, time.Millisecond, 5*time.Millisecond)
	err := cl.SendTask(&TaskMsg{Dataflow: "df", Transformation: "t", ID: "wf/1", Status: StatusRunning})
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("want 409 error, got %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1 (permanent)", got)
	}
}

// TestClientRetryUncommitted: a 503 the server marks as a commit-wait
// give-up gets one attempt and reports ErrUncommitted, since a retry only
// waits the commit wait out again; a plain 500 and a transport error get
// the full budget.
func TestClientRetryUncommitted(t *testing.T) {
	const budget = 5
	for _, tc := range []struct {
		name     string
		answer   func(w http.ResponseWriter)
		attempts int64
	}{
		{"commit-wait 503", func(w http.ResponseWriter) {
			writeIngestErr(w, ErrUncommitted)
		}, 1},
		{"plain 500", func(w http.ResponseWriter) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}, budget},
		{"transport error", func(w http.ResponseWriter) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}, budget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				tc.answer(w)
			}))
			defer srv.Close()
			cl := NewClient(srv.URL).WithRetry(budget, time.Millisecond, 5*time.Millisecond)
			err := cl.SendFrames([]FrameMsg{{}})
			if err == nil {
				t.Fatal("SendFrames succeeded")
			}
			if got := calls.Load(); got != tc.attempts {
				t.Fatalf("server saw %d attempts, want %d (err %v)", got, tc.attempts, err)
			}
			if uncommitted := errors.Is(err, ErrUncommitted); uncommitted != (tc.attempts == 1) {
				t.Fatalf("errors.Is(%v, ErrUncommitted) = %v", err, uncommitted)
			}
		})
	}
}

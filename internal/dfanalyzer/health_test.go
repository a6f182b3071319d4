package dfanalyzer

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
)

// readyzBody is the /readyz response body.
type readyzBody struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason"`
}

func getJSONStatus(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func startServer(t *testing.T, srv *Server) string {
	t.Helper()
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr()
}

// TestHealthEndpointsStandalone: a serving standalone store is live and
// ready, and /metrics is its only operator view.
func TestHealthEndpointsStandalone(t *testing.T) {
	base := startServer(t, NewServer(NewStore()))

	if code := getJSONStatus(t, base+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	var ready readyzBody
	if code := getJSONStatus(t, base+"/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("/readyz = %d %+v, want 200 ready", code, ready)
	}
	if code := getJSONStatus(t, base+"/stats", nil); code != http.StatusNotFound {
		t.Fatalf("/stats = %d, want 404", code)
	}
}

// TestHealthEndpointsReplica: a replica's readiness is its replication
// stream's, reported through Server.Ready; without one attached it is
// not ready.
func TestHealthEndpointsReplica(t *testing.T) {
	detached := NewStore()
	detached.BeginFollowing()
	var ready readyzBody
	base := startServer(t, NewServer(detached))
	if code := getJSONStatus(t, base+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Reason == "" {
		t.Fatalf("replica without a stream: /readyz = %d %+v, want 503 with reason", code, ready)
	}

	store := NewStore()
	store.BeginFollowing()
	srv := NewServer(store)
	var streamErr atomic.Pointer[error]
	srv.Ready = func() error {
		if err := streamErr.Load(); err != nil {
			return *err
		}
		return nil
	}
	base = startServer(t, srv)

	if code := getJSONStatus(t, base+"/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("healthy replica: /readyz = %d %+v, want 200 ready", code, ready)
	}
	lagging := errors.New("replica lag 11 records exceeds threshold 10")
	streamErr.Store(&lagging)
	ready = readyzBody{}
	if code := getJSONStatus(t, base+"/readyz", &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("lagging replica: /readyz = %d, want 503", code)
	}
	if ready.Ready || ready.Reason != lagging.Error() {
		t.Fatalf("readyz = %+v, want not ready with the stream's reason", ready)
	}
}

package dfanalyzer

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// postRaw POSTs body to base+path with the given TermHeader value (none
// when empty) and returns the status and the TermHeader of the answer.
func postRaw(t *testing.T, base, path string, body any, term string) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if term != "" {
		req.Header.Set(TermHeader, term)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(TermHeader)
}

// TestWriteAnswersCarryTerm: every write endpoint's answer names the
// store's term, whether the write was applied, fenced (409), malformed
// (400) or left unreplicated by the commit wait (503).
func TestWriteAnswersCarryTerm(t *testing.T) {
	store := NewStore()
	if err := store.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	term, err := store.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if term, err = store.Promote(); err != nil {
		t.Fatal(err)
	}
	want := strconv.FormatUint(term, 10)
	stale := strconv.FormatUint(term-1, 10)
	base := startServer(t, NewServer(store))
	writes := []struct {
		path string
		body any
	}{
		{"/dataflow", testSpec("df2")},
		{"/task", taskPair("df", 0)[0]},
		{"/tasks", taskPair("df", 1)},
		{"/frames", []FrameMsg{{Origin: "provlight/dev-1/records", Seq: 1, Tasks: taskPair("df", 2)}}},
	}
	for _, w := range writes {
		for _, c := range []struct {
			name string
			body any
			term string
			code int
		}{
			{"unfenced", w.body, "", http.StatusOK},
			{"current term", w.body, want, http.StatusOK},
			{"stale term", w.body, stale, http.StatusConflict},
			{"malformed term", w.body, "x", http.StatusBadRequest},
			{"malformed body", "not a write", want, http.StatusBadRequest},
		} {
			code, got := postRaw(t, base, w.path, c.body, c.term)
			if code == http.StatusCreated { // POST /dataflow
				code = http.StatusOK
			}
			if code != c.code || got != want {
				t.Errorf("POST %s, %s: %d with term %q, want %d with term %q", w.path, c.name, code, got, c.code, want)
			}
		}
	}

	store.SetCommitWait(func() error { return errors.New("no follower") })
	frames := []FrameMsg{{Origin: "provlight/dev-1/records", Seq: 2, Tasks: taskPair("df", 3)}}
	if code, got := postRaw(t, base, "/frames", frames, want); code != http.StatusServiceUnavailable || got != want {
		t.Errorf("POST /frames, commit wait failing: %d with term %q, want 503 with term %q", code, got, want)
	}
}

// termServer is a write endpoint that answers each request with the next
// of its terms (the last one repeated) and records the term each request
// stamped.
type termServer struct {
	mu      sync.Mutex
	answers []string
	stamped []string
}

func (s *termServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stamped = append(s.stamped, r.Header.Get(TermHeader))
	w.Header().Set(TermHeader, s.answers[0])
	if len(s.answers) > 1 {
		s.answers = s.answers[1:]
	}
	w.WriteHeader(http.StatusOK)
}

// TestClientLearnsTerm: a client stamps no term until an answer names
// one, adopts every higher term an answer carries, and a lower one never
// lowers what it stamps.
func TestClientLearnsTerm(t *testing.T) {
	srv := &termServer{answers: []string{"3", "7", "2", "", "5"}}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	cl := NewClient(hs.URL)
	wantTerms := []uint64{3, 7, 7, 7, 7}
	for i, want := range wantTerms {
		if err := cl.SendTask(taskPair("df", i)[0]); err != nil {
			t.Fatal(err)
		}
		if got := cl.Term(); got != want {
			t.Fatalf("after answer %d: Term() = %d, want %d", i+1, got, want)
		}
	}
	wantStamped := []string{"", "3", "7", "7", "7"}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i, want := range wantStamped {
		if srv.stamped[i] != want {
			t.Fatalf("request %d stamped %q, want %q (all: %q)", i+1, srv.stamped[i], want, srv.stamped)
		}
	}
}

// TestClientAdoptsTermFrom409: a client stamping an older term is fenced
// with a 409 that names the store's term; it adopts that term, and its
// next write passes.
func TestClientAdoptsTermFrom409(t *testing.T) {
	store := NewStore()
	if err := store.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	if err := store.BecomePrimary(); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(startServer(t, NewServer(store)))
	if err := cl.SendTask(taskPair("df", 0)[0]); err != nil {
		t.Fatal(err)
	}
	if got := cl.Term(); got != 1 {
		t.Fatalf("Term() = %d after the first answer, want 1", got)
	}
	term, err := store.Promote()
	if err != nil {
		t.Fatal(err)
	}
	err = cl.SendTask(taskPair("df", 1)[0])
	if err == nil || !strings.Contains(err.Error(), "409") || cl.Term() != term {
		t.Fatalf("write stamped term 1 to a term-%d store: err %v, Term() = %d; want a 409 naming term %d",
			term, err, cl.Term(), term)
	}
	if err := cl.SendTask(taskPair("df", 1)[0]); err != nil {
		t.Fatalf("write after learning term %d: %v", term, err)
	}
	if n := store.TaskCount("df"); n != 2 {
		t.Fatalf("%d tasks stored, want 2 (the fenced write applies only when re-sent)", n)
	}
}

package dfanalyzer

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestWriteEndpointsFenced: every write endpoint answers 409 to a writer
// on a stale term, and to any writer of a read replica, 400 to a term
// header that is not a term, and applies nothing; the same writes on the
// current term go through.
func TestWriteEndpointsFenced(t *testing.T) {
	const origin = "provlight/dev-1/records"
	writes := []struct {
		path string
		body any
	}{
		{"/dataflow", testSpec("df2")},
		{"/task", taskPair("df", 0)[0]},
		{"/tasks", taskPair("df", 1)},
		{"/frames", []FrameMsg{{Origin: origin, Seq: 1, Tasks: taskPair("df", 2)}}},
	}
	post := func(t *testing.T, base, path string, body any, term string) (int, string) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TermHeader, term)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	cases := []struct {
		name string
		// setup puts a store holding dataflow "df" in the case's role and
		// returns the term header a fenced writer sends and the current term.
		setup func(t *testing.T, s *Store) (fenced string, current uint64)
		code  int
		want  error
		// writable: writes on the current term go through.
		writable bool
	}{
		{"stale term", func(t *testing.T, s *Store) (string, uint64) {
			if err := s.BecomePrimary(); err != nil {
				t.Fatal(err)
			}
			current, err := s.Promote()
			if err != nil {
				t.Fatal(err)
			}
			return strconv.FormatUint(current-1, 10), current
		}, http.StatusConflict, ErrStaleTerm, true},
		{"replica", func(t *testing.T, s *Store) (string, uint64) {
			s.BeginFollowing()
			return "0", 0
		}, http.StatusConflict, ErrNotPrimary, false},
		{"malformed term", func(t *testing.T, s *Store) (string, uint64) {
			current, err := s.Promote()
			if err != nil {
				t.Fatal(err)
			}
			return strconv.FormatUint(current, 10) + "x", current
		}, http.StatusBadRequest, errors.New("malformed " + TermHeader), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewStore()
			if err := store.RegisterDataflow(testSpec("df")); err != nil {
				t.Fatal(err)
			}
			fenced, current := tc.setup(t, store)
			base := startServer(t, NewServer(store))
			for _, w := range writes {
				code, msg := post(t, base, w.path, w.body, fenced)
				if code != tc.code || !strings.Contains(msg, tc.want.Error()) {
					t.Errorf("POST %s: %d %s, want %d %q", w.path, code, msg, tc.code, tc.want)
				}
			}
			if got := store.Dataflows(); !reflect.DeepEqual(got, []string{"df"}) {
				t.Errorf("dataflows = %v after fenced writes, want [df]", got)
			}
			if n := store.TaskCount("df"); n != 0 {
				t.Errorf("%d tasks applied by fenced writes", n)
			}
			if n := store.AppliedFrameCount(origin); n != 0 {
				t.Errorf("%d frames applied by fenced writes", n)
			}
			if !tc.writable {
				return
			}
			for _, w := range writes {
				if code, msg := post(t, base, w.path, w.body, strconv.FormatUint(current, 10)); code >= 300 {
					t.Errorf("POST %s on the current term: %d %s", w.path, code, msg)
				}
			}
			if _, ok := store.Dataflow("df2"); !ok || store.TaskCount("df") != 3 || store.AppliedFrameCount(origin) != 1 {
				t.Errorf("current-term writes not applied: df2 %v, %d tasks, %d frames",
					ok, store.TaskCount("df"), store.AppliedFrameCount(origin))
			}
		})
	}
}

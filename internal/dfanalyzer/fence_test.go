package dfanalyzer

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestWriteEndpointsFenced: every write endpoint answers 409 to a writer
// on a stale term, and to any writer of a read replica, and applies
// nothing; the same writes on the current term go through.
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
	post := func(t *testing.T, base, path string, body any, term uint64) (int, string) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TermHeader, strconv.FormatUint(term, 10))
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
		// returns the term a fenced writer sends and the current term.
		setup func(t *testing.T, s *Store) (stale, current uint64)
		want  error
		// writable: writes on the current term go through.
		writable bool
	}{
		{"stale term", func(t *testing.T, s *Store) (uint64, uint64) {
			if err := s.BecomePrimary(); err != nil {
				t.Fatal(err)
			}
			current, err := s.Promote()
			if err != nil {
				t.Fatal(err)
			}
			return current - 1, current
		}, ErrStaleTerm, true},
		{"replica", func(t *testing.T, s *Store) (uint64, uint64) {
			s.BeginFollowing()
			return 0, 0
		}, ErrNotPrimary, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := NewStore()
			if err := store.RegisterDataflow(testSpec("df")); err != nil {
				t.Fatal(err)
			}
			stale, current := tc.setup(t, store)
			base := startServer(t, NewServer(store))
			for _, w := range writes {
				code, msg := post(t, base, w.path, w.body, stale)
				if code != http.StatusConflict || !strings.Contains(msg, tc.want.Error()) {
					t.Errorf("POST %s: %d %s, want 409 %q", w.path, code, msg, tc.want)
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
				if code, msg := post(t, base, w.path, w.body, current); code >= 300 {
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

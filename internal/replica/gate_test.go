package replica

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/dfanalyzer"
	"github.com/provlight/provlight/internal/provdm"
	"github.com/provlight/provlight/internal/translate"
)

// semiSyncPrimary opens a primary store holding dataflow "df" and starts
// a MinSync 1 replication server over it, with no follower yet.
func semiSyncPrimary(t *testing.T) (*dfanalyzer.Store, *Server) {
	t.Helper()
	primary := openStore(t, t.TempDir(), 0)
	t.Cleanup(func() { primary.Close() })
	if err := primary.RegisterDataflow(testSpec("df")); err != nil {
		t.Fatal(err)
	}
	return primary, startPrimary(t, primary, Options{MinSync: 1, HeartbeatInterval: 20 * time.Millisecond})
}

// TestCommitWaitHoldsHTTPWrites: a MinSync 1 primary served over HTTP
// answers a write holding a durable frame id only once a follower holds
// it, and a write without one at once.
func TestCommitWaitHoldsHTTPWrites(t *testing.T) {
	primary, srv := semiSyncPrimary(t)
	api := dfanalyzer.NewServer(primary)
	if err := api.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	post := func(path string, body any) (int, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		resp, err := http.Post("http://"+api.Addr()+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	answered := make(chan int, 1)
	go func() {
		code, err := post("/frames", frameBatch("df", "provlight/dev-1/records", 0))
		if err != nil {
			t.Error(err)
		}
		answered <- code
	}()
	select {
	case code := <-answered:
		t.Fatalf("POST /frames answered %d with no follower", code)
	case <-time.After(300 * time.Millisecond):
	}
	_, written := primary.WALSeqs()

	start := time.Now()
	if code, err := post("/tasks", frameBatch("df", "", 1)[0].Tasks); err != nil || code != http.StatusOK {
		t.Fatalf("POST /tasks: %d %v", code, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("POST /tasks took %v, want an answer at once", d)
	}

	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	f := startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	select {
	case code := <-answered:
		if code != http.StatusOK {
			t.Fatalf("POST /frames answered %d after a follower joined, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("POST /frames still unanswered 5s after a follower joined")
	}
	if applied := f.AppliedSeq(); applied < written {
		t.Fatalf("follower applied through %d, want the write at %d", applied, written)
	}
}

// TestCommitWaitHoldsStoreTargetDelivery: in process, a translator's
// delivery of an identified batch into a MinSync 1 primary returns only
// after a follower has acked it.
func TestCommitWaitHoldsStoreTargetDelivery(t *testing.T) {
	primary, srv := semiSyncPrimary(t)
	target := translate.NewStoreTarget(primary, "provlight")
	now := time.Now()
	frames := []translate.Frame{{Origin: "provlight/dev-1/records", Seq: 1, Records: []provdm.Record{
		{Event: provdm.EventTaskBegin, WorkflowID: "wf", TaskID: "t0", Transformation: "train",
			Status: provdm.StatusRunning, Time: now},
		{Event: provdm.EventTaskEnd, WorkflowID: "wf", TaskID: "t0", Transformation: "train",
			Status: provdm.StatusFinished, Time: now,
			Data: []provdm.DataRef{{ID: "out0", Attributes: []provdm.Attribute{{Name: "accuracy", Value: 0.9}}}}},
	}}}
	delivered := make(chan error, 1)
	go func() { delivered <- target.DeliverFrames(frames) }()
	select {
	case err := <-delivered:
		t.Fatalf("delivery returned %v with no follower", err)
	case <-time.After(300 * time.Millisecond):
	}
	_, written := primary.WALSeqs()

	replica := openStore(t, t.TempDir(), 0)
	defer replica.Close()
	startFollower(t, replica, FollowerOptions{Primary: srv.Addr(), ID: "r1"})
	select {
	case err := <-delivered:
		if err != nil {
			t.Fatalf("delivery after a follower joined: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delivery still waiting 5s after a follower joined")
	}
	if st := srv.Stats(); len(st.Followers) != 1 || st.Followers[0].AckedSeq < written {
		t.Fatalf("delivery returned before the follower acked %d: %+v", written, st)
	}
}
